"""Index-filtration spectral sequence and the Plus-flavor structure theorem.

The complexes are filtered by the grading of the underlying critical point,
with the reducible orbit at filtration zero.  Pages are computed exactly
from approximation lattices: the page-r cell at filtration p is the group
of filtration-p chains whose boundary drops r filtration levels, modulo
lower chains and boundaries from above.  The structure theorem assembles a
prediction for every Plus degree out of the non-equivariant homology, the
delta maps, and the cyclic tower terms, then compares it with the directly
computed homology and refuses to paper over a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .complexes import (
    Flavor,
    MonopoleData,
    _differential,
    _kept,
    checked_window,
    require_valid,
)
from .data import CheckFailed, InvalidInput, THETA, per_dataset
from .homology import graded_homology, homology_at, presentation_at, \
    GradedAbelianGroup, _kernel, _quotient
from .intlinalg import (
    AbelianGroupInvariants,
    ContainmentError,
    Lattice,
    QuotientPresentation,
    SparseIntMatrix,
    hstack,
)

__all__ = [
    "SpectralPage",
    "StructureTheoremResult",
    "nonequivariant_floer",
    "delta_map",
    "max_page",
    "spectral_pages",
    "structure_theorem",
]

_PAGE_FLAVORS = frozenset((Flavor.INFINITY, Flavor.PLUS))


@dataclass(frozen=True)
class SpectralPage:
    """One page: cell groups by (filtration, complement) and the outgoing
    differentials, each dropping r filtration levels and one total degree."""

    r: int
    cells: dict[tuple[int, int], AbelianGroupInvariants]
    differentials: dict[tuple[int, int], SparseIntMatrix]


@dataclass(frozen=True)
class StructureTheoremResult:
    """Prediction, direct values, and the ingredients that built it:
    delta (keyed 2k + 1) and t_terms (keyed k) cover k = n // 2 of the
    window's nonnegative degrees n."""

    window: tuple[int, int]
    predicted: dict[int, AbelianGroupInvariants]
    actual: dict[int, AbelianGroupInvariants]
    delta: dict[int, SparseIntMatrix]
    t_terms: dict[int, AbelianGroupInvariants]
    matches: bool


# ---------------------------------------------------------------------------
# approximation lattices
# ---------------------------------------------------------------------------

@per_dataset
def _filtrations(data: MonopoleData, flavor: Flavor,
                 n: int) -> tuple[int, ...]:
    """The filtration of each kept position of degree n: its point's
    grading, or 0 for theta, which leads an even slice."""
    theta = 1 - n % 2
    return tuple(0 if i < theta else data.points[i - theta].grading
                 for i in _kept(data, flavor, n))


def _filtration_levels(data: MonopoleData) -> list[int]:
    return sorted({p.grading for p in data.points} | {0})


def max_page(data: MonopoleData) -> int:
    """The last page spectral_pages computes for this data: twice the span
    of the filtration levels, plus three."""
    levels = _filtration_levels(data)
    return 2 * (levels[-1] - levels[0]) + 3


@per_dataset
def _a_lattice(data: MonopoleData, flavor: Flavor, n: int, p: int,
               r: int) -> Lattice:
    """Degree-n chains of filtration at most p whose boundary has
    filtration at most p - r: for negative r, every one, since D never
    raises filtration."""
    source = _filtrations(data, flavor, n)
    low = [i for i, f in enumerate(source) if f <= p]
    high = [i for i, f in enumerate(_filtrations(data, flavor, n - 1))
            if f > p - r]
    dropped = _differential(data, flavor, n).select(high, low)
    return _kernel(data, dropped).included(low, len(source))


@per_dataset
def _den_lattice(data: MonopoleData, flavor: Flavor, r: int, p: int,
                 n: int) -> SparseIntMatrix:
    below = _a_lattice(data, flavor, n, p - 1, r - 1).basis
    above = _differential(data, flavor, n + 1).mul(
        _a_lattice(data, flavor, n + 1, p + r - 1, r - 1).basis)
    return hstack(below, above)


@per_dataset
def _cell(data: MonopoleData, flavor: Flavor, r: int, p: int,
          n: int) -> QuotientPresentation:
    return _quotient(data, _a_lattice(data, flavor, n, p, r),
                     _den_lattice(data, flavor, r, p, n))


@per_dataset
def _dr_matrix(data: MonopoleData, flavor: Flavor, r: int, p: int,
               n: int) -> SparseIntMatrix:
    """Page-r differential out of the cell at filtration p, degree n."""
    source = _cell(data, flavor, r, p, n)
    target = _cell(data, flavor, r, p - r, n - 1)
    d_n = _differential(data, flavor, n)
    columns = [target.coordinate_of(d_n.apply(g.vector))
               for g in source.generators]
    return SparseIntMatrix.from_columns(len(target.generators), columns)


def _composite_vanishes(second: SparseIntMatrix, first: SparseIntMatrix,
                        orders: tuple[int, ...]) -> bool:
    product = second.mul(first)
    for (i, _, v) in product.entries:
        if orders[i] == 0:
            if v != 0:
                return False
        elif v % orders[i] != 0:
            return False
    return True


def _check_d3_formula(data: MonopoleData, flavor: Flavor, p: int,
                      n: int) -> None:
    """The page-3 differential out of a filtration-3 cell must act by the
    two-step coefficient product into the reducible tower.  Plus at odd
    n >= 3 only: slice n has no theta, so each kept position is a point,
    an eta if of grading 3, and slice n - 1 leads with theta."""
    source = _cell(data, flavor, 3, p, n)
    target = _cell(data, flavor, 3, 0, n - 1)
    points = [data.points[i] for i in _kept(data, flavor, n)]
    mat = _dr_matrix(data, flavor, 3, p, n)
    for col, gen in enumerate(source.generators):
        total = 0
        for point, coeff in zip(points, gen.vector):
            if coeff and point.grading == 3:
                total += coeff * sum(
                    data.m_value(point.id, c) * data.n_value(c, THETA)
                    for c in data.ids_at(1))
        predicted = [0] * len(_kept(data, flavor, n - 1))
        predicted[0] = total
        # a prediction outside the target cell cannot equal the actual
        # column: the formula under test failed, not the engine
        try:
            got = target.coordinate_of(predicted)
        except ContainmentError:
            got = None
        if got != tuple(mat.column(col)):
            raise CheckFailed(
                n, "page-3 differential at filtration 3 deviates from the "
                "coefficient-product formula")


def spectral_pages(data: MonopoleData, flavor: Flavor,
                   up_to_r: int) -> list[SpectralPage]:
    """Pages 0 through up_to_r of the filtration spectral sequence.

    Cells cover the filtration levels present in the data crossed with the
    default degree window.  Every page is checked: composing consecutive
    differentials yields zero, even pages past the first carry no
    differential, and on Plus the page-3 maps into the reducible tower
    match the coefficient-product formula.
    """
    lo, hi = checked_window(data, None)
    if flavor not in _PAGE_FLAVORS:
        raise InvalidInput(
            "spectral pages exist for the infinity and plus flavors only")
    levels = _filtration_levels(data)
    cap = max_page(data)
    if not 0 <= up_to_r <= cap:
        raise InvalidInput(f"page bound must lie in [0, {cap}] for this data")

    pages = []
    for r in range(up_to_r + 1):
        cells = {}
        diffs = {}
        for p in levels:
            for n in range(lo, hi + 1):
                q = n - p
                cells[(p, q)] = _cell(data, flavor, r, p, n).invariants
                diffs[(p, q)] = _dr_matrix(data, flavor, r, p, n)
        for (p, q), mat in diffs.items():
            n = p + q
            follow = _dr_matrix(data, flavor, r, p - r, n - 1)
            orders = tuple(
                g.order for g in
                _cell(data, flavor, r, p - 2 * r, n - 2).generators)
            if not _composite_vanishes(follow, mat, orders):
                raise CheckFailed(
                    n, f"page-{r} differentials fail to square to zero at "
                    f"({p}, {q})")
            if r >= 2 and r % 2 == 0 and not mat.is_zero():
                raise CheckFailed(
                    n, f"even page {r} carries a nonzero differential at "
                    f"({p}, {q})")
        if flavor is Flavor.PLUS and r == 3 and 3 in levels:
            for n in range(lo, hi + 1):
                if n - 3 >= 0 and (n - 3) % 2 == 0:
                    _check_d3_formula(data, flavor, 3, n)
        pages.append(SpectralPage(r, cells, diffs))
    return pages


# ---------------------------------------------------------------------------
# the structure theorem
# ---------------------------------------------------------------------------

def nonequivariant_floer(data: MonopoleData,
                         window: tuple[int, int] | None = None
                         ) -> GradedAbelianGroup:
    """Homology of the plain critical-point complex, graded by grading."""
    return graded_homology(data, Flavor.NONEQUIVARIANT, window)


def delta_map(data: MonopoleData, k: int) -> SparseIntMatrix:
    """Row matrix of the degree-(2k+1) obstruction on recorded generators.

    Pushes a class down through the even coefficient matrices from grading
    2k+1 to grading 1, then pairs with the reducible coupling column.
    Torsion generators must map to zero; CheckFailed is raised otherwise.
    """
    require_valid(data)
    if k < 0:
        raise InvalidInput("the obstruction maps live in odd degrees 2k+1, "
                           "k nonnegative")
    pres = presentation_at(data, Flavor.NONEQUIVARIANT, 2 * k + 1)
    ids = [data.points[i].id for i in _kept(
        data, Flavor.NONEQUIVARIANT, 2 * k + 1)]
    entries = []
    for col, gen in enumerate(pres.generators):
        x = {ids[i]: c for i, c in enumerate(gen.vector) if c}
        gr = 2 * k + 1
        while gr > 1:
            x = {c: sum(v * data.m_value(a, c) for a, v in x.items())
                 for c in data.ids_at(gr - 2)}
            gr -= 2
        value = sum(v * data.n_value(a, THETA) for a, v in x.items())
        if gen.order != 0 and value != 0:
            raise CheckFailed(
                2 * k + 1, "a torsion class produced a nonzero obstruction "
                "value")
        if value:
            entries.append((0, col, value))
    return SparseIntMatrix.from_entries(1, len(pres.generators), entries)


def _t_term(c: int) -> AbelianGroupInvariants:
    if c == 0:
        return AbelianGroupInvariants(1)
    if c == 1:
        return AbelianGroupInvariants(0)
    return AbelianGroupInvariants(0, (c,))


def structure_theorem(data: MonopoleData,
                      window: tuple[int, int] | None = None
                      ) -> StructureTheoremResult:
    """Predicted Plus homology versus the direct computation, per degree.

    Negative degrees copy the non-equivariant groups; positive odd degrees
    take the kernel of the obstruction row; even degrees adjoin the cyclic
    tower term.  One pass over the window builds the obstruction row and
    tower term of k = n // 2 for each nonnegative degree n, and nothing
    beyond it.  The direct values are read off the certified reduction
    of Plus.  A disagreement raises CheckFailed with both values.
    """
    lo, hi = checked_window(data, window)
    delta, t_terms, predicted, actual = {}, {}, {}, {}
    for n in range(lo, hi + 1):
        base = homology_at(data, Flavor.NONEQUIVARIANT, n)
        k = n // 2
        if n >= 0 and k not in t_terms:
            # degrees 2k and 2k + 1 share the degree-(2k + 1) obstruction
            # row, so free holds k's row through both
            delta[2 * k + 1] = mat = delta_map(data, k)
            row = mat.to_dense()[0] if mat.cols else []
            pres = presentation_at(data, Flavor.NONEQUIVARIANT, 2 * k + 1)
            free = [row[j] for j, g in enumerate(pres.generators)
                    if g.order == 0]
            t_terms[k] = _t_term(math.gcd(*free))
        if n < 0:
            predicted[n] = base
        elif n % 2 == 0:
            predicted[n] = base.direct_sum(t_terms[k])
        else:
            drop = 1 if any(free) else 0
            predicted[n] = AbelianGroupInvariants(base.free_rank - drop,
                                                  base.torsion)
        actual[n] = homology_at(data, Flavor.PLUS, n)
        if predicted[n] != actual[n]:
            raise CheckFailed(
                n, f"structure prediction {predicted[n]} but direct "
                f"computation {actual[n]}",
                predicted=predicted[n], actual=actual[n])
    return StructureTheoremResult((lo, hi), predicted, actual, delta, t_terms,
                                  True)
