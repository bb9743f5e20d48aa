"""Index-filtration spectral sequence and the Plus-flavor structure theorem.

The complexes are filtered by the grading of the underlying critical point,
with the reducible orbit at filtration zero.  Page 0 is free on the
generators of each filtration.  Later pages are computed exactly from
approximation lattices on the certified reduction, which keeps the
filtration: the page-r cell at filtration p is the group of filtration-p
chains whose boundary drops r filtration levels, modulo lower chains and
boundaries from above.  The structure theorem assembles a prediction for
every Plus degree out of the non-equivariant homology, the delta maps, and
the cyclic tower terms, then compares it with the directly computed
homology and refuses to paper over a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .complexes import (
    Flavor,
    MonopoleData,
    _differential,
    _image_terms,
    _kept,
    _layout,
    _lines,
    _position,
    _reduced,
    _reduced_differential,
    _template,
    checked_degree,
    checked_window,
    per_band_degree,
)
from .data import CheckFailed, InvalidInput, THETA, per_dataset
from .homology import graded_homology, presentation_at, \
    GradedAbelianGroup, TRIVIAL, _kernel, _quotient
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
# filtration tables, cells and their differentials
# ---------------------------------------------------------------------------

@per_band_degree
def _filtrations(data: MonopoleData, flavor: Flavor,
                 n: int) -> tuple[int, ...]:
    """The filtration of each kept position of degree n: its grading in
    the layout, a point's or theta's 0."""
    layout = _layout(data, n % 2)
    return tuple(layout[i][3] for i in _kept(data, flavor, n))


@per_band_degree
def _critical_filtrations(data: MonopoleData, flavor: Flavor,
                          n: int) -> tuple[int, ...]:
    """The filtration of each critical generator of degree n in the
    certified reduction: that of its kept position."""
    full = _filtrations(data, flavor, n)
    return tuple(full[i] for i in _reduced(data, flavor, n).critical)


@per_dataset
def _check_filtered(data: MonopoleData) -> None:
    """Pages past the first are read on the certified reduction, which
    fixes them only if it is filtered.  The Morse data of a matching is
    filtered when D never raises filtration, every cancelled pair lies in
    one filtration and the matching is unit-triangular, so that A = D[U, M]
    is -1 within each filtration (Mischaikow and Nanda, Discrete Comput.
    Geom. 50 (2013)).  _certify proves the third and that D', f and g are
    that Morse data; the first two are facts about D's two parity
    templates, which every flavor's D and pairs are cut from.  So a theorem
    replaces a scan of D', f and g, and this checks, once per dataset and
    parity p in O(template entries), that no entry of the template raises
    grading and that every step of _lines joins an eta to a row of its own
    grading.  Infinity's D in degree p is the template itself, so a failure
    raises CheckFailed at degree p."""
    for p in (0, 1):
        rows, cols = _layout(data, 1 - p), _layout(data, p)
        if any(rows[i][3] > cols[j][3]
               for i, j, _ in _template(data, _image_terms, 1, p).entries):
            raise CheckFailed(p, "the differential raises filtration")
        if any(rows[i][3] != grading
               for grading, i, _, _ in _lines(data, p)[3].values()):
            raise CheckFailed(p, "a cancelled pair spans two filtrations")


def _filtration_levels(data: MonopoleData) -> list[int]:
    return sorted({grading for *_, grading in _layout(data, 0)})


def max_page(data: MonopoleData) -> int:
    """The last page spectral_pages computes for this data: twice the span
    of the filtration levels, plus three."""
    levels = _filtration_levels(data)
    return 2 * (levels[-1] - levels[0]) + 3


@per_dataset
def _a_lattice(data: MonopoleData, flavor: Flavor, n: int, p: int,
               r: int) -> Lattice:
    """Degree-n chains of the reduction of filtration at most p whose
    boundary has filtration at most p - r."""
    source = _critical_filtrations(data, flavor, n)
    low = [i for i, f in enumerate(source) if f <= p]
    high = [i for i, f in enumerate(_critical_filtrations(data, flavor, n - 1))
            if f > p - r]
    dropped = _reduced_differential(data, flavor, n).select(high, low)
    return _kernel(data, dropped).included(low, len(source))


def _den_lattice(data: MonopoleData, flavor: Flavor, r: int, p: int,
                 n: int) -> SparseIntMatrix:
    # not memoised: _live_cell, its only caller, is memoised under the
    # same key
    below = _a_lattice(data, flavor, n, p - 1, r - 1).basis
    above = _reduced_differential(data, flavor, n + 1).mul(
        _a_lattice(data, flavor, n + 1, p + r - 1, r - 1).basis)
    return hstack(below, above)


class _UnitGenerator(NamedTuple):
    """A page-0 generator: free, on the unit vector of one kept position of
    a slice of the given length, which is built only when read."""

    position: int
    length: int
    order = 0

    @property
    def vector(self) -> tuple[int, ...]:
        return tuple(int(i == self.position) for i in range(self.length))


class _FreeCell(NamedTuple):
    """A free cell: a page-0 cell on the unit generators of its kept
    positions, or the zero cell."""

    generators: tuple[_UnitGenerator, ...]
    invariants: AbelianGroupInvariants


_EMPTY = _FreeCell((), TRIVIAL)


def _grouped(levels: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The positions of a filtration table, ascending, by filtration."""
    at: dict[int, list[int]] = {}
    for i, f in enumerate(levels):
        at.setdefault(f, []).append(i)
    return {f: tuple(positions) for f, positions in at.items()}


@per_band_degree
def _positions(data: MonopoleData, flavor: Flavor,
               n: int) -> dict[int, tuple[int, ...]]:
    """_filtrations of degree n, grouped by filtration."""
    return _grouped(_filtrations(data, flavor, n))


@per_band_degree
def _critical_positions(data: MonopoleData, flavor: Flavor,
                        n: int) -> dict[int, tuple[int, ...]]:
    """_critical_filtrations of degree n, grouped by filtration."""
    return _grouped(_critical_filtrations(data, flavor, n))


def _generators_at(data: MonopoleData, flavor: Flavor, r: int,
                   n: int) -> dict[int, tuple[int, ...]]:
    """The generators of degree n that page r's cells are built on, by
    filtration: the kept positions on page 0, the critical ones later.  A
    cell has a generator at p exactly when p is a key."""
    return (_positions if r == 0 else _critical_positions)(data, flavor, n)


@per_dataset
def _live_cell(data: MonopoleData, flavor: Flavor, r: int, p: int,
               n: int) -> QuotientPresentation | _FreeCell:
    """The page-r cell at filtration p, degree n, which has a generator at
    p.  Page 0 is F_p / F_(p-1), free on the kept positions at filtration
    p.  A later page is read on the certified reduction, a filtered
    homotopy equivalence, which fixes every page past the first."""
    if r == 0:
        length = len(_filtrations(data, flavor, n))
        at = _positions(data, flavor, n)[p]
        return _FreeCell(tuple(_UnitGenerator(j, length) for j in at),
                         AbelianGroupInvariants(len(at)))
    return _quotient(data, _a_lattice(data, flavor, n, p, r),
                     _den_lattice(data, flavor, r, p, n))


def _cell(data: MonopoleData, flavor: Flavor, r: int, p: int,
          n: int) -> QuotientPresentation | _FreeCell:
    """The page-r cell at filtration p, degree n: _live_cell when a
    generator lies at p, and otherwise _EMPTY, zero on every page, with no
    memo entry."""
    if p in _generators_at(data, flavor, r, n):
        return _live_cell(data, flavor, r, p, n)
    return _EMPTY


@per_dataset
def _zero(data: MonopoleData, rows: int, cols: int) -> SparseIntMatrix:
    """The zero matrix of one shape, shared by every differential of that
    shape into or out of a cell without generators."""
    return SparseIntMatrix.zero(rows, cols)


@per_band_degree
def _d0_blocks(data: MonopoleData, flavor: Flavor,
               n: int) -> dict[int, SparseIntMatrix]:
    """d_0 out of degree n at each filtration p with kept positions in
    degrees n and n - 1: the block of D between the positions at p, all
    read off D's entries in one pass."""
    source = _positions(data, flavor, n)
    target = _positions(data, flavor, n - 1)
    cols = _filtrations(data, flavor, n)
    rows = _filtrations(data, flavor, n - 1)
    col_at = {j: k for at in source.values() for k, j in enumerate(at)}
    row_at = {i: k for at in target.values() for k, i in enumerate(at)}
    entries = {p: [] for p in source if p in target}
    for i, j, v in _differential(data, flavor, n).entries:
        if rows[i] == cols[j]:
            entries[cols[j]].append((row_at[i], col_at[j], v))
    return {p: SparseIntMatrix.from_entries(
        len(target[p]), len(source[p]), items)
        for p, items in entries.items()}


@per_dataset
def _live_dr_matrix(data: MonopoleData, flavor: Flavor, r: int, p: int,
                    n: int) -> SparseIntMatrix:
    """_dr_matrix between two cells with generators: on page 0 the block
    of D between the positions at p, later the classes of D' on the source
    generators."""
    if r == 0:
        return _d0_blocks(data, flavor, n)[p]
    source = _live_cell(data, flavor, r, p, n)
    target = _live_cell(data, flavor, r, p - r, n - 1)
    d_n = _reduced_differential(data, flavor, n)
    columns = [target.coordinate_of(d_n.apply(g.vector))
               for g in source.generators]
    return SparseIntMatrix.from_columns(len(target.generators), columns)


def _dr_matrix(data: MonopoleData, flavor: Flavor, r: int, p: int,
               n: int) -> SparseIntMatrix:
    """Page-r differential out of the cell at filtration p, degree n, into
    the cell at p - r, degree n - 1: (target generators) x (source
    generators).  It is _live_dr_matrix when both cells have generators,
    and otherwise the shared zero of that shape."""
    source = _cell(data, flavor, r, p, n)
    target = _cell(data, flavor, r, p - r, n - 1)
    if source.generators and target.generators:
        return _live_dr_matrix(data, flavor, r, p, n)
    return _zero(data, len(target.generators), len(source.generators))


def _composite_vanishes(second: SparseIntMatrix, first: SparseIntMatrix,
                        orders: tuple[int, ...]) -> bool:
    """second . first is zero modulo the torsion orders of its rows; maps
    whose shapes do not compose fail, and a zero factor forms no
    product."""
    if second.cols != first.rows:
        return False
    if not (second.entries and first.entries):
        return True
    # an entry is never zero, so it vanishes only on a torsion row whose
    # order divides it
    return all(orders[i] and v % orders[i] == 0
               for i, _, v in second.mul(first).entries)


def _check_d3_formula(data: MonopoleData, flavor: Flavor, p: int,
                      n: int) -> None:
    """The page-3 differential out of a filtration-3 cell must act by the
    two-step coefficient product into the reducible tower.  Plus at odd
    n >= 3 only: slice n has no theta, so each kept position is a point,
    an eta if of grading 3, and slice n - 1 keeps theta, which is
    critical, so its cell at filtration 0 is a presentation; theta's kept
    position there is its layout position (_position) less the kept
    range's start.  The cells live on the reduction: each source
    generator is read through f(n), and the prediction is carried back
    through g(n - 1)."""
    source = _cell(data, flavor, 3, p, n)
    target = _cell(data, flavor, 3, 0, n - 1)
    layout = _layout(data, n % 2)
    kept = [layout[i] for i in _kept(data, flavor, n)]
    theta = _position(data, 0)[None] - _kept(data, flavor, n - 1).start
    f = _reduced(data, flavor, n).f
    g = _reduced(data, flavor, n - 1).g
    mat = _dr_matrix(data, flavor, 3, p, n)
    for col, gen in enumerate(source.generators):
        total = 0
        for (_, a, _, grading), coeff in zip(kept, f.apply(gen.vector)):
            if coeff and grading == 3:
                total += coeff * sum(
                    data.m_value(a, c) * data.n_value(c, THETA)
                    for c in data.ids_at(1))
        predicted = [0] * g.cols
        predicted[theta] = total
        # a prediction outside the target cell cannot equal the actual
        # column: the formula under test failed, not the engine
        try:
            got = target.coordinate_of(g.apply(predicted))
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
    default degree window.  Page 0 is read off the complex, later pages
    off its certified reduction, which keeps the filtration once
    _check_filtered has shown, on D's two parity templates and once for
    both flavors, that D and the cancelled pairs keep it.  up_to_r must be
    an int, not a bool.

    Each page fills its grid in bulk with the trivial group and the
    shared 0 x 0 zero, then walks, in grid order, only its live keys:
    those whose cell, or whose differential's target, holds a generator
    (_generators_at).  There it builds the cell and the differential:
    _live_dr_matrix when both cells have generators, and otherwise the
    shared zero whose shape is the two cells' generator counts.  Every
    page is checked: a differential with entries composes to zero with
    its follower, the page's own d_r out of its target, which is formed
    only where the follower has entries too, since a zero factor gives a
    zero composite; even pages past the first carry no differential; and
    on Plus the page-3 maps into the reducible tower match the
    coefficient-product formula.
    """
    lo, hi = checked_window(data, None)
    if flavor not in _PAGE_FLAVORS:
        raise InvalidInput(
            "spectral pages exist for the infinity and plus flavors only")
    levels = _filtration_levels(data)
    cap = max_page(data)
    if type(up_to_r) is not int or not 0 <= up_to_r <= cap:
        raise InvalidInput(f"page bound must be an integer in [0, {cap}]")
    _check_filtered(data)

    window = range(lo, hi + 1)
    grid = [(p, n - p) for p in levels for n in window]
    pages = []
    for r in range(up_to_r + 1):
        cells = dict.fromkeys(grid, TRIVIAL)
        diffs = dict.fromkeys(grid, _zero(data, 0, 0))
        live = set()  # the keys whose source or target holds a generator
        for n in window:
            live.update((p, n - p) for p in _generators_at(data, flavor, r, n))
            live.update((p + r, n - p - r) for p in
                        _generators_at(data, flavor, r, n - 1))
        # in grid order, so that each follower is built before it is read
        for p, q in sorted(cells.keys() & live):
            n = p + q
            cells[p, q] = _cell(data, flavor, r, p, n).invariants
            diffs[p, q] = mat = _dr_matrix(data, flavor, r, p, n)
            if not mat.entries:
                continue
            # the page's own tables inside the grid, the memo below it
            follow = diffs.get((p - r, q + r - 1))
            if follow is None:
                follow = _dr_matrix(data, flavor, r, p - r, n - 1)
            if follow.entries and not _composite_vanishes(
                    follow, mat, tuple(g.order for g in _cell(
                        data, flavor, r, p - 2 * r, n - 2).generators)):
                raise CheckFailed(
                    n, f"page-{r} differentials fail to square to zero at "
                    f"({p}, {q})")
            if r >= 2 and r % 2 == 0:
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
    checked_degree(data, k)
    if k < 0:
        raise InvalidInput("the obstruction maps live in odd degrees 2k+1, "
                           "k nonnegative")
    pres = presentation_at(data, Flavor.NONEQUIVARIANT, 2 * k + 1)
    layout = _layout(data, 1)
    ids = [layout[i][1] for i in _kept(
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
        base = presentation_at(data, Flavor.NONEQUIVARIANT, n).invariants
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
        actual[n] = presentation_at(data, Flavor.PLUS, n).invariants
        if predicted[n] != actual[n]:
            raise CheckFailed(
                n, f"structure prediction {predicted[n]} but direct "
                f"computation {actual[n]}",
                predicted=predicted[n], actual=actual[n])
    return StructureTheoremResult((lo, hi), predicted, actual, delta, t_terms,
                                  True)
