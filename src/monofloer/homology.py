"""Homology of the flavored complexes, with recorded generators.

Every degree gets a pinned presentation, read on the certified reduction
of complexes._reduced: a primitive basis of the cycle lattice, the boundary
columns expressed in it, and generators read off the Smith form.  The
reduction is a homotopy equivalence, so the groups are those of the full
complex, in the coordinates of the critical generators.  Graded reports
carry the in-window groups plus symbolic 2-periodic tail descriptors, read
off the band beyond each edge where the complex repeats with period two
there or vanishes.  Chain maps induce matrices
on the same recorded generators, carried there through f and g.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import _POWERS, _STRUCTURAL, Flavor, MonopoleData, _band, \
    _band_degree, _carried, _differential, _identification, _image_terms, \
    _kept, _reduced_differential, _restricts, _rule_matrix, _same, \
    checked_degree, checked_window, per_band_degree, require_valid, \
    structural_map
from .data import CheckFailed, InvalidInput, per_dataset
from .intlinalg import (
    AbelianGroupInvariants,
    Lattice,
    QuotientPresentation,
    SparseIntMatrix,
    kernel_basis,
)

__all__ = [
    "Tail",
    "GradedAbelianGroup",
    "ChainMapSlice",
    "HomologyClassMap",
    "NotChainMap",
    "WindowTooSmall",
    "homology_at",
    "presentation_at",
    "graded_homology",
    "induced_on_homology",
    "structural_chain_map",
    "identity_chain_map",
]

TRIVIAL = AbelianGroupInvariants(0)


class NotChainMap(CheckFailed):
    """The alleged chain map fails to commute with the differentials."""

    def __init__(self, degree: int):
        super().__init__(degree, "does not commute with the differential")


class WindowTooSmall(Exception):
    """The chain map does not cover the requested window plus margin."""


@dataclass(frozen=True)
class Tail:
    """2-periodic continuation beyond one end of a window."""

    even: AbelianGroupInvariants
    odd: AbelianGroupInvariants


@dataclass(frozen=True)
class GradedAbelianGroup:
    window: tuple[int, int]
    groups: dict[int, AbelianGroupInvariants]
    tail_above: Tail | None
    tail_below: Tail | None


@dataclass(frozen=True)
class ChainMapSlice:
    """Per-degree matrices of a chain map with a uniform degree shift; the
    degree-n matrix maps the source degree-n basis to the target degree-
    (n + shift) basis.  rule, if given, is the (rule, drop) of the
    templates the matrices claim to select (see induced_on_homology)."""

    source: Flavor
    target: Flavor
    shift: int
    matrices: dict[int, SparseIntMatrix]
    rule: tuple | None = None


@dataclass(frozen=True)
class HomologyClassMap:
    """Action on homology: the degree-n matrix sends coordinates on the
    recorded source generators at n to coordinates on the recorded target
    generators at n + shift, both read by presentation_at on the certified
    reductions."""

    source: Flavor
    target: Flavor
    shift: int
    window: tuple[int, int]
    matrices: dict[int, SparseIntMatrix]


@per_dataset
def _kernel(data: MonopoleData, mat: SparseIntMatrix) -> Lattice:
    """kernel_basis(mat), memoised by the matrix's content, so degrees whose
    differentials are equal share one Smith reduction."""
    return kernel_basis(mat)


@per_dataset
def _quotient(data: MonopoleData, z: Lattice,
              b: SparseIntMatrix) -> QuotientPresentation:
    """QuotientPresentation(z, b), memoised by z's basis and b's content."""
    return QuotientPresentation(z, b)


@per_band_degree
def presentation_at(data: MonopoleData, flavor: Flavor,
                    n: int) -> QuotientPresentation:
    """Cycle lattice, boundary columns, and pinned generators in degree n,
    on the certified reduction (complexes._reduced): the homology of the
    full complex, with cycles and generators in the coordinates of the
    critical generators.  A flavor without pairs is its own reduction.
    Raises the certificate's CheckFailed if the reduction fails it.
    Outside the band this is, by complexes.per_band_degree, the same
    object as at the band-edge degree of n's parity."""
    require_valid(data)
    return _quotient(data,
                     _kernel(data, _reduced_differential(data, flavor, n)),
                     _reduced_differential(data, flavor, n + 1))


def homology_at(data: MonopoleData, flavor: Flavor,
                n: int) -> AbelianGroupInvariants:
    checked_degree(data, n, flavor)
    return presentation_at(data, flavor, n).invariants


# ---------------------------------------------------------------------------
# graded reports with tails
# ---------------------------------------------------------------------------

def _tail(data: MonopoleData, edge: int, step: int, group_at,
          settled) -> Tail | None:
    """The 2-periodic continuation of a graded group past one edge of a
    window (step 1 above, -1 below), or None where none is established.

    A tail exists when the edge lies past the band of complexes._band,
    beyond which every degree repeats a band-edge degree, or when
    settled(n), which says that degree n holds nothing or repeats with
    period two, holds from the edge out to two degrees past the band, and
    so, by the fold, further out.  Its groups are group_at at the band
    degrees of the first two degrees past the edge, never inside the
    window."""
    band_lo, band_hi = _band(data)
    # A tail below starts one degree further out than the band needs;
    # moving it would change which reports carry one.
    far, past_band = ((band_hi + 2, edge >= band_hi) if step > 0
                      else (band_lo - 2, edge < band_lo))
    # degrees more than two before the band fold onto band degrees that the
    # outer end holds, so a window far from the band stays cheap
    beyond = range(edge + step, far + step, step)[-(band_hi - band_lo + 5):]
    if not (past_band or all(settled(n) for n in beyond)):
        return None
    pair = {n % 2: group_at(_band_degree(data, n))
            for n in (edge + step, edge + 2 * step)}
    return Tail(even=pair[0], odd=pair[1])


def graded_homology(data: MonopoleData, flavor: Flavor,
                    window: tuple[int, int] | None = None) -> GradedAbelianGroup:
    """Homology across the window, plus _tail beyond each edge: Infinity
    repeats with period two in every degree, and a flavor that keeps no
    generator past an edge vanishes."""
    lo, hi = checked_window(data, window, flavor)
    band_lo, band_hi = _band(data)
    # A degree more than two past the band has the group of the degree two
    # nearer it, the same object by per_band_degree, so a presentation is
    # read only near the band, or at the two window degrees nearest it.
    first = max(lo, min(hi - 1, band_lo - 2))
    last = min(hi, max(lo + 1, band_hi + 2))
    near = [presentation_at(data, flavor, n).invariants
            for n in range(first, last + 1)]
    groups = {n: near[(n - first) % 2] for n in range(lo, first)}
    groups.update(zip(range(first, last + 1), near))
    groups.update((n, near[last - first - (n - last) % 2])
                  for n in range(last + 1, hi + 1))
    tails = [_tail(data, edge, step,
                   lambda n: presentation_at(data, flavor, n).invariants,
                   lambda n: flavor is Flavor.INFINITY
                   or not _kept(data, flavor, n))
             for edge, step in ((hi, 1), (lo, -1))]
    return GradedAbelianGroup((lo, hi), groups, *tails)


# ---------------------------------------------------------------------------
# induced maps
# ---------------------------------------------------------------------------

@per_dataset
def _commutes_on_templates(data: MonopoleData, source: Flavor,
                           target: Flavor, rule, drop: int,
                           shift: int) -> bool:
    """D M = M D on both parity templates, where M(n) reads rule's
    template at degree n + shift, with the restriction lemma and the
    ordered intervals of induced_on_homology.  Infinity keeps every
    position, so its cut of a rule at degree p is the template itself."""
    if shift + drop not in (0, -2) or not (source is target or (
            Flavor.NONEQUIVARIANT not in (source, target) and all(
                s <= t for s, t in zip(_POWERS[source], _POWERS[target])))):
        return False
    d, m = ({p: _rule_matrix(data, r, dr, Flavor.INFINITY, p) for p in (0, 1)}
            for r, dr in ((_image_terms, 1), (rule, drop)))
    return all(_restricts(data, flavor, r, dr) for flavor in (source, target)
               for r, dr in ((_image_terms, 1), (rule, drop))) and all(
        d[(p + shift) % 2].mul(m[p]) == m[1 - p].mul(d[p]) for p in (0, 1))


def induced_on_homology(data: MonopoleData, source: Flavor, target: Flavor,
                        chain_map: ChainMapSlice,
                        window: tuple[int, int]) -> HomologyClassMap:
    """Action of a chain map on the recorded homology generators of
    presentation_at, which live on the certified reductions.

    Commutation with the unreduced differentials is checked over the window
    plus one degree of margin, since a map carried as g . map . f could
    hide a failure; it raises NotChainMap with the offending degree.  The
    map is then carried with complexes._carried.

    A map M whose rule names its templates is proved on them once per
    parity (_commutes_on_templates): a product of selections is the
    templates' product selected, less the paths x -> y -> z through a y
    the middle flavor drops.  D never raises k, nor does M, which moves it
    by its template's move (0 or -1, _restricts) plus (shift + drop) / 2
    (0 or -1); so y lies below its kept interval, and x below the target's
    as the source's starts and ends no later.  A degree whose slices are
    not the rule's selections forms its products.
    """
    lo, hi = checked_window(data, window, source, target)
    if chain_map.source is not source or chain_map.target is not target:
        raise InvalidInput("chain map flavors disagree with the arguments")
    shift = chain_map.shift
    for n in range(lo - 1, hi + 2):
        if n not in chain_map.matrices:
            raise WindowTooSmall(f"chain map lacks the degree-{n} slice")
        mat = chain_map.matrices[n]
        want_cols = len(_kept(data, source, n))
        want_rows = len(_kept(data, target, n + shift))
        if (mat.rows, mat.cols) != (want_rows, want_cols):
            raise InvalidInput(f"degree-{n} slice has the wrong shape")
    rule = chain_map.rule
    proved = rule is not None and _commutes_on_templates(
        data, source, target, *rule, shift)

    def selected(m):
        return _rule_matrix(data, *rule, source, m, target, shift)

    for n in range(lo, hi + 2):
        mat, mat_prev = chain_map.matrices[n], chain_map.matrices[n - 1]
        if proved and mat is selected(n) and mat_prev is selected(n - 1):
            continue
        if _differential(data, target, n + shift).mul(mat) != mat_prev.mul(
                _differential(data, source, n)):
            raise NotChainMap(n)

    # reduced presentations and carried matrices are memoised by content,
    # so equal ones are one object
    induced, matrices = {}, {}
    for n in range(lo, hi + 1):
        key = src, tgt, mat = (
            presentation_at(data, source, n),
            presentation_at(data, target, n + shift),
            _carried(data, chain_map.matrices[n], source, n, target,
                     n + shift))
        if key not in induced:
            induced[key] = SparseIntMatrix.from_columns(
                len(tgt.generators), [tgt.coordinate_of(mat.apply(g.vector))
                                      for g in src.generators])
        matrices[n] = induced[key]
    return HomologyClassMap(source, target, shift, (lo, hi), matrices)


def structural_chain_map(data: MonopoleData, which: str,
                         window: tuple[int, int],
                         flavor: Flavor | None = None) -> ChainMapSlice:
    """Bundle a structural map over the window (plus margin) as a chain map."""
    lo, hi = checked_window(data, window)
    if which == "omega_inverse":
        if flavor is None:
            raise InvalidInput("omega_inverse needs a flavor")
        source = target = ambient = flavor
        shift = -2
    elif which in _STRUCTURAL:
        source, target, ambient = _STRUCTURAL[which]
        shift = 0
    else:
        raise InvalidInput(f"unknown structural map: {which}")
    matrices = {n: structural_map(data, which, ambient, n)
                for n in range(lo - 2, hi + 3)}
    return ChainMapSlice(source, target, shift, matrices, (_same, 0))


def identity_chain_map(data: MonopoleData, flavor: Flavor,
                       window: tuple[int, int]) -> ChainMapSlice:
    lo, hi = checked_window(data, window, flavor)
    matrices = {n: _identification(data, flavor, flavor, n)
                for n in range(lo - 2, hi + 3)}
    return ChainMapSlice(flavor, flavor, 0, matrices, (_same, 0))
