"""Flavored chain complexes over the Omega-power bookkeeping.

Five flavors restrict which Omega-powers k a generator may carry, each to
one interval (_POWERS): Infinity takes all k, Minus takes k < 0, Plus takes
k >= 0, Hat takes k = 0, and NonEquivariant keeps only the eta generators at
k = 0.  Each irreducible point a contributes generators eta_a (degree 2k +
gr(a)) and 1_a (degree 2k + gr(a) + 1); the reducible contributes 1_theta
(degree 2k).  The
differential is assembled from the n and m coefficient families.  Every
chain-level matrix is built once per parity on Infinity, and a flavor reads
its submatrix on the basis positions it keeps, which realizes the subcomplex
and quotient structure of the five variants at the matrix level.  The basis
is ordered by grading, so the positions a flavor keeps are one range.

Minus, Infinity and Plus also carry a certified reduction: cancelling every
pair eta_a^k -> 1_a^(k-1), whose entry is -1, leaves a homotopy equivalent
complex on the unpaired generators, which are theta and, in Plus and Minus,
the generators at the flavor's k edge (eta_a^0 and 1_a^(-1)).
"""

from __future__ import annotations

import enum
import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .data import THETA, CheckFailed, InvalidInput, MonopoleData, \
    _validation_report, per_dataset
from .intlinalg import SparseIntMatrix

__all__ = [
    "Flavor",
    "Generator",
    "DegreeSlice",
    "KIND_ETA",
    "KIND_ONE",
    "KIND_THETA",
    "generators_in_degree",
    "generator_degree",
    "differential_matrix",
    "check_d_squared",
    "structural_map",
    "default_window",
    "require_valid",
    "MAX_WINDOW_DEGREES",
    "checked_degree",
    "checked_window",
]

KIND_ETA = "eta"
KIND_ONE = "one"
KIND_THETA = "theta-one"


class Flavor(enum.Enum):
    INFINITY = "infinity"
    MINUS = "minus"
    PLUS = "plus"
    HAT = "hat"
    NONEQUIVARIANT = "noneq"

    # the members are singletons: memo keys hash them by identity
    __hash__ = object.__hash__


# the closed interval of Omega-powers k each flavor keeps; NonEquivariant
# keeps the etas of its interval only.  Minus, Infinity and Plus come in the
# main sequence's order, which REDUCED_FLAVORS keeps
_POWERS = {
    Flavor.MINUS: (-math.inf, -1),
    Flavor.INFINITY: (-math.inf, math.inf),
    Flavor.PLUS: (0, math.inf),
    Flavor.HAT: (0, 0),
    Flavor.NONEQUIVARIANT: (0, 0),
}


@dataclass(frozen=True)
class Generator:
    kind: str
    point: str | None
    k: int


@dataclass(frozen=True)
class DegreeSlice:
    degree: int
    basis: tuple[Generator, ...]


def require_valid(data: MonopoleData) -> None:
    report = _validation_report(data)
    if not report.ok:
        raise InvalidInput(f"invalid data: {report.violations[0]}")


def generator_degree(data: MonopoleData, gen: Generator) -> int:
    if gen.kind == KIND_THETA:
        return 2 * gen.k
    return 2 * gen.k + data.grading_of(gen.point) + (gen.kind == KIND_ONE)


@per_dataset
def _layout(data: MonopoleData, parity: int) -> tuple[tuple, ...]:
    """The Infinity basis order, stated once: (kind, point id, k, grading)
    of each generator of degree parity (0 or 1), in the order of
    generators_in_degree.  One generator per point, an eta where parity -
    gr is even, a one otherwise, with k = (parity - gr) // 2, and in the
    even layout theta, (KIND_THETA, None, 0, 0), listed by grading, theta
    first among grading 0, then by id.  So k never increases along the
    layout, and every kept set is one range of it (_kept).  Degree parity
    + 2 s lists the same generators with every k raised by s.  Every
    reader of the basis order reads this table, or _position."""
    # theta comes first, and the points in id order: the sort is stable
    return tuple(sorted(((KIND_THETA, None, 0, 0),) * (1 - parity) + tuple(
        (KIND_ONE if (parity - p.grading) % 2 else KIND_ETA, p.id,
         (parity - p.grading) // 2, p.grading) for p in data.points),
        key=_grading))


@per_dataset
def _position(data: MonopoleData, parity: int) -> dict:
    """Each generator's position in _layout(data, parity), by point id,
    theta's by None."""
    return {a: i for i, (_, a, _, _) in enumerate(_layout(data, parity))}


def _infinity_cells(data: MonopoleData, n: int) -> tuple[tuple, ...]:
    """(kind, point id, k) of each Infinity generator of degree n, in the
    order of generators_in_degree: the layout's k raised by n // 2."""
    return tuple((kind, a, k + n // 2)
                 for kind, a, k, _ in _layout(data, n % 2))


def _slice(data: MonopoleData, flavor: Flavor, n: int) -> DegreeSlice:
    cells = _infinity_cells(data, n)
    return DegreeSlice(n, tuple(
        Generator(*cells[i]) for i in _kept(data, flavor, n)))


def generators_in_degree(data: MonopoleData, flavor: Flavor,
                         n: int) -> DegreeSlice:
    """The canonical degree-n basis: one generator per point and, in even
    degrees, theta, ordered by grading, theta first among grading 0, then
    by point id (the parity of n - gr picks the kind).  A flavor keeps one
    contiguous run of the Infinity basis in this order."""
    checked_degree(data, n, flavor)
    return _slice(data, flavor, n)


def _image_terms(data: MonopoleData, gen: Generator):
    # the untruncated differential; flavor restriction happens at lookup.
    # A generator meets the n-couplings one grading down in its own kind (a
    # one with the sign flipped); an eta also meets the m-couplings two
    # down, its partner one and, from grading 1, theta; theta meets the
    # ones at grading -2
    if gen.kind == KIND_THETA:
        return [(Generator(KIND_ONE, d, gen.k), v)
                for d in data.ids_at(-2) if (v := data.n_value(THETA, d))]
    grading, eta = data.grading_of(gen.point), gen.kind == KIND_ETA
    out = [(Generator(gen.kind, b, gen.k), v if eta else -v)
           for b in data.ids_at(grading - 1)
           if (v := data.n_value(gen.point, b))]
    if eta:
        out += [(Generator(KIND_ONE, c, gen.k), v)
                for c in data.ids_at(grading - 2)
                if (v := data.m_value(gen.point, c))]
        out.append((Generator(KIND_ONE, gen.point, gen.k - 1), -1))
        if grading == 1 and (v := data.n_value(gen.point, THETA)):
            out.append((Generator(KIND_THETA, None, gen.k), v))
    return out


def _slice_map(rows: DegreeSlice, cols: DegreeSlice,
               terms) -> SparseIntMatrix:
    """The matrix of a rule on generators from the cols slice to the rows
    slice.  terms(gen) yields (target, coefficient) pairs; targets outside
    the rows slice are dropped."""
    index = {g: i for i, g in enumerate(rows.basis)}
    return SparseIntMatrix.from_entries(len(rows.basis), len(cols.basis), (
        (i, j, value) for j, gen in enumerate(cols.basis)
        for (target, value) in terms(gen)
        if (i := index.get(target)) is not None))


@per_dataset
def _band(data: MonopoleData) -> tuple[int, int]:
    """The degrees whose differentials and presentations are built.

    D(n) reads the Infinity template of n's parity at _kept(n - 1) and
    _kept(n).  Raising every k by one maps slice n onto slice n + 2, so
    _kept(n + 2) == _kept(n) unless slice n holds a generator whose k or
    k + 1, but not both, lies in the flavor's _POWERS interval (k = -1 for
    Minus and Plus, k in {-1, 0} for Hat and NonEquivariant); with g the
    gradings of the even layout, theta's 0 among them, that cannot happen
    for n >= max(g) + 2 or n <= min(g) - 3.  So D(n + 2) == D(n) for
    n >= max(g) + 3 or n <= min(g) - 3, and a presentation, which reads
    D(n) and D(n + 1), repeats outside [min(g) - 3, max(g) + 4].  Validity
    of the data plays no part."""
    gradings = [grading for *_, grading in _layout(data, 0)]
    return min(gradings) - 3, max(gradings) + 4


def _band_degree(data: MonopoleData, n: int) -> int:
    """n inside the band; outside it, the band-edge degree of n's parity,
    whose kept positions, differential and presentation are n's."""
    lo, hi = _band(data)
    return (lo + (n - lo) % 2 if n < lo else hi - (n - hi) % 2 if n > hi
            else n)


def per_band_degree(fn):
    """per_dataset for fn(data, flavor, n), keyed with n folded onto the
    band by _band_degree, so the memo holds band degrees only.  A band
    degree's hit is one lookup.  fn must never return None."""
    @functools.wraps(fn)
    def memoised(data: MonopoleData, flavor: Flavor, n: int):
        value = data._memo.get((fn, flavor, n))
        if value is None:
            key = (fn, flavor, _band_degree(data, n))
            value = data._memo.get(key)
            if value is None:
                value = data._memo[key] = fn(data, flavor, key[2])
        return value
    return memoised


@per_band_degree
def _kept(data: MonopoleData, flavor: Flavor, n: int) -> range:
    """The positions of the Infinity basis of degree n whose k, the
    layout's raised by n // 2, lies in the flavor's _POWERS interval;
    NonEquivariant keeps only the etas there.  k never increases along the
    layout, so these are one range, found by bisect: O(log points).
    NonEquivariant's etas are the block of grading n, less theta at n =
    0, which leads that grading."""
    layout = _layout(data, n % 2)
    if flavor is Flavor.NONEQUIVARIANT:
        return range(bisect_left(layout, n, key=_grading) + (n == 0),
                     bisect_right(layout, n, key=_grading))
    low, high = _POWERS[flavor]
    return range(bisect_left(layout, n // 2 - high, key=_lowered),
                 bisect_right(layout, n // 2 - low, key=_lowered))


def _grading(cell: tuple) -> int:
    return cell[3]


def _lowered(cell: tuple) -> int:
    # -k, which never decreases along a layout
    return -cell[2]


@per_dataset
def _template(data: MonopoleData, rule, drop: int,
              parity: int) -> SparseIntMatrix:
    return _slice_map(_slice(data, Flavor.INFINITY, parity - drop),
                      _slice(data, Flavor.INFINITY, parity),
                      lambda gen: rule(data, gen))


@per_dataset
def _selection(data: MonopoleData, template, key: tuple, rows,
               cols) -> SparseIntMatrix:
    """template(data, *key) at the positions rows and cols, memoised by
    them: degrees keeping the same positions share a matrix.  On kept
    ranges it is named in O(1) and its entries are cut on first read
    (SparseIntMatrix.select), so a selection only compared by identity, as
    verify_u_homotopy and duality._complex_level compare theirs, is never
    built."""
    return template(data, *key).select(rows, cols)


def _rule_matrix(data: MonopoleData, rule, drop: int, source: Flavor,
                 n: int, target: Flavor | None = None,
                 shift: int | None = None) -> SparseIntMatrix:
    """The matrix of rule from degree n of source to degree n + shift of
    target (by default source and -drop): the one cut of every flavored
    map.  A rule reads k only to shift it, and raising every k by one maps
    Infinity slice n onto slice n + 2 in order; so the Infinity matrix
    depends only on n's parity, and a flavored one is its submatrix at the
    two sides' kept positions, the rows read at degree n + shift, which is
    n - drop raised by (shift + drop) / 2 powers.  Where _restricts holds,
    a product of such submatrices is the submatrix of the templates'
    product."""
    target = source if target is None else target
    shift = -drop if shift is None else shift
    return _selection(data, _template, (rule, drop, n % 2),
                      _kept(data, target, n + shift), _kept(data, source, n))


@per_dataset
def _restricts(data: MonopoleData, flavor: Flavor, rule, drop: int) -> bool:
    """The restriction lemma for rule: in every degree, a product A B of
    the flavor's matrices of rules for which it holds is the product of
    their Infinity templates at the kept positions.  The two differ by the
    paths x -> y -> z with x and z kept and y not; none exists when
    - every kept set is an interval in k, the same in every degree (for
      NonEquivariant, the etas of one interval), which _kept gives by
      construction, reading the interval off _POWERS;
    - every template entry of the rule moves k by 0 or -1, so k(z) <= k(y)
      <= k(x) and y's k lies in the interval;
    - for NonEquivariant, no entry leads from a one or a theta to an eta,
      so y is an eta too.
    Infinity keeps every position, so it holds there outright.  Checked in
    O(template entries)."""
    if flavor is Flavor.INFINITY:
        return True
    for parity in (0, 1):
        rows = _infinity_cells(data, parity - drop)
        cols = _infinity_cells(data, parity)
        for (i, j, _) in _template(data, rule, drop, parity).entries:
            (kind, _, k), (source, _, power) = rows[i], cols[j]
            if k - power not in (0, -1) or (
                    flavor is Flavor.NONEQUIVARIANT and kind == KIND_ETA
                    and source != KIND_ETA):
                return False
    return True


@per_band_degree
def _differential(data: MonopoleData, flavor: Flavor, n: int) -> SparseIntMatrix:
    return _rule_matrix(data, _image_terms, 1, flavor, n)


def differential_matrix(data: MonopoleData, flavor: Flavor,
                        n: int) -> SparseIntMatrix:
    """Matrix of D from the degree-n basis to the degree-(n-1) basis."""
    checked_degree(data, n, flavor)
    return _differential(data, flavor, n)


def check_d_squared(data: MonopoleData, flavor: Flavor,
                    window: tuple[int, int] | None) -> bool:
    """True iff D composed with D vanishes at every degree of the window.

    When D D = 0 on the two parity templates and _restricts holds for D,
    it holds in every degree of every flavor; otherwise each degree is
    scanned, with its product memoised by content (_product), so a degree
    beyond the band, whose D(n - 1) and D(n) are a band degree's, costs a
    lookup.  Validity of the data is deliberately not required here: on
    defective coefficients this check is exactly what detects the broken
    identity, through the scan.  The window, default_window(data) if None,
    is held to the bounds of checked_window, and the flavor to the types
    of checked_degree.
    """
    lo, hi = _window_bounds(default_window(data) if window is None
                            else window)
    _degree_types(lo, flavor)
    if _restricts(data, flavor, _image_terms, 1) and all(
            _template(data, _image_terms, 1, 1 - parity).mul(
                _template(data, _image_terms, 1, parity)).is_zero()
            for parity in (0, 1)):
        return True
    return all(_product(data, _differential(data, flavor, n - 1),
                        _differential(data, flavor, n))
               .is_zero() for n in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# cancelling the unit pairs
# ---------------------------------------------------------------------------

# the flavors with pairs to cancel, Minus, Infinity and Plus: only an interval
# of more than one power keeps both eta_a^k and 1_a^(k-1)
REDUCED_FLAVORS = tuple(flavor for flavor, (low, high) in _POWERS.items()
                        if low < high)


class Reduction(NamedTuple):
    """Degree n of the cancellation of a flavor's unit pairs.

    The critical generators c_n are the kept ones that no pair uses
    (_critical).  differential is D'(n): c_n -> c_{n-1}; f(n): c_n -> C_n
    and g(n): C_n -> c_n are chain maps with g f = 1, and f g is homotopic
    to 1 by the algebraic Morse theorem (_certify), so f and g are mutually
    inverse on homology.  critical lists, ascending, the positions in the
    kept slice of degree n of the generators in c_n.  _reduce builds it on
    the parity templates' lines and _certify proves it against them.
    """

    differential: SparseIntMatrix
    f: SparseIntMatrix
    g: SparseIntMatrix
    critical: tuple[int, ...]


@per_band_degree
def _critical(data: MonopoleData, flavor: Flavor, n: int) -> tuple[int, ...]:
    """The critical positions of degree n for a flavor of REDUCED_FLAVORS,
    ascending in its kept slice: the kept generators no pair uses, which by
    the rule of _active are theta and the generators at the k edge,
    eta_a^low and 1_a^high.  Found through ids_at, each is placed by its
    layout position (_position) less the kept range's start: O(edge
    generators), where a scan of the layout costs O(points).  These are
    the kept positions of n that no pair with n - 1 or n + 1 uses, so they
    repeat with period two beyond the band, as per_band_degree needs."""
    low, high = _POWERS[flavor]
    at, kept = _position(data, n % 2), _kept(data, flavor, n)
    edge = [a for grading in (n - 2 * low, n - 2 * high - 1)
            for a in data.ids_at(grading)]
    theta = [None] * (n % 2 == 0 and low <= n // 2 <= high)
    return tuple(sorted(at[a] - kept.start for a in theta + edge))


@per_dataset
def _lines(data: MonopoleData, parity: int):
    """The Infinity template of D from degrees of this parity as lines,
    and its pairs as the steps of _flow: columns[j] and rows[i] are
    {index: value}; down maps the row of each 1_a^(k-1) to (-gr(a), the
    column of eta_a^k, that column, k), and along maps the column of each
    eta_a^k to (gr(a), the row of 1_a^(k-1), that row, k), with k read in
    degree parity.  Degree parity + 2 s is the template with every k
    raised by s, so its pairs are the steps _active keeps there.  The
    etas are the layout's, and each partner is placed by its point's
    position in the other parity's layout (_position).  Built once per
    dataset and parity."""
    columns, rows, down, along = {}, {}, {}, {}
    for (i, j, v) in _template(data, _image_terms, 1, parity).entries:
        columns.setdefault(j, {})[i] = v
        rows.setdefault(i, {})[j] = v
    partner = _position(data, 1 - parity)
    for j, (kind, a, k, grading) in enumerate(_layout(data, parity)):
        if kind == KIND_ETA:
            i = partner[a]
            down[i] = (-grading, j, columns.get(j, {}), k)
            along[j] = (grading, i, rows.get(i, {}), k)
    return columns, rows, down, along


@per_dataset
def _unit_triangular(data: MonopoleData, parity: int) -> bool:
    """The matching check on the Infinity template of D from degrees of
    this parity: from each eta_a^k, the entry at its partner 1_a^(k-1) is
    -1 and every other entry at a one falls to a lower grading, read off
    the steps of _lines.  So A = D[U, M] is -1 on the pairs and
    unit-triangular in grading order.  A flavor's D is the template at its
    kept positions and its pairs are the template's there (_active), so
    its A is the template's on matched rows and columns, and
    unit-triangular too.  O(template entries)."""
    down = _lines(data, parity)[2]
    return all(line.get(i) == -1 and all(
        down[r][0] > rank for r in line if r in down and r != i)
        for i, (rank, _, line, _) in down.items())


def _active(steps: dict, flavor: Flavor, n: int):
    """The pair rule, as step(j) of _flow: the step of a _lines table of
    n's parity at j if the flavor keeps both eta_a^k and 1_a^(k-1) between
    degrees n and n - 1, that is low < k <= high on its _POWERS interval,
    with k the table's raised by n // 2, and None or False otherwise.  So a
    kept eta_a^k is paired iff k - 1 >= low, a kept 1_a^j iff j + 1 <=
    high, and theta never; Hat and NonEquivariant, whose intervals hold
    one power, pair nothing."""
    low, high = _POWERS[flavor]
    return lambda j: (s := steps.get(j)) and low < s[3] + n // 2 <= high and s


def _flow(step, chain: dict[int, int]):
    """Cancel the chain's components on the paired positions by adding
    multiples of their partners' lines; returns the chain left and the
    multiple added of each partner.  step(j) is falsy off the paired
    positions and at a paired one (its rank in the order of cancelling, its
    partner, the partner's line, which is -1 there, its k).  Down a column
    of D the paired positions are 1-generators, ranked by decreasing
    grading, and a line is a partner's boundary; along a row of D they are
    etas, ranked by increasing grading, and a line is a partner's row.  A
    line meets other paired positions only through m-couplings, two
    gradings on in that order (_unit_triangular), so each is cancelled
    once, none comes back, and the chain left is zero on them.  A position
    earlier in the order is never queued again, so the flow ends on any
    input."""
    pending = {j: s for j in chain if (s := step(j))}
    added = {}
    while pending:
        j = min(pending, key=lambda j: pending[j][0])
        rank, partner, line, _ = pending.pop(j)
        if c := chain.get(j):
            added[partner] = c
            for r, w in line.items():
                if (s := step(r)) and s[0] > rank:
                    pending[r] = s
                chain[r] = chain.get(r, 0) + c * w
    return chain, added


def _reduce(data: MonopoleData, flavor: Flavor) -> dict[int, Reduction]:
    """The reduction of every band degree, not yet certified.

    With M the paired etas of degree n, U their partners, A = D[U, M],
    unit-triangular in grading order, and c the critical generators:
    D' = D[c, c] - D[c, M] A^-1 D[U, c], f = i_c - i_M A^-1 D[U, c] and
    g = p_c - D(n + 1)[c, M] A^-1 p_U.  A critical generator's column of
    D' and f is read off one _flow down its column of the parity template
    of D(n), and its row of g off one _flow along its row of the template
    of D(n + 1): the flows follow the templates' lines (_lines), with k
    shifted to the degree, step only at the pairs the flavor keeps there
    (_active), and drop what they leave outside its kept positions.  So a
    degree costs its critical generators and their flows, and selects no
    D.  Degree n reads only n's parity and the kept positions of degrees
    n - 2 to n + 1, so degrees that agree on these share one Reduction,
    built at the first of them: Infinity, which keeps every position,
    builds two."""
    lo, hi = _band(data)
    key = {n: (n % 2, *(_kept(data, flavor, m) for m in range(n - 2, n + 2)))
           for n in range(lo, hi + 1)}
    first = {k: n for n, k in reversed(key.items())}
    built = {}
    for k, n in first.items():
        kept, crit = _kept(data, flavor, n), _critical(data, flavor, n)
        below = {_kept(data, flavor, n - 1)[q]: c
                 for c, q in enumerate(_critical(data, flavor, n - 1))}
        columns, _, down, _ = _lines(data, n % 2)
        _, rows, _, along = _lines(data, 1 - n % 2)
        down, along = _active(down, flavor, n), _active(along, flavor, n + 1)
        d_red, f, g = [], [], []
        for c, q in enumerate(crit):
            rest, added = _flow(down, dict(columns.get(kept[q], {})))
            d_red += [(below[r], c, v) for r, v in rest.items() if r in below]
            f += [(q, c, 1), *((i - kept.start, c, v)
                               for i, v in added.items())]
            _, added = _flow(along, dict(rows.get(kept[q], {})))
            g += [(c, q, 1), *((c, j - kept.start, v)
                               for j, v in added.items())]
        built[k] = Reduction(
            SparseIntMatrix.from_entries(len(below), len(crit), d_red),
            SparseIntMatrix.from_entries(len(kept), len(crit), f),
            SparseIntMatrix.from_entries(len(crit), len(kept), g), crit)
    return {n: built[k] for n, k in key.items()}


def _on_template(lines: dict, mat: SparseIntMatrix, source: range,
                 target: range, left: bool = False) -> SparseIntMatrix:
    """T E at the positions of the range target, where T is the parity
    template whose line at position r is lines[r] and E is mat with its
    rows moved to the positions of the range source; with left, E T, with
    mat's columns moved and T's lines its rows.  A flavor's D(n) f is T E
    with the columns of D(n)'s template, source _kept(n) and target
    _kept(n - 1), and exactly so, since f's rows are kept; g D is E T with
    the rows.  O(entries of mat times their lines)."""
    if (mat.cols if left else mat.rows) != len(source):
        raise ValueError("shape mismatch in matrix product")
    items = [(r - target.start, c, v * w) for (i, c, v) in (
        ((j, c, v) for (c, j, v) in mat.entries) if left else mat.entries)
        for r, w in lines.get(source[i], {}).items() if r in target]
    return SparseIntMatrix.from_entries(
        mat.rows, len(target), ((c, t, v) for (t, c, v) in items)) if left \
        else SparseIntMatrix.from_entries(len(target), mat.cols, items)


def _certify(data: MonopoleData, flavor: Flavor,
             table: dict[int, Reduction]) -> None:
    """Prove that table, read as _reduced reads it, reduces the flavor's
    complex, with exact sparse products and no memo of its own.

    With M, U, A and c as in _reduce, at each degree n:
    - A is -1 on the pairs and unit-triangular (_unit_triangular);
    - critical lists the kept positions that no pair uses (_critical);
    - f[c] = 1 and f[U] = 0, g[., c] = 1 and g[., M] = 0, where M and U
      are read off the rule (_active), not off a pass over the slice;
    - D f = f D', g D = D' g and g f = 1, where D f and g D are formed on
      the parity template's lines with f and g at their Infinity positions
      (_on_template), so no D is selected.
    Given the rest, D f = f D' has f[M] = -A^-1 D[U, c] and D' = (D f)[c]
    as its only solution, and g D = D' g has g[., U] = -D[c, M] A^-1: so
    D', f and g are the Morse data of an acyclic matching.  The algebraic
    Morse theorem (Skoldberg, Trans. AMS 358 (2006); Kozlov, C. R. Acad.
    Sci. Paris 340 (2005)) then gives a homotopy from f g to 1: a theorem
    replaces the product check of the homotopy identity, and no homotopy
    is built.  Degree n reads n's parity, the kept positions of
    n - 1 to n + 1 and the reductions at n - 1 and n; it is checked from
    lo - 1 to hi + 1 when these are new by content.  They repeat with
    period two beyond, so this proves every degree.  Raises CheckFailed at
    the first degree where a check fails."""
    lo, hi = _band(data)
    seen = set()
    for n in range(lo - 1, hi + 2):
        kept = tuple(_kept(data, flavor, m) for m in (n - 1, n, n + 1))
        below, here = (table[_band_degree(data, m)] for m in (n - 1, n))
        if (reads := (n % 2, kept, below, here)) in seen:
            continue
        seen.add(reads)
        (under, over, _), crit = kept, _critical(data, flavor, n)
        columns, rows, _, along = _lines(data, n % 2)
        # each kept position is critical, in M or in U: off M, f is 1 on
        # the critical ones and 0 elsewhere, and so is g off U
        tops = _active(along, flavor, n)
        bottoms = _active(_lines(data, 1 - n % 2)[2], flavor, n + 1)
        units = {(p, c, 1) for c, p in enumerate(crit)}
        checks = (
            ("a unit-triangular matching",
             lambda: _unit_triangular(data, n % 2)),
            ("critical = the unpaired positions",
             lambda: here.critical == crit),
            ("f[c] = 1, f[U] = 0", lambda: {
                (i, c, v) for (i, c, v) in here.f.entries
                if not tops(over[i])} == units),
            ("g[., c] = 1, g[., M] = 0", lambda: {
                (j, c, v) for (c, j, v) in here.g.entries
                if not bottoms(over[j])} == units),
            ("D f = f D'", lambda: _on_template(columns, here.f, over, under)
             == below.f.mul(here.differential)),
            ("g D = D' g", lambda: _on_template(rows, below.g, under, over,
                                                left=True)
             == here.differential.mul(here.g)),
            ("g f = 1", lambda: _sums_to_identity(here.g.mul(here.f))),
        )
        for name, holds in checks:
            try:
                ok = holds()
            except (IndexError, ValueError):  # shapes that do not fit
                ok = False
            if not ok:
                raise CheckFailed(n, f"the reduction fails {name}")


def _sums_to_identity(mat: SparseIntMatrix) -> bool:
    return mat == SparseIntMatrix.identity(mat.rows)


@per_dataset
def _reduction(data: MonopoleData, flavor: Flavor) -> dict[int, Reduction]:
    """The certified reduction of a flavor in REDUCED_FLAVORS: one memo
    entry holding every band degree, behind checked_window's hold on the
    band.  Certified before it is stored, it is never read uncertified."""
    checked_window(data, None)
    table = _reduce(data, flavor)
    _certify(data, flavor, table)
    return table


@per_band_degree
def _reduced(data: MonopoleData, flavor: Flavor, n: int) -> Reduction:
    """The certified reduction in degree n, a band degree: the table holds
    band degrees only.  A failed certificate raises before per_band_degree
    stores anything, so nothing is read uncertified."""
    return _reduction(data, flavor)[n]


def _reduced_differential(data: MonopoleData, flavor: Flavor,
                          n: int) -> SparseIntMatrix:
    """D'(n) of the certified reduction; D(n) itself for a flavor without
    pairs, which is its own reduction."""
    if flavor in REDUCED_FLAVORS:
        return _reduced(data, flavor, n).differential
    return _differential(data, flavor, n)


@per_dataset
def _product(data, a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    # memoised by content: a degree outside the band costs no product
    return a.mul(b)


def _carried(data, chain: SparseIntMatrix, source: Flavor, n: int,
             target: Flavor, m: int) -> SparseIntMatrix:
    """A chain map from source in degree n to target in degree m, carried
    to the reductions as g_target(m) . chain . f_source(n); a flavor
    without pairs is its own reduction."""
    if target in REDUCED_FLAVORS:
        chain = _product(data, _reduced(data, target, m).g, chain)
    if source in REDUCED_FLAVORS:
        chain = _product(data, chain, _reduced(data, source, n).f)
    return chain


def _same(data: MonopoleData, gen: Generator):
    yield gen, 1


def _identification(data: MonopoleData, source: Flavor, target: Flavor,
                    n: int, shift_k: int = 0) -> SparseIntMatrix:
    """Each source generator of degree n to the target generator of the same
    kind and point with k raised by shift_k (degree n + 2 shift_k), or to
    zero where the target flavor truncates it: the cut of the identity
    rule _same."""
    return _rule_matrix(data, _same, 0, source, n, target, 2 * shift_k)


# which: (source flavor, target flavor, the flavor the map lives in)
_STRUCTURAL = {
    "inclusion_minus": (Flavor.MINUS, Flavor.INFINITY, Flavor.INFINITY),
    "projection_plus": (Flavor.INFINITY, Flavor.PLUS, Flavor.INFINITY),
    "inclusion_hat": (Flavor.HAT, Flavor.PLUS, Flavor.PLUS),
}


def structural_map(data: MonopoleData, which: str, flavor: Flavor,
                   n: int) -> SparseIntMatrix:
    """One of the canonical comparison maps, in degree n.

    inclusion_minus embeds the Minus slice into Infinity (flavor must be
    Infinity); projection_plus maps Infinity onto Plus; inclusion_hat embeds
    Hat into Plus; omega_inverse lowers k by one within the given flavor,
    mapping degree n to degree n - 2 and dropping truncated targets.
    """
    checked_degree(data, n, flavor)
    if which == "omega_inverse":
        if flavor is Flavor.NONEQUIVARIANT:
            raise InvalidInput(
                "omega_inverse undefined for the non-equivariant flavor")
        return _identification(data, flavor, flavor, n, shift_k=-1)
    if which not in _STRUCTURAL:
        raise InvalidInput(f"unknown structural map: {which}")
    source, target, ambient = _STRUCTURAL[which]
    if flavor is not ambient:
        raise InvalidInput(
            f"{which} lives in the {ambient.value.capitalize()} flavor")
    return _identification(data, source, target, n)


def default_window(data: MonopoleData) -> tuple[int, int]:
    """Degree interval covering all interesting homology plus the onset of
    the periodic tails: the band of _band, widened by 1 below and 2
    above."""
    lo, hi = _band(data)
    return lo - 1, hi + 2


MAX_WINDOW_DEGREES = 2001


def _window_bounds(window: tuple[int, int]) -> tuple[int, int]:
    # the window half of checked_window, which check_d_squared applies
    # alone; type, not isinstance, since a bool is an int
    if not (isinstance(window, (tuple, list)) and len(window) == 2
            and type(window[0]) is int and type(window[1]) is int):
        raise InvalidInput(f"degree window {window!r} is not a pair of "
                           f"integers")
    lo, hi = window
    if lo > hi:
        raise InvalidInput(f"degree window {lo}:{hi} is empty")
    if hi - lo + 1 > MAX_WINDOW_DEGREES:
        raise InvalidInput(f"degree window {lo}:{hi} spans more than "
                           f"{MAX_WINDOW_DEGREES} degrees")
    return lo, hi


def _degree_types(n, flavor) -> None:
    # the type half of checked_degree, which check_d_squared applies alone;
    # type, not isinstance, as in _window_bounds
    if type(n) is not int or type(flavor) is not Flavor:
        raise InvalidInput(f"a degree must be an int and a flavor a Flavor, "
                           f"not {n!r} and {flavor!r}")


def checked_degree(data: MonopoleData, n: int, flavor=Flavor.INFINITY):
    """The input contract of every per-degree entry point: the data must
    be valid, the degree an int that is not a bool and the flavor, where
    the entry point takes one, a Flavor; raises InvalidInput.  A windowed
    entry point holds its flavors to the types at its window's first
    degree, through checked_window.  The per_dataset and per_band_degree
    memos, the hot path, apply none of it."""
    _degree_types(n, flavor)
    require_valid(data)


def checked_window(data: MonopoleData, window: tuple[int, int] | None,
                   *flavors) -> tuple[int, int]:
    """The input contract of every windowed computation: the data must be
    valid, default_window(data), which covers the band it reads, and the
    window, which defaults to it, must be non-empty and at most
    MAX_WINDOW_DEGREES wide, and each of the entry point's flavors must be
    a Flavor, held to checked_degree's types at the window's first degree.
    Returns (lo, hi); raises InvalidInput."""
    require_valid(data)
    lo, hi = default_window(data)
    if hi - lo + 1 > MAX_WINDOW_DEGREES:
        raise InvalidInput(f"the dataset's gradings span its default window "
                           f"{lo}:{hi}, more than {MAX_WINDOW_DEGREES} degrees")
    lo, hi = _window_bounds((lo, hi) if window is None else window)
    for flavor in flavors:
        _degree_types(lo, flavor)
    return lo, hi
