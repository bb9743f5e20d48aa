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
and quotient structure of the five variants at the matrix level.

Minus, Infinity and Plus also carry a certified reduction: cancelling every
pair eta_a^k -> 1_a^(k-1), whose entry is -1, leaves a homotopy equivalent
complex on the unpaired generators, which are theta and, in Plus and Minus,
the generators at the flavor's k edge (eta_a^0 and 1_a^(-1)).
"""

from __future__ import annotations

import enum
import functools
import math
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
    grading = data.grading_of(gen.point)
    if gen.kind == KIND_ETA:
        return 2 * gen.k + grading
    return 2 * gen.k + grading + 1


def _infinity_cells(data: MonopoleData, n: int):
    """(kind, point id, k) of each Infinity generator of degree n, in the
    order of generators_in_degree."""
    if n % 2 == 0:
        yield KIND_THETA, None, n // 2
    for p in data.points:
        gap = n - p.grading
        if gap % 2 == 0:
            yield KIND_ETA, p.id, gap // 2
        else:
            yield KIND_ONE, p.id, (gap - 1) // 2


def _slice(data: MonopoleData, flavor: Flavor, n: int) -> DegreeSlice:
    cells = tuple(_infinity_cells(data, n))
    return DegreeSlice(n, tuple(
        Generator(*cells[i]) for i in _kept(data, flavor, n)))


def generators_in_degree(data: MonopoleData, flavor: Flavor,
                         n: int) -> DegreeSlice:
    """The canonical degree-n basis: theta generator first, then one
    generator per point in id order (the parity of n - gr picks the kind)."""
    require_valid(data)
    return _slice(data, flavor, n)


def _image_terms(data: MonopoleData, gen: Generator):
    # the untruncated differential; flavor restriction happens at lookup
    out: list[tuple[Generator, int]] = []
    if gen.kind == KIND_ETA:
        grading = data.grading_of(gen.point)
        for b in data.ids_at(grading - 1):
            v = data.n_value(gen.point, b)
            if v:
                out.append((Generator(KIND_ETA, b, gen.k), v))
        for c in data.ids_at(grading - 2):
            v = data.m_value(gen.point, c)
            if v:
                out.append((Generator(KIND_ONE, c, gen.k), v))
        out.append((Generator(KIND_ONE, gen.point, gen.k - 1), -1))
        if grading == 1:
            v = data.n_value(gen.point, THETA)
            if v:
                out.append((Generator(KIND_THETA, None, gen.k), v))
    elif gen.kind == KIND_ONE:
        grading = data.grading_of(gen.point)
        for b in data.ids_at(grading - 1):
            v = data.n_value(gen.point, b)
            if v:
                out.append((Generator(KIND_ONE, b, gen.k), -v))
    else:
        for d in data.ids_at(-2):
            v = data.n_value(THETA, d)
            if v:
                out.append((Generator(KIND_ONE, d, gen.k), v))
    return out


def _slice_map(rows: DegreeSlice, cols: DegreeSlice,
               terms) -> SparseIntMatrix:
    """The matrix of a rule on generators from the cols slice to the rows
    slice.  terms(gen) yields (target, coefficient) pairs; targets outside
    the rows slice are dropped."""
    index = {g: i for i, g in enumerate(rows.basis)}
    items = []
    for j, gen in enumerate(cols.basis):
        for (target, value) in terms(gen):
            i = index.get(target)
            if i is not None:
                items.append((i, j, value))
    return SparseIntMatrix.from_entries(len(rows.basis), len(cols.basis), items)


@per_dataset
def _band(data: MonopoleData) -> tuple[int, int]:
    """The degrees whose differentials and presentations are built.

    D(n) reads the Infinity template of n's parity at _kept(n - 1) and
    _kept(n).  Raising every k by one maps slice n onto slice n + 2, so
    _kept(n + 2) == _kept(n) unless slice n holds a generator whose k or
    k + 1, but not both, lies in the flavor's _POWERS interval (k = -1 for
    Minus and Plus, k in {-1, 0} for Hat and NonEquivariant); with g the
    gradings plus 0, that cannot happen for n >= max(g) + 2 or
    n <= min(g) - 3.  So D(n + 2) == D(n) for
    n >= max(g) + 3 or n <= min(g) - 3, and a presentation, which reads
    D(n) and D(n + 1), repeats outside [min(g) - 3, max(g) + 4].  Validity
    of the data plays no part."""
    gradings = [p.grading for p in data.points] + [0]
    return min(gradings) - 3, max(gradings) + 4


def _band_degree(data: MonopoleData, n: int) -> int:
    """n inside the band; outside it, the band-edge degree of n's parity,
    whose kept positions, differential and presentation are n's."""
    lo, hi = _band(data)
    if n < lo:
        return lo + (n - lo) % 2
    if n > hi:
        return hi - (n - hi) % 2
    return n


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
def _kept(data: MonopoleData, flavor: Flavor, n: int) -> tuple[int, ...]:
    """The ascending positions of the Infinity basis of degree n whose k
    lies in the flavor's _POWERS interval, read off the gradings: a point's
    generator in degree n has k = (n - gr) // 2, an eta when n - gr is
    even, and theta k = n / 2.  NonEquivariant keeps only the etas, so not
    theta.  So each flavor keeps, in every degree, the positions whose k
    lies in one interval, and NonEquivariant its etas there."""
    low, high = _POWERS[flavor]
    etas = flavor is Flavor.NONEQUIVARIANT
    lead = 1 - n % 2  # theta leads the even slice
    theta = lead and not etas and low <= n // 2 <= high
    return (0,) * theta + tuple(
        i for i, p in enumerate(data.points, lead)
        if low <= (n - p.grading) // 2 <= high
        and not (etas and (n - p.grading) % 2))


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
    them: degrees keeping the same positions share a matrix."""
    return template(data, *key).select(rows, cols)


def _rule_matrix(data: MonopoleData, rule, drop: int, flavor: Flavor,
                 n: int) -> SparseIntMatrix:
    """The matrix of rule from degree n to degree n - drop.  A rule reads k
    only to shift it, and raising every k by one maps Infinity slice n onto
    slice n + 2 in order; so the Infinity matrix depends only on n's
    parity, and a flavor's is its submatrix on the kept positions.  Where
    _restricts holds, a product of such submatrices is the submatrix of
    the templates' product."""
    return _selection(data, _template, (rule, drop, n % 2),
                      _kept(data, flavor, n - drop), _kept(data, flavor, n))


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
        rows = tuple(_infinity_cells(data, parity - drop))
        cols = tuple(_infinity_cells(data, parity))
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
    require_valid(data)
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
    is held to the bounds of checked_window.
    """
    lo, hi = _window_bounds(default_window(data) if window is None
                            else window)
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

    The critical generators c_n are the kept ones that no pair uses.
    differential is D'(n): c_n -> c_{n-1}; f(n): c_n -> C_n and g(n): C_n
    -> c_n are chain maps with g f = 1, and f g is homotopic to 1 by the
    algebraic Morse theorem (_certify), so f and g are mutually inverse on
    homology.  critical lists, ascending, the positions in the kept slice
    of degree n of the generators in c_n.
    """

    differential: SparseIntMatrix
    f: SparseIntMatrix
    g: SparseIntMatrix
    critical: tuple[int, ...]


def _pairs(data: MonopoleData, flavor: Flavor, n: int):
    """The pairs from degree n to n - 1: (i, j, grading of a) for each
    point a whose generator in degree n is an eta, eta_a^k, and whose
    positions are kept in degrees n and n - 1 (its generator there is
    eta_a^k's partner 1_a^(k-1)); i and j are those positions in the two
    kept slices.  Hat and NonEquivariant keep one power each, so they have
    no pairs."""
    above, below = ({p: i for i, p in enumerate(_kept(data, flavor, m))}
                    for m in (n, n - 1))
    # theta leads the even slice, so a point sits one place later there
    top, bottom = 1 - n % 2, n % 2
    return [(above[i + top], below[i + bottom], p.grading)
            for i, p in enumerate(data.points) if (n - p.grading) % 2 == 0
            and i + top in above and i + bottom in below]


@per_band_degree
def _matching(data: MonopoleData, flavor: Flavor, n: int):
    """The pairs down from degree n and down from n + 1 (_pairs), and the
    critical positions of degree n: the kept ones that neither uses."""
    down, up = _pairs(data, flavor, n), _pairs(data, flavor, n + 1)
    paired = {i for i, _, _ in down} | {j for _, j, _ in up}
    return down, up, tuple(p for p in range(len(_kept(data, flavor, n)))
                           if p not in paired)


@per_dataset
def _unit_triangular(data: MonopoleData, parity: int) -> bool:
    """The matching check on the Infinity template of D from degrees of
    this parity: from each eta_a^k, the entry at its partner 1_a^(k-1) is
    -1 and every other entry at a one falls to a lower grading.  So
    A = D[U, M] is -1 on the pairs and unit-triangular in grading order.
    A flavor's D is the template at its kept positions and its pairs are
    the template's there (_pairs), so its A is the template's on matched
    rows and columns, and unit-triangular too.  O(template entries)."""
    rows = tuple(_infinity_cells(data, parity - 1))
    cols = tuple(_infinity_cells(data, parity))
    template = _template(data, _image_terms, 1, parity)
    level = {p.id: p.grading for p in data.points}
    suspect = [(rows[i][1] == cols[j][1], v) for (i, j, v) in template.entries
               if rows[i][0] == KIND_ONE and cols[j][0] == KIND_ETA
               and level[rows[i][1]] >= level[cols[j][1]]]
    return suspect == [(True, -1)] * sum(c[0] == KIND_ETA for c in cols)


def _flow(steps, chain: dict[int, int]):
    """Cancel the chain's components on the paired positions steps names
    by adding multiples of their partners' lines; returns the chain left
    and the multiple added of each partner.  steps maps a paired position
    to (its rank in the order of cancelling, its partner, the partner's
    line, which is -1 there).  Down a column of D the paired positions are
    1-generators, ranked by decreasing grading, and a line is a partner's
    boundary; along a row of D they are etas, ranked by increasing
    grading, and a line is a partner's row.  A line meets other paired
    positions only through m-couplings, two gradings on in that order
    (_unit_triangular), so each is cancelled once, none comes back, and
    the chain left has none.  A position earlier in the order is never
    queued again, so the flow ends on any input."""
    pending = {j for j in chain if j in steps}
    added = {}
    while pending:
        j = min(pending, key=lambda j: steps[j][0])
        pending.remove(j)
        c = chain.pop(j, 0)
        if c:
            rank, partner, line = steps[j]
            added[partner] = c
            for r, w in line.items():
                if r != j:
                    if r in steps and steps[r][0] > rank:
                        pending.add(r)
                    chain[r] = chain.get(r, 0) + c * w
    return chain, added


def _lines(triples) -> dict[int, dict[int, int]]:
    """{a: {b: v}} from (a, b, v) triples: a matrix's rows from its
    entries, its columns from them transposed."""
    out: dict[int, dict[int, int]] = {}
    for (a, b, v) in triples:
        out.setdefault(a, {})[b] = v
    return out


def _reduce(data: MonopoleData, flavor: Flavor) -> dict[int, Reduction]:
    """The reduction of every band degree, not yet certified.

    With M the paired etas of degree n, U their partners, A = D[U, M],
    unit-triangular in grading order, and c the critical generators:
    D' = D[c, c] - D[c, M] A^-1 D[U, c], f = i_c - i_M A^-1 D[U, c] and
    g = p_c - D(n + 1)[c, M] A^-1 p_U.  A critical generator's column of
    D' and f is read off one _flow down its column of D(n), and its row of
    g off one _flow along its row of D(n + 1); each adds -A^-1 of what it
    cancels.  Degree n reads only n's parity and the kept positions of
    degrees n - 2 to n + 1, so degrees that agree on these share one
    Reduction, built at the first of them from the pairs of degrees n - 1
    to n + 1 alone: Infinity, which keeps every position, builds two."""
    lo, hi = _band(data)
    key = {n: (n % 2, *(_kept(data, flavor, m) for m in range(n - 2, n + 2)))
           for n in range(lo, hi + 1)}
    first = {k: n for n, k in reversed(key.items())}
    built = {}
    for k, n in first.items():
        d = _differential(data, flavor, n)
        down_pairs, up_pairs, crit = _matching(data, flavor, n)
        below = {p: c for c, p in enumerate(_matching(data, flavor, n - 1)[2])}
        columns = _lines((j, i, v) for (i, j, v) in d.entries)
        rows = _lines(_differential(data, flavor, n + 1).entries)
        down = {j: (-grading, i, columns[i]) for i, j, grading in down_pairs}
        along = {i: (grading, j, rows[j]) for i, j, grading in up_pairs}
        d_red, f, g = [], [], []
        for c, p in enumerate(crit):
            rest, added = _flow(down, dict(columns.get(p, {})))
            d_red += [(below[r], c, v) for r, v in rest.items() if r in below]
            f += [(p, c, 1), *((i, c, v) for i, v in added.items())]
            _, added = _flow(along, dict(rows.get(p, {})))
            g += [(c, p, 1), *((c, j, v) for j, v in added.items())]
        built[k] = Reduction(
            SparseIntMatrix.from_entries(len(below), len(crit), d_red),
            SparseIntMatrix.from_entries(d.cols, len(crit), f),
            SparseIntMatrix.from_entries(len(crit), d.cols, g), crit)
    return {n: built[k] for n, k in key.items()}


def _certify(data: MonopoleData, flavor: Flavor,
             table: dict[int, Reduction]) -> None:
    """Prove that table, read as _reduced reads it, reduces the flavor's
    complex, with exact sparse products and no memo of its own.

    With M, U, A and c as in _reduce, at each degree n:
    - A is -1 on the pairs and unit-triangular (_unit_triangular);
    - critical lists the kept positions that no pair uses;
    - f[c] = 1 and f[U] = 0, g[., c] = 1 and g[., M] = 0;
    - D f = f D', g D = D' g and g f = 1.
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
        reads = n % 2, kept, below, here
        if reads in seen:
            continue
        seen.add(reads)
        d = _differential(data, flavor, n)
        down, up, crit = _matching(data, flavor, n)
        # each kept position is critical, in M or in U: off M, f is 1 on
        # the critical ones and 0 elsewhere, and so is g off U
        tops, bottoms = {i for i, _, _ in down}, {j for _, j, _ in up}
        units = {(p, c, 1) for c, p in enumerate(crit)}
        checks = (
            ("a unit-triangular matching",
             lambda: _unit_triangular(data, n % 2)),
            ("critical = the unpaired positions",
             lambda: here.critical == crit),
            ("f[c] = 1, f[U] = 0", lambda: {
                (i, c, v) for (i, c, v) in here.f.entries
                if i not in tops} == units),
            ("g[., c] = 1, g[., M] = 0", lambda: {
                (j, c, v) for (c, j, v) in here.g.entries
                if j not in bottoms} == units),
            ("D f = f D'", lambda: d.mul(here.f) == below.f.mul(
                here.differential)),
            ("g D = D' g", lambda: below.g.mul(d) == here.differential.mul(
                here.g)),
            ("g f = 1", lambda: _sums_to_identity(here.g.mul(here.f))),
        )
        for name, holds in checks:
            try:
                ok = holds()
            except ValueError:  # shapes that do not compose
                ok = False
            if not ok:
                raise CheckFailed(n, f"the reduction fails {name}")


def _sums_to_identity(*terms: SparseIntMatrix) -> bool:
    size = terms[0].rows
    if any((t.rows, t.cols) != (size, size) for t in terms):
        return False
    total: dict[tuple[int, int], int] = {}
    for term in terms:
        for (i, j, v) in term.entries:
            total[i, j] = total.get((i, j), 0) + v
    return {k: v for k, v in total.items() if v} == {
        (i, i): 1 for i in range(size)}


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
    zero where the target flavor truncates it: the identity template at
    both sides' kept positions, since raising k keeps a generator's
    Infinity position."""
    return _selection(data, _template, (_same, 0, n % 2),
                      _kept(data, target, n + 2 * shift_k),
                      _kept(data, source, n))


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
    require_valid(data)
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


def checked_window(data: MonopoleData,
                   window: tuple[int, int] | None) -> tuple[int, int]:
    """The input contract of every windowed computation: the data must be
    valid, and default_window(data), which covers the band it reads, and
    the window, which defaults to it, must be non-empty and at most
    MAX_WINDOW_DEGREES wide.  Returns (lo, hi); raises InvalidInput."""
    require_valid(data)
    lo, hi = default_window(data)
    if hi - lo + 1 > MAX_WINDOW_DEGREES:
        raise InvalidInput(f"the dataset's gradings span its default window "
                           f"{lo}:{hi}, more than {MAX_WINDOW_DEGREES} degrees")
    return _window_bounds((lo, hi) if window is None else window)
