"""Orientation-reversal duality.

The degree-n part of the plus complex pairs perfectly with the degree-(-2-n)
part of the minus complex of the reversed dataset, and the pairing is adjoint
for both the differential and the periodicity action.  Transposing the
differentials gives cohomology, and the pairing turns the cohomology of one
orientation into the homology of the other, degree by degree.  Both sides
of that comparison are read off the certified reductions of
complexes._reduced, each on its own dataset; the pairings, which bridge the
two, are proved once per parity on the Infinity templates (_pairing_proved).
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Flavor,
    _differential,
    _image_terms,
    _infinity_cells,
    _kept,
    _layout,
    _reduced_differential,
    _selection,
    _slice,
    _template,
    checked_degree,
    checked_window,
    generator_degree,
    per_band_degree,
    structural_map,
)
from .data import CheckFailed, MonopoleData, _toggle_id, per_dataset, \
    reverse_orientation
from .homology import GradedAbelianGroup, _kernel, _quotient, \
    presentation_at
from .intlinalg import AbelianGroupInvariants, SparseIntMatrix

__all__ = [
    "PairingSlice",
    "DualityReport",
    "pairing_matrix",
    "hat_pairing_matrix",
    "verify_adjointness",
    "cohomology",
    "duality_check",
]


@dataclass(frozen=True)
class PairingSlice:
    """Pairing of one degree against its partner degree on the reverse."""

    degree: int
    matrix: SparseIntMatrix


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the full duality verification over a window."""

    window: tuple[int, int]
    plus_vs_minus: dict[int, AbelianGroupInvariants]
    minus_vs_plus: dict[int, AbelianGroupInvariants]
    hat_vs_hat: dict[int, AbelianGroupInvariants]
    adjoint: bool
    pairings_perfect: bool
    double_reversal: bool
    ok: bool


@per_dataset
def _pairing_template(data: MonopoleData, rev: MonopoleData,
                      parity: int) -> SparseIntMatrix:
    """The partner permutation on Infinity positions of one parity, matched
    through both datasets' layouts: theta to theta, its None to None, and
    point p to _toggle_id(p).  Partners swap eta and 1 and send k to -k - 1
    (degree -2 - n), or keep k on Hat (-n)."""
    ours, theirs = _layout(data, parity), _layout(rev, parity)
    position = {b: j for j, (_, b, _, _) in enumerate(theirs)}
    items = [(i, position[b], 1) for i, (_, a, _, _) in enumerate(ours)
             if (b := None if a is None else _toggle_id(a)) in position]
    return SparseIntMatrix.from_entries(len(ours), len(theirs), items)


def _partner_kept(data: MonopoleData, rev: MonopoleData, n: int,
                  hat: bool) -> tuple:
    # each kept generator's partner is kept (_pairing_proved)
    return ((_kept(data, Flavor.HAT, n), _kept(rev, Flavor.HAT, -n)) if hat
            else (_kept(data, Flavor.PLUS, n), _kept(rev, Flavor.MINUS, -2 - n)))


def _pairing_with(data: MonopoleData, rev: MonopoleData, n: int,
                  hat: bool = False) -> SparseIntMatrix:
    return _selection(data, _pairing_template, (rev, n % 2),
                      *_partner_kept(data, rev, n, hat))


@per_dataset
def _pairing_proved(data: MonopoleData, rev: MonopoleData) -> bool:
    """Per parity p, the lemma: _pairing_template(p) is a permutation of
    ones pairing power k in degree p with power -k - 1 in degree -2 - p
    (theta with theta, a point with its toggled partner, of grading
    -gr - 1).  Two degrees up both powers move by one, oppositely, so it
    maps Plus's kept positions (k >= 0) of every degree n onto the
    reverse's Minus positions of degree -2 - n, and Hat's (k = 0) onto the
    reverse's Hat positions of degree -n: every slice is a perfect
    bijection of kept sets.  And the identity transpose(D(p)) . P(1 - p)
    == P(p) . D_rev(1 - p) on the Infinity templates."""
    for p in (0, 1):
        pairing = _pairing_template(data, rev, p)
        ours, theirs = _infinity_cells(data, p), _infinity_cells(rev, -2 - p)
        if not (_is_perfect(pairing) and all(
                theirs[j][2] == -1 - ours[i][2] for i, j, _ in pairing.entries)
                and _template(data, _image_terms, 1, p).transpose().mul(
                    _pairing_template(data, rev, 1 - p)) == pairing.mul(
                    _template(rev, _image_terms, 1, 1 - p))):
            return False
    return True


def pairing_matrix(data: MonopoleData, n: int) -> PairingSlice:
    """Pair the degree-n plus basis with the reverse's degree-(-2-n) minus
    basis.

    Rows are plus generators, columns are minus generators of the reversed
    dataset; the entry is 1 exactly when the column is the partner of the
    row (eta and one-generators swap kinds and k maps to -k-1, the theta
    one-generators pair with each other the same way).
    """
    checked_degree(data, n)
    rev = reverse_orientation(data)
    mat = _pairing_with(data, rev, n)
    rows = _slice(data, Flavor.PLUS, n).basis
    cols = _slice(rev, Flavor.MINUS, -2 - n).basis
    for (i, j, _) in mat.entries:
        if generator_degree(data, rows[i]) + generator_degree(
                rev, cols[j]) != -2:
            raise CheckFailed(
                n, "paired generators do not have degrees summing to -2")
    return PairingSlice(n, mat)


def hat_pairing_matrix(data: MonopoleData, n: int) -> PairingSlice:
    """Pair the degree-n hat basis with the reverse's degree-(-n) hat basis.

    Both sides live at k = 0, so partners keep k and the paired degrees sum
    to zero instead of -2.
    """
    checked_degree(data, n)
    rev = reverse_orientation(data)
    return PairingSlice(n, _pairing_with(data, rev, n, hat=True))


def _is_perfect(mat: SparseIntMatrix) -> bool:
    if mat.rows != mat.cols or len(mat.entries) != mat.rows:
        return False
    rows = {i for (i, _, _) in mat.entries}
    cols = {j for (_, j, _) in mat.entries}
    return len(rows) == mat.rows and len(cols) == mat.rows and all(
        v == 1 for (_, _, v) in mat.entries)


def verify_adjointness(data: MonopoleData, window: tuple[int, int]) -> bool:
    """Check that the pairing is adjoint for D and the periodicity action.

    For every degree n of the window these are exact matrix identities
    against the reversed dataset:

      * transpose(D_n on plus) composed with the degree-(n-1) pairing equals
        the degree-n pairing composed with D at degree -1-n on minus;
      * the same with the degree-lowering periodicity action on both sides
        (pairing degrees n and n-2 against -n and -2-n);
      * the hat analogue of the first identity, pairing degree n against -n.

    _pairing_proved proves all three wherever the pairing slices are the
    selections it covers: a product of selections is the templates'
    product selected, less the paths through an unkept middle, and a
    bijection of kept sets leaves none.  Hat reads the same templates, and
    omega_inverse, an identity at kept positions, leaves each side the
    pairing selected.  Any other degree forms its products.
    """
    lo, hi = checked_window(data, window)
    return _complex_level(data, reverse_orientation(data), lo, hi)[1]


def _complex_level(data: MonopoleData, rev: MonopoleData, lo: int,
                   hi: int) -> tuple[bool, bool]:
    """Whether the window's pairing slices are perfect and adjoint, each
    read once and checked only if not a selection _pairing_proved covers;
    a degree's identities are tested only if it reads such a slice."""
    proved = _pairing_proved(data, rev)
    slices = {(n, hat): _pairing_with(data, rev, n, hat)
              for hat in (False, True) for n in range(lo - 2 + hat, hi + 1)}
    unproved = {key for key, mat in slices.items() if not proved or mat
                is not _selection(data, _pairing_template, (rev, key[0] % 2),
                                  *_partner_kept(data, rev, *key))}
    perfect = all(_is_perfect(slices[key]) for key in unproved
                  if key[0] >= lo)
    # degree n reads Plus's slices at n - 2 to n and Hat's at n - 1 and n
    reading = {m + d for m, hat in unproved for d in range(3 - hat)}
    for n in range(lo, hi + 1):
        if n not in reading:
            continue
        # each identity as (f, P, Q, g) with transpose(f) . P == Q . g
        if not all(f.transpose().mul(p) == q.mul(g) for f, p, q, g in (
                (_differential(data, Flavor.PLUS, n), slices[n - 1, False],
                 slices[n, False], _differential(rev, Flavor.MINUS, -1 - n)),
                (structural_map(data, "omega_inverse", Flavor.PLUS, n),
                 slices[n - 2, False], slices[n, False],
                 structural_map(rev, "omega_inverse", Flavor.MINUS, -n)),
                (_differential(data, Flavor.HAT, n), slices[n - 1, True],
                 slices[n, True], _differential(rev, Flavor.HAT, 1 - n)))):
            return perfect, False
    return perfect, True


def _dual(mat: SparseIntMatrix) -> SparseIntMatrix:
    """The transpose of mat with its rows and columns listed in reverse.
    The basis is in grading order, and reversal sends a grading gr to
    -gr - 1, so the reversed dual basis is in the grading order of the
    partners: the coboundary reads like a boundary of the same complexes,
    and one equal by content to a differential shares its _kernel memo
    entry.  Reordering a basis changes no group."""
    return SparseIntMatrix.from_entries(mat.cols, mat.rows, (
        (mat.cols - 1 - j, mat.rows - 1 - i, v) for (i, j, v) in mat.entries))


@per_band_degree
def _cohomology_at(data: MonopoleData, flavor: Flavor,
                   n: int) -> AbelianGroupInvariants:
    """Degree-n cohomology: the kernel of transpose(D at n + 1), since the
    transposed differential raises degree by one, modulo the image of
    transpose(D at n), read on the certified reduction.  Its identities
    D f = f D', g D = D' g and g f = 1 transpose, and so does the Morse
    theorem that replaces a homotopy check (complexes._certify): the
    transposed matching is unit-triangular too.  So (g^T, f^T) is a
    reduction of the cochain complex, and D' gives the same groups; Hat
    and NonEquivariant have no pairs, and _reduced_differential returns
    their own D.  Each transpose is read with its bases reversed
    (_dual)."""
    delta_out = _dual(_reduced_differential(data, flavor, n + 1))
    delta_in = _dual(_reduced_differential(data, flavor, n))
    return _quotient(data, _kernel(data, delta_out), delta_in).invariants


def cohomology(data: MonopoleData, flavor: Flavor,
               window: tuple[int, int] | None = None) -> GradedAbelianGroup:
    """Cohomology of one flavor over a degree window.

    A dual generator keeps the degree of its primal generator, so the
    transposed differential raises degree by one.  No tail claims are made;
    the report carries the windowed groups only.
    """
    lo, hi = checked_window(data, window, flavor)
    groups = {n: _cohomology_at(data, flavor, n) for n in range(lo, hi + 1)}
    return GradedAbelianGroup((lo, hi), groups, None, None)


def duality_check(data: MonopoleData,
                  window: tuple[int, int] | None = None) -> DualityReport:
    """Verify the duality package over a window.

    The verification has three layers.  First the complex level: every
    windowed pairing matrix (plus against minus, hat against hat) must be a
    perfect permutation and adjoint for D and the periodicity action, which
    exhibits the dual of one complex as an isomorphic copy of the reversed
    complex rather than merely comparing ranks (see verify_adjointness for
    the slices _pairing_proved covers).  Then the graded level:
    cohomology of one orientation must equal homology of the other at the
    partner degree for the (plus, minus), (minus, plus), and (hat, hat)
    pairs, with CheckFailed raised on the first disagreement; each side is
    read off the certified reductions of its own dataset.  Finally
    reversing twice must reproduce the original dataset exactly.
    """
    lo, hi = checked_window(data, window)
    rev = reverse_orientation(data)

    double = reverse_orientation(rev)
    double_ok = (double.points == data.points
                 and double.n_coeffs == data.n_coeffs
                 and double.m_coeffs == data.m_coeffs)

    perfect, adjoint = _complex_level(data, rev, lo, hi)

    plus_vs_minus = {}
    minus_vs_plus = {}
    hat_vs_hat = {}
    for n in range(lo, hi + 1):
        for groups, flavor, partner, partner_degree in (
                (plus_vs_minus, Flavor.PLUS, Flavor.MINUS, -2 - n),
                (minus_vs_plus, Flavor.MINUS, Flavor.PLUS, -2 - n),
                (hat_vs_hat, Flavor.HAT, Flavor.HAT, -n)):
            left = _cohomology_at(data, flavor, n)
            right = presentation_at(rev, partner, partner_degree).invariants
            if left != right:
                raise CheckFailed(
                    n, f"cohomology {left} does not match the "
                    f"reversed-orientation homology {right}",
                    dual_value=left, reversed_value=right)
            groups[n] = left

    return DualityReport((lo, hi), plus_vs_minus, minus_vs_plus, hat_vs_hat,
                         adjoint, perfect, double_ok,
                         adjoint and perfect and double_ok)
