"""Orientation-reversal duality.

The degree-n part of the plus complex pairs perfectly with the degree-(-2-n)
part of the minus complex of the reversed dataset, and the pairing is adjoint
for both the differential and the periodicity action.  Transposing the
differentials gives cohomology, and the pairing turns the cohomology of one
orientation into the homology of the other, degree by degree.  Both sides
of that comparison are read off the certified reductions of
complexes._reduced, each on its own dataset; the pairings, which bridge the
two, are checked on the unreduced complexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    Flavor,
    _differential,
    _distinct_degrees,
    _kept,
    _reduced_differential,
    _selection,
    _slice,
    checked_window,
    generator_degree,
    per_band_degree,
    require_valid,
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
    """The partner permutation on Infinity positions of one parity: theta to
    theta, point p to _toggle_id(p) in rev's id order.  Partners swap eta
    and 1 and send k to -k - 1 (degree -2 - n), or keep k on Hat (-n)."""
    theta = 1 - parity  # an even slice starts with theta
    position = {p.id: theta + i for i, p in enumerate(rev.points)}
    items = [(0, 0, 1)] * theta + [
        (theta + i, position[_toggle_id(p.id)], 1)
        for i, p in enumerate(data.points) if _toggle_id(p.id) in position]
    return SparseIntMatrix.from_entries(theta + len(data.points),
                                        theta + len(rev.points), items)


def _pairing_with(data: MonopoleData, rev: MonopoleData, n: int,
                  hat: bool = False) -> SparseIntMatrix:
    # k >= 0 exactly when -k - 1 < 0, and k = 0 stays 0: a kept generator's
    # partner is kept, so selecting both sides' kept positions loses none
    rows, cols = ((_kept(data, Flavor.HAT, n), _kept(rev, Flavor.HAT, -n))
                  if hat else (_kept(data, Flavor.PLUS, n),
                               _kept(rev, Flavor.MINUS, -2 - n)))
    return _selection(data, _pairing_template, (rev, n % 2), rows, cols)


def pairing_matrix(data: MonopoleData, n: int) -> PairingSlice:
    """Pair the degree-n plus basis with the reverse's degree-(-2-n) minus
    basis.

    Rows are plus generators, columns are minus generators of the reversed
    dataset; the entry is 1 exactly when the column is the partner of the
    row (eta and one-generators swap kinds and k maps to -k-1, the theta
    one-generators pair with each other the same way).
    """
    require_valid(data)
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
    require_valid(data)
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

    For every degree n of the window this verifies, as exact matrix
    identities against the reversed dataset:

      * transpose(D_n on plus) composed with the degree-(n-1) pairing equals
        the degree-n pairing composed with D at degree -1-n on minus;
      * the same with the degree-lowering periodicity action on both sides
        (pairing degrees n and n-2 against -n and -2-n);
      * the hat analogue of the first identity, pairing degree n against -n.
    """
    lo, hi = checked_window(data, window)
    rev = reverse_orientation(data)

    # each identity as (f, P, Q, g) with transpose(f) . P == Q . g
    def identities(n):
        pair = {m: _pairing_with(data, rev, m) for m in (n - 2, n - 1, n)}
        hat = {m: _pairing_with(data, rev, m, True) for m in (n - 1, n)}
        return ((_differential(data, Flavor.PLUS, n), pair[n - 1], pair[n],
                 _differential(rev, Flavor.MINUS, -1 - n)),
                (structural_map(data, "omega_inverse", Flavor.PLUS, n),
                 pair[n - 2], pair[n],
                 structural_map(rev, "omega_inverse", Flavor.MINUS, -n)),
                (_differential(data, Flavor.HAT, n), hat[n - 1], hat[n],
                 _differential(rev, Flavor.HAT, 1 - n)))

    return all(f.transpose().mul(p) == q.mul(g) for _, checks in
               _distinct_degrees(range(lo, hi + 1), identities)
               for f, p, q, g in checks)


@per_band_degree
def _cohomology_at(data: MonopoleData, flavor: Flavor,
                   n: int) -> AbelianGroupInvariants:
    """Degree-n cohomology: the kernel of transpose(D at n + 1), since the
    transposed differential raises degree by one, modulo the image of
    transpose(D at n), read on the certified reduction.  Transposing its
    identities D f = f D', g D = D' g, g f = 1 and 1 - f g = D h + h D
    makes (g^T, f^T, h^T) a reduction of the cochain complex, so D' gives
    the same groups; Hat and NonEquivariant have no pairs, and
    _reduced_differential returns their own D."""
    delta_out = _reduced_differential(data, flavor, n + 1).transpose()
    delta_in = _reduced_differential(data, flavor, n).transpose()
    return _quotient(data, _kernel(data, delta_out), delta_in).invariants


def cohomology(data: MonopoleData, flavor: Flavor,
               window: tuple[int, int] | None = None) -> GradedAbelianGroup:
    """Cohomology of one flavor over a degree window.

    A dual generator keeps the degree of its primal generator, so the
    transposed differential raises degree by one.  No tail claims are made;
    the report carries the windowed groups only.
    """
    lo, hi = checked_window(data, window)
    groups = {n: _cohomology_at(data, flavor, n) for n in range(lo, hi + 1)}
    return GradedAbelianGroup((lo, hi), groups, None, None)


def duality_check(data: MonopoleData,
                  window: tuple[int, int] | None = None) -> DualityReport:
    """Verify the duality package over a window.

    The verification has three layers.  First the complex level: every
    windowed pairing matrix (plus against minus, hat against hat) must be a
    perfect permutation and adjoint for D and the periodicity action, which
    exhibits the dual of one complex as an isomorphic copy of the reversed
    complex rather than merely comparing ranks.  Then the graded level:
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

    perfect = all(
        _is_perfect(pairing) and _is_perfect(hat)
        for _, (pairing, hat) in _distinct_degrees(
            range(lo, hi + 1), lambda n: (_pairing_with(data, rev, n),
                                          _pairing_with(data, rev, n, True))))
    adjoint = verify_adjointness(data, (lo, hi))

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
