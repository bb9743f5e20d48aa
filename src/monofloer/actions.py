"""Degree -2 module action on the equivariant complexes.

The variable u acts on each complex flavor that carries the full polynomial
module structure (Infinity, Minus, Plus).  On the chain level u is homotopic
to the omega-inverse shift; the homotopy lowers degree by one and witnesses
the identity u - omega_inverse = D.H + H.D exactly.  On homology the two
maps therefore induce the same endomorphism, and on Plus that endomorphism
is nilpotent on every class.
"""

from __future__ import annotations

import operator

from .complexes import (
    Flavor,
    Generator,
    KIND_ETA,
    KIND_ONE,
    KIND_THETA,
    MonopoleData,
    _differential,
    _identification,
    _image_terms,
    _restricts,
    _rule_matrix,
    _same,
    _template,
    checked_degree,
    checked_window,
    per_band_degree,
    structural_map,
)
from .data import THETA, CheckFailed, InvalidInput, per_dataset
from .homology import ChainMapSlice, HomologyClassMap, induced_on_homology, \
    structural_chain_map
from .intlinalg import SparseIntMatrix

_U_FLAVORS = (Flavor.INFINITY, Flavor.MINUS, Flavor.PLUS)


def _u_terms(data, gen):
    """Untruncated image of one generator under u, as (generator, coeff):
    an eta or a one meets the m-couplings two gradings down in its own
    kind, and a one of grading 1 also theta; theta meets the etas at
    grading -2 and itself one power down."""
    if gen.kind == KIND_THETA:
        for d in data.ids_at(-2):
            coeff = data.n_value(THETA, d)
            if coeff:
                yield Generator(KIND_ETA, d, gen.k), coeff
        yield Generator(KIND_THETA, None, gen.k - 1), 1
        return
    gr = data.grading_of(gen.point)
    for c in data.ids_at(gr - 2):
        coeff = data.m_value(gen.point, c)
        if coeff:
            yield Generator(gen.kind, c, gen.k), coeff
    if gen.kind == KIND_ONE and gr == 1:
        coeff = data.n_value(gen.point, THETA)
        if coeff:
            yield Generator(KIND_THETA, None, gen.k), coeff


def _h_terms(data, gen):
    """The homotopy rule: 1_a to eta_a at the same power of Omega."""
    if gen.kind == KIND_ONE:
        yield Generator(KIND_ETA, gen.point, gen.k), 1


def u_chain_map(data: MonopoleData, flavor: Flavor, n: int) -> SparseIntMatrix:
    """Matrix of u from the degree-n slice to the degree-(n-2) slice."""
    checked_degree(data, n, flavor)
    if flavor not in _U_FLAVORS:
        raise InvalidInput(
            "u is defined only on the infinity, minus, and plus flavors")
    return _rule_matrix(data, _u_terms, 2, flavor, n)


def homotopy_h(data: MonopoleData, flavor: Flavor, n: int) -> SparseIntMatrix:
    """Matrix of the homotopy from the degree-n slice to degree n-1.

    Sends each generator 1_a to eta_a at the same power of Omega and kills
    eta and theta generators.
    """
    checked_degree(data, n, flavor)
    return _rule_matrix(data, _h_terms, 1, flavor, n)


@per_band_degree
def _templated(data: MonopoleData, flavor: Flavor, n: int) -> tuple:
    """The six matrices verify_u_homotopy reads in degree n, as the
    selections of their Infinity templates at the kept positions; they
    read the kept positions of degrees n - 2 to n, which repeat with period
    two beyond the band, so a far degree shares its band degree's tuple."""
    return (_rule_matrix(data, _u_terms, 2, flavor, n),
            _identification(data, flavor, flavor, n, shift_k=-1),
            _rule_matrix(data, _image_terms, 1, flavor, n - 1),
            _rule_matrix(data, _h_terms, 1, flavor, n),
            _rule_matrix(data, _h_terms, 1, flavor, n - 1),
            _rule_matrix(data, _image_terms, 1, flavor, n))


@per_dataset
def _homotopy_on_templates(data: MonopoleData) -> bool:
    """u - omega_inverse = D.H + H.D on the Infinity templates of both
    parities p, where the maps out of degree n - 1 have parity 1 - p."""
    d, h, u, same = ({p: _template(data, rule, drop, p) for p in (0, 1)}
                     for rule, drop in ((_image_terms, 1), (_h_terms, 1),
                                        (_u_terms, 2), (_same, 0)))
    return all(u[p].sub(same[p]) == d[1 - p].mul(h[p]).add(
        h[1 - p].mul(d[p])) for p in (0, 1))


def verify_u_homotopy(data: MonopoleData, flavor: Flavor,
                      window: tuple[int, int]) -> bool:
    """Check u - omega_inverse = D.H + H.D in every degree of the window.

    u and omega_inverse enter the identity linearly, so their selections
    need no lemma.  When _restricts holds for D and H and the identity
    holds on the Infinity templates, it holds at every degree whose six
    matrices are the selections _templated names; any other degree, such
    as one whose map was replaced, forms its products."""
    lo, hi = checked_window(data, window, flavor)
    proved = all(_restricts(data, flavor, rule, 1)
                 for rule in (_image_terms, _h_terms)) and \
        _homotopy_on_templates(data)
    for n in range(lo, hi + 1):
        matrices = (
            u_chain_map(data, flavor, n),
            structural_map(data, "omega_inverse", flavor, n),
            _differential(data, flavor, n - 1),
            homotopy_h(data, flavor, n), homotopy_h(data, flavor, n - 1),
            _differential(data, flavor, n))
        if proved and all(map(operator.is_, matrices,
                              _templated(data, flavor, n))):
            continue
        u, omega, d_prev, h, h_prev, d = matrices
        if u.sub(omega) != d_prev.mul(h).add(h_prev.mul(d)):
            return False
    return True


def u_module_structure(data: MonopoleData, flavor: Flavor,
                       window: tuple[int, int] | None = None
                       ) -> HomologyClassMap:
    """Endomorphism induced by u on graded homology over the window, on
    the recorded generators of the certified reduction (see
    induced_on_homology).

    Checks degreewise equality with the map induced by omega_inverse before
    returning, and raises CheckFailed at the first degree where they differ;
    this is the u-check of sequences.check_les_hat.
    """
    lo, hi = checked_window(data, window, flavor)
    matrices = {n: u_chain_map(data, flavor, n)
                for n in range(lo - 2, hi + 3)}
    induced = induced_on_homology(
        data, flavor, flavor,
        ChainMapSlice(flavor, flavor, -2, matrices, (_u_terms, 2)), (lo, hi))
    omega = induced_on_homology(
        data, flavor, flavor,
        structural_chain_map(data, "omega_inverse", (lo, hi), flavor=flavor),
        (lo, hi))
    for n in range(lo, hi + 1):
        if induced.matrices[n] != omega.matrices[n]:
            raise CheckFailed(
                n, "induced u differs from induced omega-inverse")
    return induced
