"""The u-action, the chain homotopy to omega-inverse, and the induced
module structure on homology."""

from __future__ import annotations

import pytest

import oracle
from monofloer.data import InvalidInput, curated_instances
from monofloer.complexes import Flavor, _band, default_window, \
    differential_matrix
from monofloer.intlinalg import SparseIntMatrix
from monofloer.homology import presentation_at, structural_chain_map, \
    induced_on_homology
from test_acceptance import performance_instance
from test_complexes import oracle_dataset
from monofloer.actions import (
    homotopy_h,
    u_chain_map,
    u_module_structure,
    verify_u_homotopy,
)

U_FLAVORS = (Flavor.INFINITY, Flavor.MINUS, Flavor.PLUS)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def regraded(data, dense, n, m):
    """A Plus matrix from degree n to degree m, frozen in the id order
    (theta first, then the points by id), in the engine's grading order."""
    return oracle.regraded(oracle_dataset(data), dense, ("plus", m),
                           ("plus", n))


# -- frozen u matrices ------------------------------------------------------

def test_u_euler_pair_frozen():
    # u(1 x eta_a) = 3 (1 x eta_c); theta tower shifts down
    data = by_name("euler-pair")
    mat = u_chain_map(data, Flavor.PLUS, 2)
    assert mat.to_dense() == regraded(data, [[1, 0, 0], [0, 3, 0]], 2, 0)


def test_u_theta_tower_frozen():
    empty = by_name("empty")
    assert u_chain_map(empty, Flavor.PLUS, 2).to_dense() == [[1]]
    at0 = u_chain_map(empty, Flavor.PLUS, 0)
    assert (at0.rows, at0.cols) == (0, 1)
    assert u_chain_map(empty, Flavor.INFINITY, 0).to_dense() == [[1]]


def test_u_theta_pair_frozen():
    # u(1 x 1_a) = 1 x 1_theta via the grading-1 coupling
    data = by_name("theta-coupled-pair")
    mat = u_chain_map(data, Flavor.PLUS, 2)
    assert mat.to_dense() == regraded(data, [[1, 1, 0], [0, 0, 0]], 2, 0)


def test_u_rejects_hat_and_nonequivariant():
    d = by_name("empty")
    with pytest.raises(InvalidInput):
        u_chain_map(d, Flavor.HAT, 0)
    with pytest.raises(InvalidInput):
        u_chain_map(d, Flavor.NONEQUIVARIANT, 0)


# -- frozen homotopy matrices -----------------------------------------------

def test_homotopy_frozen():
    d = by_name("theta-coupled-pair")
    mat = homotopy_h(d, Flavor.PLUS, 2)
    assert mat.to_dense() == regraded(d, [[0, 1, 0], [0, 0, 0]], 2, 1)
    empty = by_name("empty")
    for n in range(-4, 7):
        assert homotopy_h(empty, Flavor.PLUS, n).is_zero()


# -- chain-level identities -------------------------------------------------

def test_u_is_chain_map():
    for data in curated_instances():
        lo, hi = default_window(data)
        for flavor in U_FLAVORS:
            for n in range(lo + 2, hi + 1):
                left = differential_matrix(data, flavor, n - 2).mul(
                    u_chain_map(data, flavor, n))
                right = u_chain_map(data, flavor, n - 1).mul(
                    differential_matrix(data, flavor, n))
                assert left == right, (data.name, flavor, n)


def test_u_homotopy_identity_everywhere():
    for data in curated_instances():
        for flavor in U_FLAVORS:
            assert verify_u_homotopy(data, flavor, default_window(data)), (
                data.name, flavor)


def test_u_homotopy_infinity_wide_window():
    assert verify_u_homotopy(by_name("theta-coupled-pair"), Flavor.INFINITY,
                             (-8, 8))


def test_u_homotopy_fails_at_a_degree_far_outside_the_band(monkeypatch):
    """A degree whose matrices are not the selections the proof covers
    is checked; a u broken only at 500, far above the band, differs from
    every earlier degree's and is still checked."""
    import monofloer.actions as actions

    d = by_name("tail-chain")
    window = (-600, 600)
    assert _band(d)[1] < 500
    assert not u_chain_map(d, Flavor.PLUS, 500).is_zero()
    assert verify_u_homotopy(d, Flavor.PLUS, window)

    def broken(data, flavor, n):
        u = u_chain_map(data, flavor, n)
        return u.scale(-1) if n == 500 else u

    monkeypatch.setattr(actions, "u_chain_map", broken)
    assert not verify_u_homotopy(d, Flavor.PLUS, window)
    assert verify_u_homotopy(d, Flavor.PLUS, (-600, 499))


def test_u_homotopy_checks_the_first_degree_of_its_window(monkeypatch):
    """A homotopy broken at one degree fails the one-degree window there."""
    import monofloer.actions as actions

    d = by_name("tail-chain")
    lo, hi = _band(d)
    n = next(n for n in range(lo, hi + 1) if not differential_matrix(
        d, Flavor.PLUS, n - 1).mul(homotopy_h(d, Flavor.PLUS, n)).is_zero())
    assert verify_u_homotopy(d, Flavor.PLUS, (n, n))

    def broken(data, flavor, m):
        h = homotopy_h(data, flavor, m)
        return SparseIntMatrix.zero(h.rows, h.cols) if m == n else h

    monkeypatch.setattr(actions, "homotopy_h", broken)
    assert not verify_u_homotopy(d, Flavor.PLUS, (n, n))


def test_a_proved_u_homotopy_cuts_no_selection(monkeypatch, work):
    """On a fresh 50-point instance, whose template proof holds,
    verify_u_homotopy names the six selections of every degree and only
    compares them by identity with _templated's, so it cuts the entries
    of none; a read replaced at one degree is still checked there, and
    its products cut what they multiply."""
    import monofloer.actions as actions

    data = performance_instance()
    lo, hi = default_window(data)
    for flavor in U_FLAVORS:
        work.clear()
        assert verify_u_homotopy(data, flavor, (lo, hi))
        assert work["select"] > 0 and work["cut"] == 0, flavor
    n = next(n for n in range(lo, hi + 1)
             if not u_chain_map(data, Flavor.PLUS, n).is_zero())

    def broken(data, flavor, m):
        u = u_chain_map(data, flavor, m)
        return u.scale(-1) if m == n else u

    monkeypatch.setattr(actions, "u_chain_map", broken)
    work.clear()
    assert not verify_u_homotopy(data, Flavor.PLUS, (lo, hi))
    assert work["cut"] > 0
    assert verify_u_homotopy(data, Flavor.PLUS, (lo, n - 1))
    assert verify_u_homotopy(data, Flavor.PLUS, (n + 1, hi))


# -- induced module structure -----------------------------------------------

def test_u_module_on_theta_tower():
    induced = u_module_structure(by_name("empty"), Flavor.PLUS, (-4, 6))
    for r in range(1, 4):
        assert induced.matrices[2 * r].to_dense() == [[1]]
    zero = induced.matrices[0]
    assert (zero.rows, zero.cols) == (0, 1)


def test_u_invertible_on_infinity_even_degrees():
    for data in curated_instances():
        window = default_window(data)
        induced = u_module_structure(data, Flavor.INFINITY, window)
        for n in range(window[0] + 2, window[1] + 1):
            if n % 2 == 0:
                dense = induced.matrices[n].to_dense()
                assert dense in ([[1]], [[-1]]), (data.name, n)


def test_u_agrees_with_omega_inverse_on_homology():
    d = by_name("tail-chain")
    window = default_window(d)
    induced = u_module_structure(d, Flavor.PLUS, window)
    omega = induced_on_homology(
        d, Flavor.PLUS, Flavor.PLUS,
        structural_chain_map(d, "omega_inverse", window, flavor=Flavor.PLUS),
        window)
    assert induced.matrices == omega.matrices


def test_u_nilpotent_on_plus():
    for data in curated_instances():
        lo, hi = default_window(data)
        induced = u_module_structure(data, Flavor.PLUS, (lo, hi))
        for n in range(lo, hi + 1):
            count = len(presentation_at(data, Flavor.PLUS, n).generators)
            for i in range(count):
                coords = [0] * count
                coords[i] = 1
                level = n
                steps = 0
                while any(coords) and level - 2 >= lo:
                    coords = induced.matrices[level].apply(coords)
                    level -= 2
                    steps += 1
                    assert steps <= hi - lo
                assert not any(coords), (data.name, n, i)
