"""Flavored complexes: generator slices, differentials, structural maps."""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left

import pytest

import oracle
from monofloer.data import (
    CheckFailed,
    MonopoleData,
    InvalidInput,
    THETA,
    curated_instances,
    invalid_instance,
    serialize,
)
from monofloer.complexes import (
    Flavor,
    Generator,
    KIND_ETA,
    KIND_ONE,
    KIND_THETA,
    MAX_WINDOW_DEGREES,
    REDUCED_FLAVORS,
    _active,
    _band,
    _certify,
    _critical,
    _kept,
    _lines,
    _reduce,
    _reduced,
    _reduction,
    _sums_to_identity,
    check_d_squared,
    checked_window,
    default_window,
    differential_matrix,
    generator_degree,
    generators_in_degree,
    structural_map,
)
from monofloer.intlinalg import QuotientPresentation, SparseIntMatrix, \
    kernel_basis
from test_acceptance import performance_instance

ALL_FLAVORS = tuple(Flavor)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def gens(data, flavor, n):
    return [(g.kind, g.point, g.k)
            for g in generators_in_degree(data, flavor, n).basis]


def regraded(data, dense, rows, cols):
    """A matrix frozen in the id order (theta first, then the points by
    id), on the (flavor, degree) slices rows and cols, in the engine's
    grading order."""
    return oracle.regraded(oracle_dataset(data), dense,
                           (rows[0].value, rows[1]), (cols[0].value, cols[1]))


def by_grading(data, basis):
    """A slice frozen in the id order, in the engine's grading order."""
    return oracle.grading_order(oracle_dataset(data), basis)


# -- generator slices -------------------------------------------------------

def test_theta_tower_slices():
    empty = by_name("empty")
    assert gens(empty, Flavor.PLUS, 4) == [(KIND_THETA, None, 2)]
    assert gens(empty, Flavor.PLUS, -1) == []
    assert gens(empty, Flavor.PLUS, -2) == []
    assert gens(empty, Flavor.MINUS, -2) == [(KIND_THETA, None, -1)]
    assert gens(empty, Flavor.MINUS, 0) == []
    assert gens(empty, Flavor.HAT, 0) == [(KIND_THETA, None, 0)]
    assert gens(empty, Flavor.HAT, 2) == []
    assert gens(empty, Flavor.INFINITY, -6) == [(KIND_THETA, None, -3)]
    assert gens(empty, Flavor.NONEQUIVARIANT, 0) == []


def test_theta_pair_slice_order():
    d = by_name("theta-coupled-pair")
    assert gens(d, Flavor.PLUS, 2) == by_grading(d, [
        (KIND_THETA, None, 1), (KIND_ONE, "a", 0), (KIND_ETA, "d", 2)])
    assert gens(d, Flavor.PLUS, 1) == by_grading(d, [
        (KIND_ETA, "a", 0), (KIND_ONE, "d", 1)])
    assert gens(d, Flavor.INFINITY, 0) == by_grading(d, [
        (KIND_THETA, None, 0), (KIND_ONE, "a", -1), (KIND_ETA, "d", 1)])
    assert gens(d, Flavor.NONEQUIVARIANT, 1) == [(KIND_ETA, "a", 0)]
    assert gens(d, Flavor.NONEQUIVARIANT, -2) == [(KIND_ETA, "d", 0)]
    assert gens(d, Flavor.NONEQUIVARIANT, 0) == []


def test_generator_degree():
    d = by_name("theta-coupled-pair")
    assert generator_degree(d, Generator(KIND_ETA, "a", 3)) == 7
    assert generator_degree(d, Generator(KIND_ONE, "a", 3)) == 8
    assert generator_degree(d, Generator(KIND_ONE, "d", 0)) == -1
    assert generator_degree(d, Generator(KIND_THETA, None, -2)) == -4


def test_slice_requires_valid_data():
    with pytest.raises(InvalidInput):
        generators_in_degree(invalid_instance(), Flavor.PLUS, 0)


# -- differentials ----------------------------------------------------------

def test_differential_empty_data_is_zero():
    empty = by_name("empty")
    for flavor in ALL_FLAVORS:
        for n in range(-4, 7):
            mat = differential_matrix(empty, flavor, n)
            assert mat.is_zero()
            assert mat.cols == len(gens(empty, flavor, n))
            assert mat.rows == len(gens(empty, flavor, n - 1))


def test_differential_theta_pair_frozen():
    d = by_name("theta-coupled-pair")
    plus = differential_matrix(d, Flavor.PLUS, 1)
    assert plus.to_dense() == regraded(
        d, [[1, 0], [0, 0]], (Flavor.PLUS, 0), (Flavor.PLUS, 1))
    inf = differential_matrix(d, Flavor.INFINITY, 1)
    # in id order, rows: theta-one k0, one a k-1, eta d k1; cols: eta a
    # k0, one d k1
    assert inf.to_dense() == regraded(
        d, [[1, 0], [-1, 0], [0, 0]], (Flavor.INFINITY, 0),
        (Flavor.INFINITY, 1))


def test_differential_two_step_frozen():
    d = by_name("two-step")
    plus = differential_matrix(d, Flavor.PLUS, 1)
    # in id order, rows: theta-one k0, eta b k0; cols: eta a k0, one b k0
    assert plus.to_dense() == regraded(
        d, [[0, 0], [2, 0]], (Flavor.PLUS, 0), (Flavor.PLUS, 1))
    noneq = differential_matrix(d, Flavor.NONEQUIVARIANT, 1)
    assert noneq.to_dense() == [[2]]


def test_differential_against_oracle_on_curated():
    for data in curated_instances():
        blob = oracle_dataset(data)
        lo, hi = default_window(data)
        for flavor in ALL_FLAVORS:
            for n in range(lo, hi + 1):
                compare_with_oracle(data, blob, flavor, n)


def oracle_dataset(data):
    return {
        "points": [{"id": p.id, "gr": p.grading} for p in data.points],
        "n": [{"from": s, "to": t, "value": v} for (s, t, v) in data.n_coeffs],
        "m": [{"from": s, "to": t, "value": v} for (s, t, v) in data.m_coeffs],
    }


def as_oracle_key(gen):
    kind = {KIND_ETA: "eta", KIND_ONE: "one", KIND_THETA: "theta"}[gen.kind]
    return (kind, gen.point, gen.k)


def compare_with_oracle(data, blob, flavor, n):
    mine_cols = generators_in_degree(data, flavor, n).basis
    mine_rows = generators_in_degree(data, flavor, n - 1).basis
    ref_cols = oracle.oracle_basis(blob, flavor.value, n)
    ref_rows = oracle.oracle_basis(blob, flavor.value, n - 1)
    assert sorted(map(as_oracle_key, mine_cols)) == sorted(ref_cols)
    assert sorted(map(as_oracle_key, mine_rows)) == sorted(ref_rows)
    ref = oracle.oracle_differential(blob, flavor.value, n)
    mine = differential_matrix(data, flavor, n).to_dense()
    row_of = {key: i for i, key in enumerate(ref_rows)}
    col_of = {key: j for j, key in enumerate(ref_cols)}
    rearranged = [[0] * len(ref_cols) for _ in range(len(ref_rows))]
    for i, gen_r in enumerate(mine_rows):
        for j, gen_c in enumerate(mine_cols):
            rearranged[row_of[as_oracle_key(gen_r)]][col_of[as_oracle_key(gen_c)]] = mine[i][j]
    assert rearranged == ref, (data.name, flavor, n)


def full_presentation(data, flavor, n):
    """The degree-n presentation of the full complex, with no memo and no
    reduction: the reference for the engine's presentations, which live on
    the certified reductions, and the source of unreduced generators."""
    return QuotientPresentation(
        kernel_basis(differential_matrix(data, flavor, n)),
        differential_matrix(data, flavor, n + 1))


# -- d squared --------------------------------------------------------------

def test_d_squared_zero_on_curated_all_flavors():
    for data in curated_instances():
        for flavor in ALL_FLAVORS:
            assert check_d_squared(data, flavor, default_window(data)), (
                data.name, flavor)


def test_d_squared_detects_identity_defect():
    assert not check_d_squared(invalid_instance(), Flavor.INFINITY, (-8, 8))


def test_d_squared_multiplies_each_pair_once(work):
    # the band of the 50-point instance is [-28, 28]; outside it, and for
    # Infinity everywhere, the pairs repeat
    data = performance_instance()
    counts = []
    for window in ((-20, 20), (-1000, 1000)):
        work.clear()
        assert check_d_squared(data, Flavor.INFINITY, window)
        counts.append(work["mul"])
    assert 0 < counts[1] <= counts[0]


# -- structural maps --------------------------------------------------------

def test_omega_inverse_on_theta_tower():
    empty = by_name("empty")
    at2 = structural_map(empty, "omega_inverse", Flavor.PLUS, 2)
    assert at2.to_dense() == [[1]]
    at0 = structural_map(empty, "omega_inverse", Flavor.PLUS, 0)
    assert (at0.rows, at0.cols) == (0, 1)


def test_projection_plus_frozen():
    d = by_name("theta-coupled-pair")
    at1 = structural_map(d, "projection_plus", Flavor.INFINITY, 1)
    assert at1.to_dense() == regraded(
        d, [[1, 0], [0, 1]], (Flavor.PLUS, 1), (Flavor.INFINITY, 1))
    at0 = structural_map(d, "projection_plus", Flavor.INFINITY, 0)
    assert at0.to_dense() == regraded(
        d, [[1, 0, 0], [0, 0, 1]], (Flavor.PLUS, 0), (Flavor.INFINITY, 0))


def test_inclusion_minus_frozen():
    d = by_name("theta-coupled-pair")
    at0 = structural_map(d, "inclusion_minus", Flavor.INFINITY, 0)
    assert at0.to_dense() == regraded(
        d, [[0], [1], [0]], (Flavor.INFINITY, 0), (Flavor.MINUS, 0))


def test_inclusion_hat_frozen():
    d = by_name("theta-coupled-pair")
    at0 = structural_map(d, "inclusion_hat", Flavor.PLUS, 0)
    assert at0.to_dense() == regraded(
        d, [[1], [0]], (Flavor.PLUS, 0), (Flavor.HAT, 0))


def test_short_exact_sequence_degreewise():
    for data in curated_instances():
        lo, hi = default_window(data)
        for n in range(lo, hi + 1):
            inc = structural_map(data, "inclusion_minus", Flavor.INFINITY, n)
            proj = structural_map(data, "projection_plus", Flavor.INFINITY, n)
            assert proj.mul(inc).is_zero()
            n_inf = len(gens(data, Flavor.INFINITY, n))
            assert inc.cols + proj.rows == n_inf
            # projection surjective with free kernel exactly the minus part
            assert sorted(oracle.dense_invariant_factors(proj.to_dense())) \
                == [1] * proj.rows


def test_omega_inverse_is_chain_map():
    for data in curated_instances():
        lo, hi = default_window(data)
        for flavor in (Flavor.INFINITY, Flavor.MINUS, Flavor.PLUS):
            for n in range(lo + 2, hi + 1):
                omega_n = structural_map(data, "omega_inverse", flavor, n)
                omega_prev = structural_map(data, "omega_inverse", flavor, n - 1)
                d_n = differential_matrix(data, flavor, n)
                d_shifted = differential_matrix(data, flavor, n - 2)
                assert d_shifted.mul(omega_n) == omega_prev.mul(d_n), (
                    data.name, flavor, n)


def test_structural_map_rejects_bad_requests():
    d = by_name("empty")
    with pytest.raises(InvalidInput):
        structural_map(d, "omega_inverse", Flavor.NONEQUIVARIANT, 0)
    with pytest.raises(InvalidInput):
        structural_map(d, "no_such_map", Flavor.PLUS, 0)
    with pytest.raises(InvalidInput):
        structural_map(d, "inclusion_minus", Flavor.PLUS, 0)
    with pytest.raises(InvalidInput):
        structural_map(d, "inclusion_hat", Flavor.INFINITY, 0)


# -- periodicity ------------------------------------------------------------

def test_infinity_differential_depends_only_on_parity():
    for data in curated_instances():
        lo, hi = default_window(data)
        for n in range(lo, hi - 1):
            a = differential_matrix(data, Flavor.INFINITY, n)
            b = differential_matrix(data, Flavor.INFINITY, n + 2)
            assert a == b, (data.name, n)


def test_plus_differential_stable_above():
    for data in curated_instances():
        top = max([p.grading for p in data.points] + [0])
        for n in range(top + 3, top + 9):
            a = differential_matrix(data, Flavor.PLUS, n)
            b = differential_matrix(data, Flavor.PLUS, n + 2)
            assert a == b, (data.name, n)


def test_minus_differential_stable_below():
    for data in curated_instances():
        bottom = min([p.grading for p in data.points] + [0])
        for n in range(bottom - 8, bottom - 2):
            a = differential_matrix(data, Flavor.MINUS, n)
            b = differential_matrix(data, Flavor.MINUS, n - 2)
            assert a == b, (data.name, n)


def test_default_window():
    assert default_window(by_name("empty")) == (-4, 6)
    assert default_window(by_name("tail-chain")) == (-6, 9)
    assert default_window(by_name("euler-pair")) == (-4, 8)


# -- the window contract ----------------------------------------------------

def _windowed_entry_points(flavor=Flavor.PLUS):
    """Each public windowed entry point as a call of (data, window); those
    of _FLAVORED_WINDOWED take flavor."""
    from monofloer.actions import u_module_structure, verify_u_homotopy
    from monofloer.cli import verify_all
    from monofloer.duality import cohomology, duality_check, \
        verify_adjointness
    from monofloer.homology import ChainMapSlice, graded_homology, \
        identity_chain_map, induced_on_homology, structural_chain_map
    from monofloer.sequences import check_les_hat, check_les_main, hf_red
    from monofloer.spectral import structure_theorem

    def induced(data, window):
        # a hand-built slice, so that its flavors may be anything
        chain = ChainMapSlice(flavor, flavor, 0, identity_chain_map(
            data, Flavor.PLUS, (0, 0)).matrices)
        return induced_on_homology(data, flavor, flavor, chain, window)

    return {
        "graded_homology": lambda d, w: graded_homology(d, flavor, w),
        "induced_on_homology": induced,
        "structural_chain_map": lambda d, w: structural_chain_map(
            d, "omega_inverse", w, Flavor.PLUS),
        "identity_chain_map": lambda d, w: identity_chain_map(d, flavor, w),
        "verify_u_homotopy": lambda d, w: verify_u_homotopy(d, flavor, w),
        "u_module_structure": lambda d, w: u_module_structure(d, flavor, w),
        "check_les_main": check_les_main,
        "hf_red": hf_red,
        "check_les_hat": check_les_hat,
        "structure_theorem": structure_theorem,
        "verify_adjointness": verify_adjointness,
        "cohomology": lambda d, w: cohomology(d, flavor, w),
        "duality_check": duality_check,
        "verify_all": verify_all,
        # the window half only: this check also runs on invalid data
        "check_d_squared": lambda d, w: check_d_squared(d, flavor, w),
    }


# the windowed entry points whose flavor arguments are required, the one
# flavor as both source and target of induced_on_homology; in
# structural_chain_map, None stands for no flavor
_FLAVORED_WINDOWED = ("graded_homology", "identity_chain_map",
                      "induced_on_homology", "verify_u_homotopy",
                      "u_module_structure", "cohomology", "check_d_squared")


@pytest.mark.parametrize("flavor", ["plus", None, 1])
@pytest.mark.parametrize("name", _FLAVORED_WINDOWED)
def test_windowed_entry_points_take_only_flavors(name, flavor):
    """A flavor that is not a Flavor raises checked_degree's InvalidInput,
    where check_d_squared answered True and cohomology,
    identity_chain_map and induced_on_homology raised KeyError."""
    call = _windowed_entry_points(flavor)[name]
    with pytest.raises(InvalidInput, match="a flavor a Flavor"):
        call(by_name("tail-chain"), (0, 2))


@pytest.mark.parametrize("window", [(5, -5), (-1000, 1001)])
@pytest.mark.parametrize("name", list(_windowed_entry_points()))
def test_windowed_entry_points_reject_bad_windows(name, window):
    call = _windowed_entry_points()[name]
    with pytest.raises(InvalidInput, match="window"):
        call(by_name("tail-chain"), window)


# valid data whose gradings span three million degrees: every windowed
# computation reads its band, so even a narrow window must be refused
WIDE_SCRIPT = """
from monofloer.complexes import Flavor, check_d_squared
from monofloer.data import InvalidInput, MonopoleData
from monofloer.homology import homology_at, presentation_at
from monofloer.sequences import connecting_delta
from monofloer.spectral import spectral_pages
from test_complexes import _windowed_entry_points

wide = MonopoleData.build("wide", [("a", 0), ("b", 3000000)])
calls = {name: (lambda call=call: call(wide, (0, 2)))
         for name, call in _windowed_entry_points().items()
         if name != "check_d_squared"}
calls["presentation_at"] = lambda: presentation_at(wide, Flavor.PLUS, 0)
calls["homology_at"] = lambda: homology_at(wide, Flavor.PLUS, 0)
calls["connecting_delta"] = lambda: connecting_delta(wide, 0)
calls["spectral_pages"] = lambda: spectral_pages(wide, Flavor.PLUS, 1)
for name, call in calls.items():
    try:
        call()
        print(name, "returned", flush=True)
    except InvalidInput as err:
        assert "gradings span" in str(err), err
        print(name, "refused", flush=True)
print("check_d_squared", check_d_squared(wide, Flavor.PLUS, (0, 2)))
"""


def test_a_wide_grading_span_is_refused_by_every_windowed_entry():
    # in a subprocess with a timeout, so an entry that walks the band fails
    # this test instead of hanging the suite
    import os
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"),
                            tests])
    try:
        done = subprocess.run([sys.executable, "-c", WIDE_SCRIPT],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired as err:
        pytest.fail(f"timed out after: {err.stdout!r}")
    assert done.returncode == 0, done.stderr
    names = [*(n for n in _windowed_entry_points() if n != "check_d_squared"),
             "presentation_at", "homology_at", "connecting_delta",
             "spectral_pages"]
    assert done.stdout.splitlines() == [
        *(f"{name} refused" for name in names), "check_d_squared True"]


def test_identity_chain_map_rejects_invalid_data():
    # it reads only kept positions, which need no valid data
    call = _windowed_entry_points()["identity_chain_map"]
    with pytest.raises(InvalidInput, match="invalid data"):
        call(invalid_instance(), (0, 2))


def test_checked_window():
    data = by_name("tail-chain")
    assert checked_window(data, None) == default_window(data)
    widest = (-1000, -1000 + MAX_WINDOW_DEGREES - 1)
    assert checked_window(data, widest) == widest
    assert checked_window(data, (3, 3)) == (3, 3)
    with pytest.raises(InvalidInput, match="invalid data"):
        checked_window(invalid_instance(), (0, 1))


@pytest.mark.parametrize("window", [(0.5, 3), (0, 3.0), ("0", 3), (True, 3),
                                    (0, False), (0, 1, 2), 3],
                         ids=["float-lo", "float-hi", "str", "bool-lo",
                              "bool-hi", "triple", "int"])
@pytest.mark.parametrize("name", list(_windowed_entry_points()))
def test_windowed_entry_points_take_only_pairs_of_ints(name, window):
    call = _windowed_entry_points()[name]
    with pytest.raises(InvalidInput, match="not a pair of integers"):
        call(by_name("tail-chain"), window)


# -- the degree contract ----------------------------------------------------

def _per_degree_entry_points():
    """Each public per-degree entry point as a call of (data, n, flavor),
    and whether it takes a flavor."""
    from monofloer.actions import homotopy_h, u_chain_map
    from monofloer.duality import hat_pairing_matrix, pairing_matrix
    from monofloer.homology import homology_at
    from monofloer.sequences import connecting_delta
    from monofloer.spectral import delta_map

    return {
        "differential_matrix": (differential_matrix, True),
        "generators_in_degree": (generators_in_degree, True),
        "structural_map": (lambda d, f, n: structural_map(
            d, "omega_inverse", f, n), True),
        "u_chain_map": (u_chain_map, True),
        "homotopy_h": (homotopy_h, True),
        "homology_at": (homology_at, True),
        "pairing_matrix": (lambda d, f, n: pairing_matrix(d, n), False),
        "hat_pairing_matrix": (lambda d, f, n: hat_pairing_matrix(d, n),
                               False),
        "connecting_delta": (lambda d, f, n: connecting_delta(d, n), False),
        "delta_map": (lambda d, f, n: delta_map(d, n), False),
    }


@pytest.mark.parametrize("degree", [1.5, 2.0, True, "3", None],
                         ids=["float", "integral-float", "bool", "str",
                              "none"])
@pytest.mark.parametrize("name", list(_per_degree_entry_points()))
def test_per_degree_entry_points_take_only_int_degrees(name, degree):
    """A degree must be an int that is not a bool: 2.0 would build a slice
    of degree 2.0 with float powers and True would answer for degree 1,
    where the entry points now raise InvalidInput, as they do for 1.5, "3"
    and None, which raised KeyError or TypeError."""
    call, _ = _per_degree_entry_points()[name]
    data = by_name("tail-chain")
    call(data, Flavor.PLUS, 2)
    with pytest.raises(InvalidInput, match="a degree must be an int"):
        call(data, Flavor.PLUS, degree)


@pytest.mark.parametrize("flavor", ["plus", None, 1])
@pytest.mark.parametrize("name", [name for name, (_, flavored) in
                                  _per_degree_entry_points().items()
                                  if flavored])
def test_per_degree_entry_points_take_only_flavors(name, flavor):
    call, _ = _per_degree_entry_points()[name]
    with pytest.raises(InvalidInput, match="a flavor a Flavor"):
        call(by_name("tail-chain"), flavor, 3)


def test_the_degree_contract_refuses_invalid_data():
    for name, (call, _) in _per_degree_entry_points().items():
        with pytest.raises(InvalidInput, match="invalid data"):
            call(invalid_instance(), Flavor.PLUS, 2)


def test_d_squared_without_a_window_checks_the_default_one():
    """None stands for default_window(data), as in checked_window, but the
    data need not be valid; the span bound still holds."""
    for data in (by_name("tail-chain"), invalid_instance()):
        for flavor in ALL_FLAVORS:
            assert check_d_squared(data, flavor, None) == check_d_squared(
                data, flavor, default_window(data)), (data.name, flavor)
    assert not check_d_squared(invalid_instance(), Flavor.INFINITY, None)
    wide = MonopoleData.build("wide", [("a", 0), ("b", 3000000)])
    with pytest.raises(InvalidInput, match="spans more than"):
        check_d_squared(wide, Flavor.PLUS, None)


def test_d_squared_scan_forms_no_product_past_the_band(monkeypatch, work):
    """On invalid data the template identity fails and the window is
    scanned.  Its products are memoised by content, so (-1000, 1000) forms
    as many as the default window, and the scan still stops at the first
    degree of the window where D D does not vanish."""
    import monofloer.complexes as complexes

    real = complexes._differential
    read = []
    monkeypatch.setattr(complexes, "_differential", lambda data, flavor, n:
                        read.append(n) or real(data, flavor, n))
    for flavor in ALL_FLAVORS:
        counts = []
        for window in (default_window(invalid_instance()), (-1000, 1000)):
            data = invalid_instance()
            lo, hi = window
            first = next((n for n in range(lo, hi + 1) if not real(
                data, flavor, n - 1).mul(real(data, flavor, n)).is_zero()),
                None)
            data = invalid_instance()
            work.clear()
            read.clear()
            holds = check_d_squared(data, flavor, window)
            counts.append(work["mul"])
            assert (None if holds else read[-1]) == first, (flavor, window)
        assert counts[0] == counts[1], flavor


# -- the certified reduction ------------------------------------------------

def _drop_first(mat):
    return SparseIntMatrix(mat.rows, mat.cols, mat.entries[1:])


def _flip_first(mat):
    (i, j, v), *rest = mat.entries
    return SparseIntMatrix(mat.rows, mat.cols, ((i, j, -v), *rest))


# a broken reduction: the field of one band degree and how it is broken
BROKEN_REDUCTIONS = {"g drops an entry": ("g", _drop_first),
                     "f flips a sign": ("f", _flip_first)}


def _broken(data, table, field, breaking):
    """A copy of a real reduction table with the field broken at its first
    band degree n above lo + 1 where the field has entries, and n.  Degree
    lo - 1 of the certificate reads the tables at lo and lo + 1, so n is
    the first degree whose identities read the broken matrix."""
    lo, _ = _band(data)
    n = next(n for n in sorted(table)
             if n > lo + 1 and getattr(table[n], field).entries)
    broken = dict(table)
    broken[n] = table[n]._replace(
        **{field: breaking(getattr(table[n], field))})
    return broken, n


@pytest.mark.parametrize("label", BROKEN_REDUCTIONS)
@pytest.mark.parametrize("flavor", REDUCED_FLAVORS)
def test_certificate_rejects_a_broken_reduction(flavor, label):
    data = performance_instance()
    table = _reduce(data, flavor)
    _certify(data, flavor, table)
    broken, n = _broken(data, table, *BROKEN_REDUCTIONS[label])
    with pytest.raises(CheckFailed) as info:
        _certify(data, flavor, broken)
    assert info.value.degree == n


@pytest.mark.parametrize("data", [*curated_instances(),
                                  performance_instance()],
                         ids=lambda data: data.name)
def test_infinity_certificate_forms_ten_products(data, work, monkeypatch):
    """Infinity keeps every position, so its certificate reads two distinct
    tuples of matrices, one per parity: each new tuple forms the three
    identities' five products, two of them, D f and g D, on the parity
    template's lines (_on_template) and three as sparse products, and a
    repeated tuple forms none.  No D is selected.  The matching, the
    critical positions and the unit blocks of f and g are checked without
    a product."""
    import monofloer.complexes as complexes

    table = _reduce(data, Flavor.INFINITY)
    real = complexes._on_template
    monkeypatch.setattr(complexes, "_on_template", lambda *args, **kw: work.
                        update(["template products"]) or real(*args, **kw))
    work.clear()
    _certify(data, Flavor.INFINITY, table)
    assert (work["mul"], work["template products"], work["select"]) == \
        (6, 4, 0)


def _extra_row(mat):
    return SparseIntMatrix(mat.rows + 1, mat.cols, mat.entries)


def _extra_column(mat):
    return SparseIntMatrix(mat.rows, mat.cols + 1, mat.entries)


@pytest.mark.parametrize("field, breaking", [
    # D f no longer composes: the product's ValueError is a failure
    ("f", _extra_row),
    # g D and D' g compose but differ in shape
    ("g", _extra_column)])
def test_certificate_rejects_a_misshapen_reduction(field, breaking):
    data = performance_instance()
    broken, n = _broken(data, _reduce(data, Flavor.PLUS), field, breaking)
    with pytest.raises(CheckFailed, match="the reduction fails") as info:
        _certify(data, Flavor.PLUS, broken)
    assert info.value.degree == n


@pytest.mark.parametrize("field, breaking, identity", [
    ("f", _extra_column, "D f = f D'"),
    ("g", _extra_row, "g D = D' g")])
def test_certificate_fails_the_band_edge_table_below_the_band(
        field, breaking, identity):
    """Degree lo - 1 reads the table at lo as the one below it, before
    degree lo proves it.  An extra critical column in f(lo), or row in
    g(lo), fails D f = f D', or g D = D' g, there alone: every other
    identity at lo - 1 reads unbroken matrices.  At any later degree each
    of these two follows from the other three identities of that degree
    and the one before it, with D D = 0, so only lo - 1 tells them apart."""
    data = performance_instance()
    table = _reduce(data, Flavor.PLUS)
    lo, _ = _band(data)
    broken = {**table, lo: table[lo]._replace(
        **{field: breaking(getattr(table[lo], field))})}
    with pytest.raises(CheckFailed, match=re.escape(identity)) as info:
        _certify(data, Flavor.PLUS, broken)
    assert info.value.degree == lo - 1


def test_certificate_rejects_a_phantom_critical_generator():
    """A critical generator added at degree n with zero D', f and g keeps
    every identity but g f = 1, whose new diagonal entry is zero."""
    data = performance_instance()
    table = _reduce(data, Flavor.PLUS)
    lo, _ = _band(data)
    n = next(n for n in sorted(table) if n > lo + 1 and n + 1 in table)
    here, above = table[n], table[n + 1]
    broken = dict(table)
    broken[n] = here._replace(differential=_extra_column(here.differential),
                              f=_extra_column(here.f), g=_extra_row(here.g))
    broken[n + 1] = above._replace(
        differential=_extra_row(above.differential))
    with pytest.raises(CheckFailed, match="fails g f = 1") as info:
        _certify(data, Flavor.PLUS, broken)
    assert info.value.degree == n


def test_certificate_rejects_critical_positions_that_a_pair_uses():
    data = performance_instance()
    table = _reduce(data, Flavor.PLUS)
    lo, _ = _band(data)
    n = next(n for n in sorted(table) if n > lo + 1 and table[n].critical)
    broken = {**table, n: table[n]._replace(
        critical=tuple(p + 1 for p in table[n].critical))}
    with pytest.raises(CheckFailed, match="critical = the unpaired") as info:
        _certify(data, Flavor.PLUS, broken)
    assert info.value.degree == n


def test_a_broken_g_entry_on_a_paired_column_fails_the_next_degree():
    """g(n)[., U] is pinned by g D = D' g at degree n + 1, where g(n) is
    the reduction below: dropping such an entry fails there."""
    data = by_name("tail-chain")
    table = _reduce(data, Flavor.INFINITY)
    lo, _ = _band(data)
    n, entry = next((n, e) for n in sorted(table) if n > lo + 1
                    for e in table[n].g.entries
                    if e[1] not in table[n].critical)
    g = table[n].g
    broken = {**table, n: table[n]._replace(g=SparseIntMatrix(
        g.rows, g.cols, tuple(e for e in g.entries if e != entry)))}
    with pytest.raises(CheckFailed, match=re.escape("g D = D' g")) as info:
        _certify(data, Flavor.INFINITY, broken)
    assert info.value.degree == n + 1


def pairs_down(data, flavor, n):
    """The pairs down from degree n that the reduction cancels: (i, j,
    grading of a) for each step of the _lines table along n's parity that
    the pair rule (_active) keeps there, eta_a^k paired with 1_a^(k-1), with
    i and j their positions in the kept slices of n and n - 1."""
    above, below = _kept(data, flavor, n), _kept(data, flavor, n - 1)
    along = _lines(data, n % 2)[3]
    step = _active(along, flavor, n)
    return [(bisect_left(above, j), bisect_left(below, s[1]), s[0])
            for j in along if (s := step(j))]


def _homotopic(data, table, field):
    """A band degree n above lo + 1 and a copy of table with f(n) or g(n)
    moved by a chain homotopy that D f = f D', g D = D' g and g f = 1 all
    accept.  f becomes f + D(n + 1) s, with s sending a critical generator
    to a paired eta of degree n + 1, where D'(n + 1) = 0; g becomes
    g + t D(n), with t sending a paired one of degree n - 1 to a critical
    generator, where D'(n) = 0.  The line of D chosen meets no critical
    position, so f[c] = 1 and g[., c] = 1 still hold; it meets the partner
    of its pair, so f[U], or g[., M], is no longer zero."""
    from monofloer.complexes import _differential

    lo, _ = _band(data)
    for n in sorted(table):
        crit = table[n].critical
        if n <= lo + 1 or not crit or n + 1 not in table:
            continue
        if field == "f" and table[n + 1].differential.is_zero():
            d = _differential(data, Flavor.PLUS, n + 1)
            lines = {i: [(r, v) for (r, j, v) in d.entries if j == i]
                     for i, _, _ in pairs_down(data, Flavor.PLUS, n + 1)}
        elif field == "g" and table[n].differential.is_zero():
            d = _differential(data, Flavor.PLUS, n)
            lines = {j: [(c, v) for (r, c, v) in d.entries if r == j]
                     for _, j, _ in pairs_down(data, Flavor.PLUS, n)}
        else:
            continue
        line = next((line for line in lines.values()
                     if not any(p in crit for p, _ in line)), None)
        if line is not None:
            mat = getattr(table[n], field)
            moved = [(p, 0, v) if field == "f" else (0, p, v)
                     for p, v in line]
            return n, {**table, n: table[n]._replace(**{
                field: SparseIntMatrix.from_entries(
                    mat.rows, mat.cols, [*mat.entries, *moved])})}
    raise AssertionError("no degree admits the homotopy")


@pytest.mark.parametrize("field, check", [("f", "f[c] = 1, f[U] = 0"),
                                          ("g", "g[., c] = 1, g[., M] = 0")])
def test_a_homotopic_f_or_g_fails_its_unit_block(field, check):
    """The three identities hold for every map chain homotopic to f, or
    g, through the pairs; only f[U] = 0, or g[., M] = 0, pins the Morse
    data the theorem needs."""
    data = performance_instance()
    table = _reduce(data, Flavor.PLUS)
    n, broken = _homotopic(data, table, field)
    with pytest.raises(CheckFailed, match=re.escape(check)) as info:
        _certify(data, Flavor.PLUS, broken)
    assert info.value.degree == n


def _with_rule(monkeypatch, extra):
    """complexes._image_terms with the terms of extra(gen) added to gen's
    boundary, or put in place of those with the same target."""
    import monofloer.complexes as complexes

    real = complexes._image_terms

    def rule(data, gen):
        terms = dict(real(data, gen))
        terms.update(extra(gen))
        return list(terms.items())

    monkeypatch.setattr(complexes, "_image_terms", rule)


@pytest.mark.parametrize("flavor", REDUCED_FLAVORS)
def test_a_pair_whose_entry_is_not_minus_one_fails_the_matching(
        monkeypatch, flavor):
    """eta_a^k -> 1_a^(k-1) with +1, a unit but not -1: the matching check
    fails at the first degree that reads the template of a's parity."""
    data = performance_instance()
    point = data.points[11]
    _with_rule(monkeypatch, lambda gen: [
        (Generator(KIND_ONE, point.id, gen.k - 1), 1)]
        if (gen.kind, gen.point) == (KIND_ETA, point.id) else [])
    lo, _ = _band(data)
    with pytest.raises(CheckFailed, match="unit-triangular matching") as info:
        _reduction(data, flavor)
    assert info.value.degree == lo - 1 + (lo - 1 - point.grading) % 2


def test_a_cyclic_matching_fails_the_matching(monkeypatch):
    """Two points of one grading whose etas each meet the other's partner:
    A = [[-1, 2], [1, -1]] is invertible over Z, but the matching is
    cyclic, so no homotopy need exist.  The flows still end, and the
    matching check fails at the first degree of the certificate."""
    data = MonopoleData.build("twins", [("a", 1), ("b", 1), ("c", 0)],
                              n=[("a", "c", 1), ("b", "c", 1)])
    other = {"a": ("b", 2), "b": ("a", 1)}
    _with_rule(monkeypatch, lambda gen: [
        (Generator(KIND_ONE, other[gen.point][0], gen.k - 1),
         other[gen.point][1])] if gen.kind == KIND_ETA
        and gen.point in other else [])
    lo, _ = _band(data)
    for flavor in REDUCED_FLAVORS:
        with pytest.raises(CheckFailed,
                           match="unit-triangular matching") as info:
            _reduction(data, flavor)
        assert info.value.degree == lo - 1 + (lo - 1 - 1) % 2


def test_only_a_square_sum_is_the_identity():
    eye = SparseIntMatrix.from_entries(2, 2, [(0, 0, 1), (1, 1, 1)])
    wide = SparseIntMatrix(2, 3, eye.entries)
    assert _sums_to_identity(eye)
    assert not _sums_to_identity(wide)


# a reduction broken under the CLI: its flavor, how it is broken, and the
# verify-all checks that read that flavor's reduction
CLI_BROKEN = {
    "g drops an entry": (Flavor.PLUS, "g drops an entry"),
    "f flips a sign": (Flavor.PLUS, "f flips a sign"),
    "Infinity, g drops an entry": (Flavor.INFINITY, "g drops an entry"),
}
READERS = {
    Flavor.PLUS: ("les-main", "reduced-comparison", "les-hat", "structure",
                  "duality"),
    Flavor.INFINITY: ("infinity-pattern", "les-main", "reduced-comparison"),
}


@pytest.mark.parametrize("case", CLI_BROKEN)
def test_verify_all_reports_a_broken_reduction(monkeypatch, tmp_path, case):
    """A reduction that fails its certificate fails the checks that read
    it, at its degree, with exit 1 and no traceback, and so does the
    homology of its flavor.  duality reads the dataset's Plus reduction,
    for the cohomology, before the reversed dataset's, which is broken by
    the same patch."""
    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    import monofloer.complexes as complexes
    from monofloer.cli import main

    flavor, label = CLI_BROKEN[case]
    real = complexes._reduce
    degrees = {}

    def reduce_broken(data, which):
        table = real(data, which)
        if which is not flavor:
            return table
        broken, n = _broken(data, table, *BROKEN_REDUCTIONS[label])
        degrees[data.name] = n
        return broken

    def run(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, str(path)])
        assert code == 1
        assert "Traceback" not in err.getvalue()
        return json.loads(out.getvalue())["results"]

    monkeypatch.setattr(complexes, "_reduce", reduce_broken)
    data = by_name("tail-chain")
    path = tmp_path / "tail-chain.json"
    path.write_bytes(serialize(data))
    results = run("verify-all")
    assert results["ok"] is False
    failed = {check["name"]: check["degree"] for check in results["checks"]
              if not check["ok"]}
    assert failed == dict.fromkeys(READERS[flavor], degrees[data.name])
    assert all(check == {"name": check["name"], "ok": True}
               for check in results["checks"] if check["name"] not in failed)
    assert run("homology", "--flavor", flavor.value) == {
        "ok": False, "degree": degrees[data.name]}


def test_reduced_slices_hold_at_most_two_generators():
    """On the 50-point instance a slice of about fifty generators reduces
    to at most two in Plus and Minus (theta and one point's generator) and
    to theta alone in Infinity."""
    data = performance_instance()
    lo, hi = default_window(data)
    for flavor, most in ((Flavor.MINUS, 2), (Flavor.PLUS, 2),
                         (Flavor.INFINITY, 1)):
        for n in range(lo, hi + 1):
            critical = _reduced(data, flavor, n).f.cols
            assert critical <= most, (flavor, n, critical)


def _tables_digest(tables):
    """The digest of (data, flavor, table) triples, each Reduction read in
    the id order (theta first, then the points by id) it was recorded in:
    every kept position moves to its place in that order, and each
    critical generator to its place among the critical ones, so D', f, g
    and critical are pinned entry by entry."""
    digest = hashlib.sha256()
    for data, flavor, table in tables:
        blob = oracle_dataset(data)

        def moved(n, critical):
            # kept and critical places, from the grading order to id order
            kept = {new: old for old, new in enumerate(
                oracle.from_id_order(blob, flavor.value, n))}
            old = sorted(kept[p] for p in critical)
            return kept, {c: old.index(kept[p])
                          for c, p in enumerate(critical)}, tuple(old)

        for n in sorted(table):
            red = table[n]
            kept, here, critical = moved(n, red.critical)
            _, below, _ = moved(n - 1, _critical(data, flavor, n - 1))
            digest.update(repr((n, critical)).encode())
            for mat, rows, cols in ((red.differential, below, here),
                                    (red.f, kept, here), (red.g, here, kept)):
                entries = tuple(sorted(
                    (rows[i], cols[j], v) for (i, j, v) in mat.entries))
                digest.update(repr((n, mat.rows, mat.cols,
                                    entries)).encode())
    return digest.hexdigest()


# D', f, g and critical of the Minus, Infinity and Plus tables of the
# curated datasets and the 50-point instance, as built when g was read off
# one flow per paired one-generator, together with a homotopy h, and the
# basis was in id order
REDUCTION_TABLES = \
    "ff9c73e3be8de70a0e422e289f4f6ef90f8a0f018667f3b99973662d6dfb327e"


def test_infinity_builds_one_reduction_per_parity():
    """Infinity keeps every position in every degree, so its band degrees
    share at most two Reductions, one per parity; sharing leaves every
    table unchanged by content."""
    datasets = [*curated_instances(), performance_instance()]
    for data in datasets:
        table = _reduce(data, Flavor.INFINITY)
        assert len({id(red) for red in table.values()}) <= 2, data.name
    assert _tables_digest((data, flavor, _reduce(data, flavor))
                          for data in datasets
                          for flavor in REDUCED_FLAVORS) == REDUCTION_TABLES



def test_reduce_builds_only_what_a_new_key_needs(monkeypatch):
    """Infinity's two Reductions read the pair rule's critical positions
    of three consecutive degrees (each key's degree and the one below), not
    of every band degree, and run one flow down and one along per critical
    generator: theta, in the even degree."""
    import monofloer.complexes as complexes

    calls, flows = [], []
    real, flow = complexes._critical, complexes._flow
    monkeypatch.setattr(complexes, "_critical",
                        lambda *args: calls.append(args[2]) or real(*args))
    monkeypatch.setattr(complexes, "_flow",
                        lambda *args: flows.append(1) or flow(*args))
    _reduce(performance_instance(), Flavor.INFINITY)
    assert 0 < len(calls) <= 4
    assert sorted(set(calls)) == list(range(min(calls), min(calls) + 3))
    assert len(flows) == 2

def test_template_products_are_the_products_of_the_selections():
    """_on_template reads D(n) E, and with left E D(n), on the parity
    template's lines at the kept positions: with E the identity on the kept
    slice it is D(n) itself in every flavor and degree, and with E = f(n),
    or g(n - 1), it is the product the certificate compares, exactly,
    since f's rows and g's columns are kept."""
    import monofloer.complexes as complexes
    from monofloer.complexes import _differential, _kept, _lines

    for data in [*curated_instances(), performance_instance()]:
        lo, hi = _band(data)
        for flavor in ALL_FLAVORS:
            for n in range(lo - 1, hi + 2):
                columns, rows, _, _ = _lines(data, n % 2)
                above, below = (_kept(data, flavor, m) for m in (n, n - 1))
                d = _differential(data, flavor, n)
                assert complexes._on_template(
                    columns, SparseIntMatrix.identity(len(above)), above,
                    below) == d, (data.name, flavor, n)
                assert complexes._on_template(
                    rows, SparseIntMatrix.identity(len(below)), below,
                    above, left=True) == d, (data.name, flavor, n)
                if flavor in REDUCED_FLAVORS:
                    f = _reduced(data, flavor, n).f
                    g = _reduced(data, flavor, n - 1).g
                    assert complexes._on_template(
                        columns, f, above, below) == d.mul(f)
                    assert complexes._on_template(
                        rows, g, below, above, left=True) == g.mul(d)


class _CountedPasses(tuple):
    """A dataset's points that count the passes made over them."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()


def test_reductions_select_nothing_and_pass_over_the_points_per_parity(
        work):
    """On the 50-point instance, once the kept positions are known,
    certified reductions of Minus, Infinity and Plus select no D and make
    no pass over the points in any degree: they read the parity templates
    and their lines, a constant number of passes for more than sixty band
    degrees.  The warm-up builds the two layouts; dropping them leaves the
    reductions' own pass per parity to count."""
    from monofloer.complexes import _kept, _layout

    data = performance_instance()
    lo, hi = _band(data)
    for flavor in REDUCED_FLAVORS:
        for n in range(lo - 3, hi + 3):
            _kept(data, flavor, n)
    checked_window(data, None)
    for parity in (0, 1):
        del data._memo[_layout.__wrapped__, parity]
    object.__setattr__(data, "points", _CountedPasses(data.points))
    work.clear()
    for flavor in REDUCED_FLAVORS:
        _reduction(data, flavor)
    assert work["select"] == 0
    assert 0 < _CountedPasses.passes <= 6 < hi - lo


@pytest.mark.parametrize("flavor", REDUCED_FLAVORS)
def test_a_broken_flow_fails_the_certificate_at_its_degree(
        monkeypatch, flavor):
    """One _flow output broken, for each flow of a reduction of the
    curated datasets and the 50-point instance in turn: the first multiple
    it adds, or else the first entry of the chain it leaves, plus one.
    Each table this changes fails the certificate at the first degree that
    reads the change or, for a g entry on a paired column, which only
    g D = D' g reads where g is the reduction below, at the next."""
    import monofloer.complexes as complexes
    from monofloer.complexes import _band_degree

    real = complexes._flow
    calls = []

    def flow(step, chain):
        rest, added = real(step, chain)
        calls.append(1)
        if len(calls) - 1 == broken:
            if added:
                added = {**added, next(iter(added)): 1 + next(
                    iter(added.values()))}
            elif rest:
                rest = {**rest, next(iter(rest)): 1 + next(
                    iter(rest.values()))}
        return rest, added

    monkeypatch.setattr(complexes, "_flow", flow)
    failed = []
    for data in [*curated_instances(), performance_instance()]:
        broken, (lo, hi) = -1, _band(data)
        clean = _reduce(data, flavor)
        for broken in range(len(calls)):
            calls.clear()
            table = _reduce(data, flavor)
            changed = {n for n in table if table[n] != clean[n]}
            if changed:
                # the certificate's degrees from lo - 1 read the tables at
                # the band degrees of n - 1 and n
                first = next(n for n in range(lo - 1, hi + 2) if changed & {
                    _band_degree(data, n - 1), _band_degree(data, n)})
                with pytest.raises(CheckFailed) as info:
                    _certify(data, flavor, table)
                assert info.value.degree in (first, first + 1), (
                    data.name, broken)
                failed.append(info.value.degree)
        calls.clear()
    assert len(failed) >= (2 if flavor is Flavor.INFINITY else 30), \
        len(failed)


def test_a_long_m_chain_reduces_exactly_with_big_coefficients():
    """Forty points in one m-chain with m = 3: cancelling the pairs of a
    degree multiplies the couplings along the chain, up to 3^39 (62 bits)
    in f and g, and the reduced homology stays exact."""
    from monofloer.homology import presentation_at
    from monofloer.sequences import check_les_main

    ids = [f"c{i:02d}" for i in range(40)]
    data = MonopoleData.build(
        "m-chain-40", [(p, 40 - 2 * i) for i, p in enumerate(ids)],
        m=[(a, b, 3) for a, b in zip(ids, ids[1:])])
    assert check_les_main(data).all_exact()
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in REDUCED_FLAVORS:
        for n in range(lo, hi + 1):
            got = presentation_at(data, flavor, n).invariants
            assert (got.free_rank, list(got.torsion)) == \
                oracle.oracle_homology_at(blob, flavor.value, n), (flavor, n)
    largest = max(abs(v) for flavor in REDUCED_FLAVORS
                  for red in _reduction(data, flavor).values()
                  for mat in (red.differential, red.f, red.g)
                  for (_, _, v) in mat.entries)
    assert largest > 2 ** 60
