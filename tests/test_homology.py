"""Per-degree homology, graded reports with periodic tails, induced maps."""

from __future__ import annotations

from dataclasses import replace

import pytest

import oracle
from monofloer.data import MonopoleData, curated_instances, \
    invalid_instance, InvalidInput
from monofloer.actions import _U_FLAVORS, verify_u_homotopy
from monofloer.complexes import Flavor, _band, _kept, _same, _selection, \
    _template, check_d_squared, default_window
from monofloer import homology
from monofloer.intlinalg import AbelianGroupInvariants, SparseIntMatrix
from monofloer.homology import (
    ChainMapSlice,
    HomologyClassMap,
    NotChainMap,
    WindowTooSmall,
    graded_homology,
    homology_at,
    identity_chain_map,
    induced_on_homology,
    presentation_at,
    structural_chain_map,
)
from monofloer.cli import verify_all
from monofloer.duality import duality_check
from monofloer.sequences import check_les_hat, check_les_main, hf_red
from monofloer.spectral import structure_theorem
from test_acceptance import performance_instance

Z = AbelianGroupInvariants(1)
Z2 = AbelianGroupInvariants(2)
ZERO = AbelianGroupInvariants(0)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def grp(free, *torsion):
    return AbelianGroupInvariants(free, tuple(torsion))


# -- frozen homology values -------------------------------------------------

def test_theta_tower_patterns():
    empty = by_name("empty")
    for n in range(-4, 7):
        expect_plus = Z if n >= 0 and n % 2 == 0 else ZERO
        assert homology_at(empty, Flavor.PLUS, n) == expect_plus
        expect_minus = Z if n <= -2 and n % 2 == 0 else ZERO
        assert homology_at(empty, Flavor.MINUS, n) == expect_minus
        expect_inf = Z if n % 2 == 0 else ZERO
        assert homology_at(empty, Flavor.INFINITY, n) == expect_inf
        assert homology_at(empty, Flavor.HAT, n) == (Z if n == 0 else ZERO)
        assert homology_at(empty, Flavor.NONEQUIVARIANT, n) == ZERO


def test_theta_pair_plus_frozen():
    d = by_name("theta-coupled-pair")
    values = {-2: Z, -1: ZERO, 0: ZERO, 1: ZERO, 2: Z, 3: ZERO, 4: Z}
    for n, expect in values.items():
        assert homology_at(d, Flavor.PLUS, n) == expect, n


def test_two_step_plus_frozen():
    d = by_name("two-step")
    assert homology_at(d, Flavor.PLUS, 0) == grp(1, 2)
    assert homology_at(d, Flavor.PLUS, 1) == ZERO
    assert homology_at(d, Flavor.NONEQUIVARIANT, 1) == ZERO
    assert homology_at(d, Flavor.NONEQUIVARIANT, 0) == grp(0, 2)


def test_euler_pair_plus_frozen():
    d = by_name("euler-pair")
    expect = {-2: ZERO, -1: ZERO, 0: Z2, 1: ZERO, 2: Z2, 3: ZERO,
              4: Z, 5: ZERO, 6: Z, 7: ZERO, 8: Z}
    for n, want in expect.items():
        assert homology_at(d, Flavor.PLUS, n) == want, n


def test_tail_chain_plus_frozen():
    d = by_name("tail-chain")
    expect = {-3: ZERO, -2: Z, -1: ZERO, 0: grp(0, 3), 1: ZERO,
              2: grp(0, 6), 3: ZERO, 4: Z, 5: ZERO, 6: Z, 7: ZERO, 8: Z}
    for n, want in expect.items():
        assert homology_at(d, Flavor.PLUS, n) == want, n


def test_homology_requires_valid_data():
    with pytest.raises(InvalidInput):
        homology_at(invalid_instance(), Flavor.PLUS, 0)


# -- oracle cross-check -----------------------------------------------------

def oracle_dataset(data):
    return {
        "points": [{"id": p.id, "gr": p.grading} for p in data.points],
        "n": [{"from": s, "to": t, "value": v} for (s, t, v) in data.n_coeffs],
        "m": [{"from": s, "to": t, "value": v} for (s, t, v) in data.m_coeffs],
    }


def test_homology_matches_dense_oracle_everywhere():
    for data in curated_instances():
        blob = oracle_dataset(data)
        lo, hi = default_window(data)
        for flavor in Flavor:
            for n in range(lo, hi + 1):
                free, torsion = oracle.oracle_homology_at(blob, flavor.value, n)
                got = homology_at(data, flavor, n)
                assert (got.free_rank, list(got.torsion)) == (free, torsion), (
                    data.name, flavor, n)


# -- graded reports and tails -----------------------------------------------

def test_infinity_graded_pattern_with_tails():
    # a one-degree window has both tails too: they are read past its edges
    for data in curated_instances():
        band_lo, band_hi = _band(data)
        for window in (default_window(data),
                       *((n, n) for n in range(band_lo - 2, band_hi + 3))):
            report = graded_homology(data, Flavor.INFINITY, window)
            lo, hi = report.window
            for n in range(lo, hi + 1):
                assert report.groups[n] == (Z if n % 2 == 0 else ZERO), (
                    data.name, n)
            for tail in (report.tail_above, report.tail_below):
                assert tail is not None, (data.name, window)
                assert tail.even == Z
                assert tail.odd == ZERO


def test_minus_theta_tower_tails():
    report = graded_homology(by_name("empty"), Flavor.MINUS, (-8, 6))
    assert report.groups[-2] == Z
    assert report.groups[-1] == ZERO
    assert report.groups[0] == ZERO
    assert report.tail_below is not None
    assert report.tail_below.even == Z
    assert report.tail_below.odd == ZERO
    # nothing above the top of the minus complex
    assert report.tail_above is not None
    assert report.tail_above.even == ZERO
    assert report.tail_above.odd == ZERO
    # a one-degree window under the band has its tower below
    tail = graded_homology(by_name("tail-chain"), Flavor.MINUS,
                           (-6, -6)).tail_below
    assert tail is not None and (tail.even, tail.odd) == (Z, ZERO)


def test_plus_tails():
    report = graded_homology(by_name("tail-chain"), Flavor.PLUS, (-6, 9))
    assert report.tail_above is not None
    assert report.tail_above.even == Z
    assert report.tail_above.odd == ZERO
    assert report.tail_below is not None
    assert report.tail_below.even == ZERO
    assert report.tail_below.odd == ZERO
    # a one-degree window at the band's top has its tower above
    tail = graded_homology(by_name("tail-chain"), Flavor.PLUS,
                           (7, 7)).tail_above
    assert tail is not None and (tail.even, tail.odd) == (Z, ZERO)


def test_hat_graded_is_bounded():
    report = graded_homology(by_name("empty"), Flavor.HAT, (-4, 6))
    assert report.groups[0] == Z
    assert all(report.groups[n] == ZERO for n in range(-4, 7) if n != 0)
    assert report.tail_above is not None and report.tail_above.even == ZERO
    assert report.tail_below is not None and report.tail_below.odd == ZERO


def test_narrow_window_has_no_unverified_tail():
    d = by_name("tail-chain")
    report = graded_homology(d, Flavor.PLUS, (0, 2))
    assert report.tail_above is None
    assert report.tail_below is None


def test_a_window_far_past_the_band_has_the_tails_of_one_near_it():
    """Every degree past the band folds onto a band degree, so the tails of
    a window however far out are those of one just past the band."""
    for data in curated_instances():
        band_lo, band_hi = _band(data)
        for flavor in Flavor:
            for far, near in ((-10 ** 9, band_lo - 3), (10 ** 9, band_hi + 3)):
                got, want = (graded_homology(data, flavor, (n, n))
                             for n in (far, near))
                assert (got.tail_above, got.tail_below) == (
                    want.tail_above, want.tail_below), (data.name, flavor)


def test_kernel_work_does_not_grow_with_the_window(work, monkeypatch):
    """The kernel and quotient calls, Smith factorizations and template
    builds of graded_homology are the same on a window 25 times wider.  A
    matrix with no entries is answered from its shape, so some flavors
    factor nothing here; each still makes kernel and quotient calls."""
    import monofloer.homology as homology

    for name in ("kernel_basis", "QuotientPresentation"):
        real = getattr(homology, name)
        monkeypatch.setattr(homology, name, lambda *args, real=real: (
            work.update(["kernels"]) or real(*args)))
    for flavor in Flavor:
        counts = []
        for window in ((-20, 20), (-1000, 1000)):
            work.clear()
            graded_homology(by_name("tail-chain"), flavor, window)
            counts.append((work["kernels"], work["factorizations"],
                           work["slice_map"]))
        assert counts[0] == counts[1], flavor
        assert counts[0][0] > 0 and counts[0][2] > 0, flavor

    data = by_name("tail-chain")
    assert presentation_at(data, Flavor.INFINITY, 40) is presentation_at(
        data, Flavor.INFINITY, 42)
    for flavor in (Flavor.PLUS, Flavor.MINUS, Flavor.HAT):
        assert presentation_at(data, flavor, 200) is presentation_at(
            data, flavor, 202)


def test_graded_homology_stores_no_memo_entry_per_degree():
    """Each degree of a window outside the band reads its band-edge
    presentation, so a wider window stores nothing more."""
    for flavor in Flavor:
        sizes = []
        for window in ((-20, 20), (-1000, 1000)):
            data = by_name("tail-chain")
            graded_homology(data, flavor, window)
            sizes.append(len(data._memo))
        assert sizes[0] == sizes[1], (flavor, sizes)


def test_graded_homology_asks_once_per_fold_class(monkeypatch):
    """graded_homology asks presentation_at as often over (-1000, 1000) as
    over (-40, 40), and its groups, in ascending degree, are homology_at's
    on windows below, across and above the band, down to one degree."""
    calls = []
    asked = homology.presentation_at
    monkeypatch.setattr(homology, "presentation_at",
                        lambda *args: calls.append(args) or asked(*args))
    for data in (by_name("tail-chain"), performance_instance()):
        band_lo, band_hi = _band(data)
        windows = [(-1000, band_lo - 5), (band_lo - 9, band_hi + 9),
                   (band_hi + 5, 1000), (-1000, 1000)]
        windows += [(n, n + width) for edge in (band_lo, band_hi)
                    for n in range(edge - 3, edge + 4) for width in (0, 1)]
        for flavor in Flavor:
            counts = []
            for window in ((-40, 40), (-1000, 1000)):
                calls.clear()
                graded_homology(data, flavor, window)
                counts.append(len(calls))
            assert counts[0] == counts[1], (data.name, flavor, counts)
            for lo, hi in windows:
                got = graded_homology(data, flavor, (lo, hi)).groups
                assert list(got.items()) == [
                    (n, homology_at(data, flavor, n))
                    for n in range(lo, hi + 1)], (data.name, flavor, lo, hi)


def test_graded_homology_and_structure_read_no_homology_at(monkeypatch):
    """The engine's own loops read presentation_at, so the per-degree
    input contract of homology_at runs at the boundary only: with
    homology_at made to raise, graded_homology and structure_theorem
    return the same values on the curated set."""
    from monofloer import spectral

    def run():
        return [([graded_homology(data, flavor) for flavor in Flavor],
                 structure_theorem(data)) for data in curated_instances()]

    want = run()

    def refuse(*args):
        raise AssertionError("homology_at called inside the engine")

    monkeypatch.setattr(homology, "homology_at", refuse)
    monkeypatch.setattr(spectral, "homology_at", refuse, raising=False)
    assert run() == want


# the checks of cli.verify_all, in its order, each called as it calls it,
# with the number of Infinity template rules it reads (D, u, the
# u-homotopy and the identity, each per orientation)
VERIFY_ALL_CHECKS = (
    ("d-squared", 1, lambda data, window: all(
        check_d_squared(data, flavor, window) for flavor in Flavor)),
    ("infinity-pattern", 1,
     lambda data, window: graded_homology(data, Flavor.INFINITY, window)),
    ("les-main", 2, check_les_main),
    ("reduced-comparison", 2, hf_red),
    ("u-homotopy", 4, lambda data, window: all(
        verify_u_homotopy(data, flavor, window) for flavor in _U_FLAVORS)),
    ("les-hat", 3, check_les_hat),
    ("structure", 1, structure_theorem),
    ("duality", 4, duality_check),
)


def test_chain_level_builds_do_not_grow_with_the_window(work):
    """Every verify-all check, on a fresh dataset, makes as many
    factorizations, sparse products, template selections and template
    builds over (-1000, 1000) as over (-40, 40), and builds each of its
    templates at most once per parity."""
    assert [check for check, _, _ in VERIFY_ALL_CHECKS] == [
        entry["name"] for entry in verify_all(by_name("tail-chain"))["checks"]]
    for make in (lambda: by_name("tail-chain"), performance_instance):
        for check, rules, run in VERIFY_ALL_CHECKS:
            counts = []
            for window in ((-40, 40), (-1000, 1000)):
                work.clear()
                run(make(), window)
                counts.append(dict(work))
            name = make().name
            assert counts[0] == counts[1], (name, check, counts)
            assert 0 < counts[0].get("slice_map", 0) <= 2 * rules, (
                name, check, counts)


# -- induced maps -----------------------------------------------------------

def test_identity_induces_identity():
    d = by_name("theta-coupled-pair")
    window = (-2, 4)
    chain = identity_chain_map(d, Flavor.PLUS, window)
    induced = induced_on_homology(d, Flavor.PLUS, Flavor.PLUS, chain, window)
    for n in range(window[0], window[1] + 1):
        mat = induced.matrices[n]
        size = len(presentation_at(d, Flavor.PLUS, n).generators)
        assert mat == SparseIntMatrix.identity(size)


def test_omega_inverse_induced_on_theta_tower():
    empty = by_name("empty")
    window = (-2, 6)
    chain = structural_chain_map(empty, "omega_inverse", window,
                                 flavor=Flavor.PLUS)
    induced = induced_on_homology(empty, Flavor.PLUS, Flavor.PLUS, chain,
                                  window)
    assert induced.shift == -2
    for r in range(1, 4):
        assert induced.matrices[2 * r].to_dense() in ([[1]], [[-1]])
    zero_map = induced.matrices[0]
    assert (zero_map.rows, zero_map.cols) == (0, 1)


def test_projection_induced_at_degree_two():
    d = by_name("theta-coupled-pair")
    window = (0, 4)
    chain = structural_chain_map(d, "projection_plus", window)
    induced = induced_on_homology(d, Flavor.INFINITY, Flavor.PLUS, chain,
                                  window)
    assert induced.matrices[2].to_dense() in ([[1]], [[-1]])


def test_induced_composes():
    empty = by_name("empty")
    window = (0, 4)
    chain = structural_chain_map(empty, "omega_inverse", (-4, 8),
                                 flavor=Flavor.PLUS)
    twice = ChainMapSlice(
        source=Flavor.PLUS, target=Flavor.PLUS, shift=-4,
        matrices={n: chain.matrices[n - 2].mul(chain.matrices[n])
                  for n in range(-3, 8)})
    once = induced_on_homology(empty, Flavor.PLUS, Flavor.PLUS, chain, (-4, 6))
    both = induced_on_homology(empty, Flavor.PLUS, Flavor.PLUS, twice, window)
    for n in range(window[0], window[1] + 1):
        assert both.matrices[n] == once.matrices[n - 2].mul(once.matrices[n])


def test_broken_chain_map_detected():
    d = by_name("two-step")
    window = (-1, 3)
    chain = structural_chain_map(d, "projection_plus", window)
    bad = dict(chain.matrices)
    # zero out one slice; commutation must fail at an adjacent degree
    bad[1] = SparseIntMatrix.zero(bad[1].rows, bad[1].cols)
    broken = ChainMapSlice(Flavor.INFINITY, Flavor.PLUS, 0, bad)
    with pytest.raises(NotChainMap) as err:
        induced_on_homology(d, Flavor.INFINITY, Flavor.PLUS, broken, window)
    assert err.value.degree in (1, 2)


def test_a_break_far_outside_the_band_is_still_found_first():
    """A slice that is not the selection of a named rule is checked at
    every degree; a slice broken at 500, far above the band, differs from
    every earlier one, so the first failing degree is still 500."""
    d = by_name("tail-chain")
    window = (-600, 600)
    assert _band(d)[1] < 500
    chain = identity_chain_map(d, Flavor.PLUS, window)
    bad = dict(chain.matrices)
    bad[500] = bad[500].scale(-1)
    broken = ChainMapSlice(Flavor.PLUS, Flavor.PLUS, 0, bad)
    with pytest.raises(NotChainMap) as err:
        induced_on_homology(d, Flavor.PLUS, Flavor.PLUS, broken, window)
    assert err.value.degree == 500
    assert induced_on_homology(d, Flavor.PLUS, Flavor.PLUS, chain, window)


@pytest.mark.parametrize("flavor", list(Flavor), ids=lambda f: f.value)
def test_a_second_induced_identity_forms_no_commutation_product(
        flavor, monkeypatch):
    """identity_chain_map names its rule, (_same, 0), so its slices are
    the selections _commutes_on_templates proves: once that proof is
    memoised, the commutation check reads no differential at any window
    degree, and so forms none of its products."""
    d = by_name("tail-chain")
    window = (-40, 40)
    chain = identity_chain_map(d, flavor, window)
    assert chain.rule == (_same, 0)
    first = induced_on_homology(d, flavor, flavor, chain, window)
    differential, reads = homology._differential, []

    def counted(*args):
        reads.append(args)
        return differential(*args)

    monkeypatch.setattr(homology, "_differential", counted)
    assert induced_on_homology(d, flavor, flavor, chain, window) == first
    assert reads == []


def test_a_replaced_slice_of_a_proved_map_is_still_checked():
    """A chain map that names its templates skips only the degrees whose
    slices are those templates' selections; a zeroed slice forms its
    products and fails."""
    d = by_name("two-step")
    window = (-1, 3)
    chain = structural_chain_map(d, "projection_plus", window)
    assert homology._commutes_on_templates(
        d, Flavor.INFINITY, Flavor.PLUS, *chain.rule, 0)
    bad = dict(chain.matrices)
    bad[1] = SparseIntMatrix.zero(bad[1].rows, bad[1].cols)
    with pytest.raises(NotChainMap) as err:
        induced_on_homology(d, Flavor.INFINITY, Flavor.PLUS,
                            replace(chain, matrices=bad), window)
    assert err.value.degree in (1, 2)


def test_named_maps_that_are_not_chain_maps_are_scanned():
    """Two identity selections whose templates commute with D but which
    are no chain maps: from Plus into Infinity, though Plus is a quotient
    (D takes eta_a^0 to 1_a^(-1), which Plus lacks), and Omega on Plus,
    which raises k.  The proof refuses both, one for Plus's interval
    starting after Infinity's and one for its shift, so the scan finds
    the break."""
    d = by_name("two-step")
    window = (-1, 3)
    for source, target, shift in ((Flavor.PLUS, Flavor.INFINITY, 0),
                                  (Flavor.PLUS, Flavor.PLUS, 2)):
        matrices = {n: _selection(d, _template, (_same, 0, n % 2),
                                  _kept(d, target, n + shift),
                                  _kept(d, source, n))
                    for n in range(window[0] - 2, window[1] + 3)}
        chain = ChainMapSlice(source, target, shift, matrices, (_same, 0))
        assert not homology._commutes_on_templates(
            d, source, target, _same, 0, shift)
        with pytest.raises(NotChainMap):
            induced_on_homology(d, source, target, chain, window)


def test_a_proved_chain_map_forms_no_commutation_product(work):
    """omega_inverse on Plus is proved once on its templates, so a second
    call forms no product in a window of acyclic degrees, which carry no
    homology generator; the same slices without their rule form products
    on every call."""
    d = MonopoleData.build("domino", [("a", -4), ("b", -5)],
                           n=[("a", "b", 1)])
    window = (-9, -1)
    chain = structural_chain_map(d, "omega_inverse", window, Flavor.PLUS)
    for rule, scanned in ((chain.rule, False), (None, True)):
        named = replace(chain, rule=rule)
        induced_on_homology(d, Flavor.PLUS, Flavor.PLUS, named, window)
        work.clear()
        induced_on_homology(d, Flavor.PLUS, Flavor.PLUS, named, window)
        assert (work["mul"] > 0) is scanned, rule


def test_induced_refuses_a_flavor_mismatch_and_a_misshapen_slice():
    d = by_name("two-step")
    window = (-1, 3)
    chain = structural_chain_map(d, "projection_plus", window)
    for source, target in ((Flavor.PLUS, Flavor.PLUS),
                           (Flavor.INFINITY, Flavor.MINUS)):
        with pytest.raises(InvalidInput, match="flavors disagree"):
            induced_on_homology(d, source, target, chain, window)
    bad = dict(chain.matrices)
    bad[1] = SparseIntMatrix.zero(bad[1].rows + 1, bad[1].cols)
    misshapen = ChainMapSlice(Flavor.INFINITY, Flavor.PLUS, 0, bad)
    with pytest.raises(InvalidInput, match="degree-1 slice has the wrong"):
        induced_on_homology(d, Flavor.INFINITY, Flavor.PLUS, misshapen,
                            window)


def test_structural_chain_map_refuses_an_unknown_map_and_a_bare_omega():
    d = by_name("two-step")
    with pytest.raises(InvalidInput, match="unknown structural map"):
        structural_chain_map(d, "projection_sideways", (-1, 3))
    with pytest.raises(InvalidInput, match="needs a flavor"):
        structural_chain_map(d, "omega_inverse", (-1, 3))


def test_window_too_small_detected():
    d = by_name("two-step")
    chain = structural_chain_map(d, "projection_plus", (0, 2))
    with pytest.raises(WindowTooSmall):
        induced_on_homology(d, Flavor.INFINITY, Flavor.PLUS, chain, (-4, 6))
