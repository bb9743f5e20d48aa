"""Orientation-reversal pairing, adjointness, cohomology, and the duality
isomorphisms."""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import pytest

from monofloer.complexes import Flavor, _band, _differential, \
    default_window
from monofloer.data import CheckFailed, InvalidInput, MonopoleData, THETA, \
    curated_instances, reverse_orientation, validate
from monofloer.duality import (
    _is_perfect,
    _pairing_proved,
    cohomology,
    duality_check,
    hat_pairing_matrix,
    pairing_matrix,
    verify_adjointness,
)
from monofloer.intlinalg import AbelianGroupInvariants, SparseIntMatrix
from test_acceptance import performance_instance

Z = AbelianGroupInvariants(1)
ZERO = AbelianGroupInvariants(0)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def probe_instance():
    """Carries all four coefficient families at once."""
    return MonopoleData.build(
        "probe", [("a", 1), ("e", 0), ("d", -2)],
        n=[("a", "e", 1), ("a", THETA, 1), (THETA, "d", -1)],
        m=[("e", "d", 1)])


def dashes_instance():
    """A point id ending in two dashes, which reversal must toggle back."""
    return MonopoleData.build("dashes", [("a--", 1), ("d", -2)],
                              n=[("a--", THETA, 1)])


def is_permutation(mat):
    if mat.rows != mat.cols:
        return False
    if len(mat.entries) != mat.rows:
        return False
    rows = {i for (i, _, _) in mat.entries}
    cols = {j for (_, j, _) in mat.entries}
    values = {v for (_, _, v) in mat.entries}
    return (len(rows) == mat.rows and len(cols) == mat.rows
            and values <= {1})


# -- the pairing ------------------------------------------------------------

def test_pairing_frozen_on_theta_tower():
    slice0 = pairing_matrix(by_name("empty"), 0)
    assert slice0.degree == 0
    assert slice0.matrix.to_dense() == [[1]]


def test_pairing_is_a_permutation_everywhere():
    # a pairing whose partners do not toggle back drops entries on the
    # dashed id
    for data in (*curated_instances(), dashes_instance()):
        lo, hi = default_window(data)
        for n in range(lo, hi + 1):
            assert is_permutation(pairing_matrix(data, n).matrix), (
                data.name, n)
            assert is_permutation(hat_pairing_matrix(data, n).matrix), (
                data.name, n)


def test_pairing_dimensions_match_both_sides():
    from monofloer.complexes import _slice

    data = by_name("theta-coupled-pair")
    rev = reverse_orientation(data)
    for n in range(-5, 6):
        mat = pairing_matrix(data, n).matrix
        assert mat.rows == len(_slice(data, Flavor.PLUS, n).basis)
        assert mat.cols == len(_slice(rev, Flavor.MINUS, -2 - n).basis)


def test_pairing_degree_check_raises(monkeypatch):
    import monofloer.duality as duality
    real = duality.generator_degree
    monkeypatch.setattr(duality, "generator_degree",
                        lambda data, gen: real(data, gen) + 1)
    with pytest.raises(CheckFailed, match="degree 0"):
        pairing_matrix(by_name("empty"), 0)


def test_a_perfect_pairing_is_a_permutation_of_ones():
    def perfect(rows, cols, entries):
        return _is_perfect(SparseIntMatrix.from_entries(rows, cols, entries))

    assert perfect(2, 2, [(0, 1, 1), (1, 0, 1)])
    assert perfect(0, 0, [])
    assert not perfect(2, 2, [(0, 1, 1), (1, 0, -1)])  # a -1 entry
    assert not perfect(2, 2, [(0, 0, 1), (0, 1, 1)])   # a repeated row
    assert not perfect(2, 2, [(0, 0, 1), (1, 0, 1)])   # a repeated column
    assert not perfect(2, 2, [(0, 0, 1)])              # a missing entry
    assert not perfect(1, 2, [(0, 0, 1)])              # not square


# -- adjointness ------------------------------------------------------------

def test_adjointness_on_curated():
    for data in curated_instances():
        assert verify_adjointness(data, default_window(data)), data.name


def test_adjointness_on_probe():
    data = probe_instance()
    assert validate(data).ok
    assert verify_adjointness(data, (-6, 6))


def test_adjointness_fails_at_a_degree_far_outside_the_band(monkeypatch):
    """A degree is checked whenever it reads a slice the proof does not
    cover; a pairing negated only at 500, far above the band, differs from
    every earlier degree's and is still checked."""
    import monofloer.duality as duality

    d = by_name("tail-chain")
    window = (-600, 600)
    assert _band(d)[1] < 500
    assert verify_adjointness(d, window)
    pairing = duality._pairing_with

    def broken(data, rev, n, hat=False):
        mat = pairing(data, rev, n, hat)
        return mat.scale(-1) if (n, hat) == (500, False) else mat

    monkeypatch.setattr(duality, "_pairing_with", broken)
    assert not verify_adjointness(d, window)
    assert verify_adjointness(d, (-600, 499))


def test_a_replaced_hat_pairing_is_checked(monkeypatch):
    """Every Plus/Minus pairing slice is the selection the proof covers, but
    a Hat slice that is not makes the degrees reading it form the Hat
    identity's products: negated at n - 1, below a degree n whose Hat D is
    not zero, the identity fails at n."""
    import monofloer.duality as duality

    d = by_name("tail-chain")
    window = default_window(d)
    n = next(n for n in range(*window)
             if not _differential(d, Flavor.HAT, n).is_zero())
    pairing = duality._pairing_with

    def broken(data, rev, m, hat=False):
        mat = pairing(data, rev, m, hat)
        return mat.scale(-1) if (m, hat) == (n - 1, True) else mat

    monkeypatch.setattr(duality, "_pairing_with", broken)
    assert not verify_adjointness(d, window)


def signed_reversal(data, s_irr, s_to_theta, s_from_theta, s_euler):
    points = [(p.id + "-", -p.grading - 1) for p in data.points]
    n = []
    m = []
    for (src, dst, v) in data.n_coeffs:
        if src == THETA:
            n.append((dst + "-", THETA, s_from_theta * v))
        elif dst == THETA:
            n.append((THETA, src + "-", s_to_theta * v))
        else:
            n.append((dst + "-", src + "-", s_irr * v))
    for (src, dst, v) in data.m_coeffs:
        m.append((dst + "-", src + "-", s_euler * v))
    return MonopoleData.build(data.name + "-signed", points, n=n, m=m)


def test_sign_convention_is_forced():
    from monofloer.duality import _pairing_with

    data = probe_instance()
    satisfying = []
    for signs in product((1, -1), repeat=4):
        rev = signed_reversal(data, *signs)
        good = True
        for n in range(-6, 7):
            p_n = _pairing_with(data, rev, n)
            p_prev = _pairing_with(data, rev, n - 1)
            lhs = _differential(data, Flavor.PLUS, n).transpose().mul(p_prev)
            rhs = p_n.mul(_differential(rev, Flavor.MINUS, -1 - n))
            if lhs != rhs:
                good = False
                break
        if good:
            satisfying.append(signs)
    assert satisfying == [(-1, 1, 1, 1)]


def _scanned(monkeypatch):
    """Refuse the pairing proof, so every degree forms its products."""
    import monofloer.duality as duality

    monkeypatch.setattr(duality, "_pairing_proved", lambda *args: False)


def _outcome(data, window):
    # an invalid reverse is refused where the scan reads its omega_inverse
    try:
        return verify_adjointness(data, window)
    except InvalidInput:
        return "invalid"


def test_templates_and_scan_agree_on_every_sign_convention(monkeypatch):
    """Only the forced convention passes, through the pairing proof; every
    other one fails the proof, and the scan gives the same verdict."""
    import monofloer.duality as duality

    conventions = list(product((1, -1), repeat=4))
    routes = []
    for signs in conventions:
        data = probe_instance()
        rev = signed_reversal(data, *signs)
        monkeypatch.setattr(duality, "reverse_orientation", lambda _: rev)
        routes.append((_pairing_proved(data, rev), _outcome(data, (-6, 6))))
    assert [signs for signs, (proved, _) in zip(conventions, routes)
            if proved] == [(-1, 1, 1, 1)]
    assert [signs for signs, (_, verdict) in zip(conventions, routes)
            if verdict is True] == [(-1, 1, 1, 1)]
    _scanned(monkeypatch)
    for signs, (_, verdict) in zip(conventions, routes):
        data = probe_instance()
        rev = signed_reversal(data, *signs)
        monkeypatch.setattr(duality, "reverse_orientation", lambda _: rev)
        assert _outcome(data, (-6, 6)) == verdict, signs


def test_partners_one_power_off_fail_the_proof_and_the_scan(monkeypatch):
    """A reverse with every grading raised by two keeps the templates, so
    the identity holds on them, but a point's partner has power -k - 2:
    Plus's kept positions no longer map onto Minus's, and the edge degrees
    fail.  Only the powers clause of the lemma sends them to the scan."""
    import monofloer.duality as duality

    data = MonopoleData.build("domino", [("a", 2), ("b", 1)],
                              n=[("a", "b", 1)])
    rev = reverse_orientation(data)
    raised = MonopoleData.build(rev.name, [(p.id, p.grading + 2)
                                           for p in rev.points],
                                rev.n_coeffs, rev.m_coeffs)
    monkeypatch.setattr(duality, "reverse_orientation", lambda _: raised)
    assert not _pairing_proved(data, raised)
    assert not verify_adjointness(data, default_window(data))


def test_adjointness_forms_four_products_once(work):
    """The pairing proof forms the template identity's four products on
    the 50-point instance, where the scan formed 330; a second call forms
    none."""
    data = performance_instance()
    window = default_window(data)
    assert verify_adjointness(data, window)
    assert work["mul"] <= 4
    work.clear()
    assert verify_adjointness(data, window)
    assert work["mul"] == 0


def test_proved_pairings_are_compared_uncut(work):
    """On a fresh 50-point instance the pairing proof covers every slice:
    verify_adjointness names each pairing selection and compares it by
    identity, so it cuts the entries of none."""
    data = performance_instance()
    assert verify_adjointness(data, default_window(data))
    assert work["select"] > 0 and work["cut"] == 0


def test_frozen_reversal_matches_forced_signs():
    data = probe_instance()
    rev = reverse_orientation(data)
    forced = signed_reversal(data, -1, 1, 1, 1)
    assert rev.points == forced.points
    assert rev.n_coeffs == forced.n_coeffs
    assert rev.m_coeffs == forced.m_coeffs


# -- cohomology -------------------------------------------------------------

def test_cohomology_theta_tower():
    groups = cohomology(by_name("empty"), Flavor.PLUS, (-4, 6)).groups
    for n, g in groups.items():
        assert g == (Z if n >= 0 and n % 2 == 0 else ZERO), n


def test_cohomology_infinity_pattern():
    for data in curated_instances():
        groups = cohomology(data, Flavor.INFINITY, (-4, 4)).groups
        for n, g in groups.items():
            assert g == (Z if n % 2 == 0 else ZERO), (data.name, n)


def test_cohomology_torsion_shift():
    groups = cohomology(by_name("two-step"), Flavor.PLUS, (-2, 4)).groups
    assert groups[1] == AbelianGroupInvariants(0, (2,))
    assert groups[0] == Z


# -- the duality isomorphisms ----------------------------------------------

def test_duality_check_on_curated():
    for data in curated_instances():
        report = duality_check(data, default_window(data))
        assert report.ok, data.name
        assert report.adjoint and report.pairings_perfect
        assert report.double_reversal


def test_duality_check_on_probe_and_reversed():
    for data in (probe_instance(), reverse_orientation(probe_instance())):
        report = duality_check(data, (-6, 6))
        assert report.ok


def test_duality_frozen_values_theta_tower():
    report = duality_check(by_name("empty"), (-4, 6))
    for n, g in report.plus_vs_minus.items():
        assert g == (Z if n >= 0 and n % 2 == 0 else ZERO), n
    for n, g in report.hat_vs_hat.items():
        assert g == (Z if n == 0 else ZERO), n


def test_mismatch_fields(monkeypatch):
    import monofloer.duality as duality
    monkeypatch.setattr(duality, "presentation_at",
                        lambda *args: SimpleNamespace(
                            invariants=AbelianGroupInvariants(2)))
    with pytest.raises(CheckFailed) as info:
        duality_check(by_name("empty"), (0, 2))
    err = info.value
    assert err.degree == 0
    assert err.values == {"dual_value": Z,
                          "reversed_value": AbelianGroupInvariants(2)}


def test_verify_all_passes_on_a_dashed_id():
    from monofloer.cli import verify_all

    data = dashes_instance()
    assert reverse_orientation(reverse_orientation(data)) == data
    report = verify_all(data)
    assert report["ok"], report
