"""Property tests: the engine against the dense oracle, under gauges and
mutations.

Datasets are drawn from the seeded corpus (the curated instances plus
rejection-sampled ones) and moved by a seeded gauge that permutes the point
ids and flips the sign of each point.  A gauge is an isomorphism of
complexes, so it must change no invariant and no verdict.  A mutation
changes one coefficient in a legal position; the identities A, B and B'
say exactly that the infinity differential squares to zero, which the
oracle checks densely.  Examples are derandomized and no example database
is written, so every run is the same.
"""

from __future__ import annotations

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from monofloer.actions import _U_FLAVORS, _h_terms, _u_terms, u_chain_map, \
    u_module_structure, verify_u_homotopy
from monofloer.cli import main, verify_all
from monofloer.complexes import KIND_ETA, KIND_ONE, KIND_THETA, \
    REDUCED_FLAVORS, _POWERS, _STRUCTURAL, DegreeSlice, Flavor, Generator, \
    _band, _band_degree, _certify, _critical, _differential, \
    _identification, _image_terms, _kept, _layout, _reduced, _reduction, \
    _restricts, _rule_matrix, _same, _slice, _slice_map, _template, \
    check_d_squared, default_window
from monofloer.data import THETA, MonopoleData, _toggle_id, \
    curated_instances, generate_instances, invalid_instance, \
    reverse_orientation, serialize, validate
from monofloer import homology
from monofloer.duality import _cohomology_at, _complex_level, \
    _pairing_proved, _pairing_with, duality_check
from monofloer.homology import _commutes_on_templates, graded_homology, \
    homology_at, induced_on_homology, presentation_at, structural_chain_map
from monofloer.intlinalg import QuotientPresentation, kernel_basis
from monofloer.sequences import _red_at, connecting_delta, hf_red
from monofloer.spectral import _critical_filtrations, _filtrations, \
    _generators_at, spectral_pages
from test_complexes import compare_with_oracle, full_presentation, \
    oracle_dataset, pairs_down

# the repository root, for the benchmark's domino instances
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.inputs import domino_instance  # noqa: E402

POOL = generate_instances(2026, 6, 60)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def regauge(data: MonopoleData, seed: int) -> MonopoleData:
    """An isomorphic copy: ids permuted, each point's sign flipped at
    random; every coefficient picks up the signs of both endpoints."""
    rng = random.Random(seed)
    ids = [p.id for p in data.points]
    rename = dict(zip(ids, rng.sample(ids, len(ids))))
    rename[THETA] = THETA
    sign = {pid: rng.choice((1, -1)) for pid in ids}
    sign[THETA] = 1

    def move(coeffs):
        return [(rename[s], rename[d], v * sign[s] * sign[d])
                for (s, d, v) in coeffs]

    moved = MonopoleData.build(
        data.name, [(rename[p.id], p.grading) for p in data.points],
        n=move(data.n_coeffs), m=move(data.m_coeffs))
    assert validate(moved).ok, data.name
    return moved


gauged = st.tuples(st.sampled_from(POOL), st.integers(0, 2 ** 32 - 1)).map(
    lambda pair: (pair[0], regauge(*pair)))


@SETTINGS
@given(gauged)
def test_differentials_match_the_oracle(pair):
    _, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            compare_with_oracle(data, blob, flavor, n)


@SETTINGS
@given(gauged, st.data())
def test_homology_matches_the_oracle_and_ignores_the_gauge(pair, draw):
    original, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    assert default_window(original) == (lo, hi)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            got = homology_at(data, flavor, n)
            free, torsion = oracle.oracle_homology_at(blob, flavor.value, n)
            assert (got.free_rank, list(got.torsion)) == (free, torsion), (
                data.name, flavor, n)
            assert got == homology_at(original, flavor, n), (
                data.name, flavor, n)
    assert verify_all(data)["checks"] == verify_all(original)["checks"]

    # every tail of a narrow window around the band continues the groups
    # the oracle finds in the six degrees past its edge, and every tail of
    # the reduced group continues _red_at there
    band_lo, band_hi = _band(data)
    lo = draw.draw(st.integers(band_lo - 6, band_hi + 6))
    hi = lo + draw.draw(st.integers(0, 5))
    for flavor in Flavor:
        for n, want in _tail_groups(graded_homology(data, flavor, (lo, hi))):
            assert (want.free_rank, list(want.torsion)) == \
                oracle.oracle_homology_at(blob, flavor.value, n), (
                    data.name, flavor, (lo, hi), n)
    for n, want in _tail_groups(hf_red(data, (lo, hi))):
        assert want == _red_at(data, n), (data.name, (lo, hi), n)


def _tail_groups(report):
    """Each degree of the six past an edge where the graded report has a
    tail, with the tail's group there."""
    lo, hi = report.window
    for tail, edge, step in ((report.tail_above, hi, 1),
                             (report.tail_below, lo, -1)):
        if tail is not None:
            for n in range(edge + step, edge + 7 * step, step):
                yield n, tail.even if n % 2 == 0 else tail.odd


@SETTINGS
@given(gauged)
def test_reduced_homology_matches_the_oracle(pair):
    """The certified reduction of Minus, Infinity and Plus passes its
    certificate and has the homology of the full complex, by the reference
    presentation of the full complex and by the dense oracle."""
    _, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in REDUCED_FLAVORS:
        _certify(data, flavor, _reduction(data, flavor))
        for n in range(lo, hi + 1):
            got = presentation_at(data, flavor, n).invariants
            assert got == full_presentation(data, flavor, n).invariants, (
                data.name, flavor, n)
            free, torsion = oracle.oracle_homology_at(blob, flavor.value, n)
            assert (got.free_rank, list(got.torsion)) == (free, torsion), (
                data.name, flavor, n)


@SETTINGS
@given(gauged)
def test_spectral_pages_match_the_oracle_and_ignore_the_gauge(pair):
    original, data = pair
    lo, hi = default_window(data)
    want = oracle.oracle_spectral_pages(oracle_dataset(data), "plus", 3,
                                        range(lo, hi + 1))
    for page, cells, before in zip(spectral_pages(data, Flavor.PLUS, 3), want,
                                   spectral_pages(original, Flavor.PLUS, 3)):
        assert {key: (g.free_rank, list(g.torsion))
                for key, g in page.cells.items()} == cells, (data.name,
                                                             page.r)
        assert page.cells == before.cells, (data.name, page.r)


def _reduced_class(data, flavor, n, cycle):
    """The class of a cycle of the full complex, read through g on the
    recorded generators of the reduced presentation."""
    if flavor in REDUCED_FLAVORS:
        cycle = _reduced(data, flavor, n).g.apply(cycle)
    return presentation_at(data, flavor, n).coordinate_of(cycle)


def _class_maps(data, window):
    """(source, target, shift, induced matrices, chain map at n) for the
    u-action on each u-flavor, projection_plus and the connecting map."""
    lo, hi = window
    for flavor in _U_FLAVORS:
        yield (flavor, flavor, -2,
               u_module_structure(data, flavor, window).matrices,
               lambda n, flavor=flavor: u_chain_map(data, flavor, n))
    projection = structural_chain_map(data, "projection_plus", window)
    yield (Flavor.INFINITY, Flavor.PLUS, 0, induced_on_homology(
        data, Flavor.INFINITY, Flavor.PLUS, projection, window).matrices,
        lambda n: projection.matrices[n])
    yield (Flavor.PLUS, Flavor.MINUS, -1,
           {n: connecting_delta(data, n) for n in range(lo, hi + 1)},
           lambda n: _rule_matrix(data, _image_terms, 1, Flavor.PLUS, n,
                                  Flavor.MINUS))


def assert_class_maps_commute(data):
    """For each window degree n and each recorded generator z of the full
    complex's full_presentation, the class of g M z is the induced matrix
    applied to the class of g z, torsion coordinates taken mod their
    orders.  full_presentation, g and the chain map M are built without the
    f that the induced matrices are carried through."""
    lo, hi = window = default_window(data)
    for source, target, shift, matrices, chain_at in _class_maps(data, window):
        for n in range(lo, hi + 1):
            orders = [gen.order for gen in presentation_at(
                data, target, n + shift).generators]
            for z in full_presentation(data, source, n).generators:
                want = _reduced_class(data, target, n + shift,
                                      chain_at(n).apply(z.vector))
                got = matrices[n].apply(
                    _reduced_class(data, source, n, z.vector))
                assert tuple(v % d if d else v for v, d in zip(
                    got, orders)) == want, (data.name, source, target, n)


@pytest.mark.parametrize("data", curated_instances(),
                         ids=lambda data: data.name)
def test_class_maps_commute_on_the_curated_datasets(data):
    assert_class_maps_commute(data)


@settings(SETTINGS, max_examples=8)
@given(gauged)
def test_class_maps_commute_on_gauged_datasets(pair):
    assert_class_maps_commute(pair[1])


@settings(SETTINGS, max_examples=100)
@given(gauged)
def test_cohomology_matches_the_oracle(pair):
    """Cohomology, read off the transposed differentials of the certified
    reductions, equals the dense cohomology of the full complex in all
    five flavors.  A cochain complex conjugated by the wrong maps of the
    reduction differs from the truth on only a few datasets of the pool,
    so this draws more examples than the other properties."""
    _, data = pair
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            got = _cohomology_at(data, flavor, n)
            free, torsion = oracle.oracle_cohomology_at(blob, flavor.value, n)
            assert (got.free_rank, list(got.torsion)) == (free, torsion), (
                data.name, flavor, n)


@SETTINGS
@given(gauged)
def test_reversal_is_an_involution_and_duality_holds_both_ways(pair):
    _, data = pair
    rev = reverse_orientation(data)
    double = reverse_orientation(rev)
    assert (double.name, double.points, double.n_coeffs, double.m_coeffs) == (
        data.name, data.points, data.n_coeffs, data.m_coeffs)
    assert duality_check(data).ok
    assert duality_check(rev).ok


def _slots(data: MonopoleData) -> list[tuple[str, str, str]]:
    """Every legal coefficient position: (family, from, to)."""
    gr = {p.id: p.grading for p in data.points}
    slots = [("n", a, b) for a in gr for b in gr if gr[a] - gr[b] == 1]
    slots += [("n", a, THETA) for a in gr if gr[a] == 1]
    slots += [("n", THETA, d) for d in gr if gr[d] == -2]
    slots += [("m", a, c) for a in gr for c in gr if gr[a] - gr[c] == 2]
    return sorted(slots)


def mutate(data: MonopoleData, slot: tuple[str, str, str],
           delta: int) -> MonopoleData:
    """data with delta added to the coefficient at one legal position."""
    family, src, dst = slot
    coeffs = {"n": {(s, d): v for (s, d, v) in data.n_coeffs},
              "m": {(s, d): v for (s, d, v) in data.m_coeffs}}
    coeffs[family][(src, dst)] = coeffs[family].get((src, dst), 0) + delta
    return MonopoleData.build(
        f"{data.name}-mutant", data.points,
        n=[(s, d, v) for (s, d), v in coeffs["n"].items()],
        m=[(s, d, v) for (s, d), v in coeffs["m"].items()])


def squares_to_zero(data: MonopoleData) -> bool:
    # the infinity complex is 2-periodic and holds every generator in every
    # degree of the right parity, so two degrees see every identity
    blob = oracle_dataset(data)
    for n in (0, 1):
        square = oracle.dense_mul(
            oracle.oracle_differential(blob, "infinity", n - 1),
            oracle.oracle_differential(blob, "infinity", n))
        if any(any(row) for row in square):
            return False
    return True


MUTANTS = [mutate(data, slot, delta) for data in POOL for slot in _slots(data)
           for delta in (-2, -1, 1, 2)]
BROKEN = [data for data in MUTANTS if not squares_to_zero(data)]


def test_validate_flags_exactly_the_broken_mutants():
    assert len(BROKEN) > 50
    for data in MUTANTS:
        assert validate(data).ok == squares_to_zero(data), data


@SETTINGS
@given(st.sampled_from(BROKEN))
def test_verify_all_rejects_a_broken_identity_with_exit_2(tmp_path_factory,
                                                          data):
    path = tmp_path_factory.mktemp("mutant") / "mutant.json"
    path.write_bytes(serialize(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify-all", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert "Traceback" not in err.getvalue()


# -- the band ---------------------------------------------------------------

def test_the_band_fold_is_exact():
    """Around the band, every folded differential equals a direct build, a
    presentation's fold reads the same two differentials as a direct one,
    a folded cohomology group equals one computed from the direct
    differentials, and Infinity repeats with period two; invalid data
    folds alike."""
    cohomology = {}

    def direct_cohomology(d_in, d_out):
        # cocycles are the kernel of transpose(D at n + 1), coboundaries
        # the image of transpose(D at n)
        if (d_in, d_out) not in cohomology:
            cohomology[d_in, d_out] = QuotientPresentation(
                kernel_basis(d_out.transpose()), d_in.transpose()).invariants
        return cohomology[d_in, d_out]

    for data in [*POOL, invalid_instance()]:
        lo, hi = _band(data)
        valid = validate(data).ok
        for flavor in Flavor:
            built = {}

            def direct(n):
                if n not in built:
                    built[n] = _slice_map(
                        _slice(data, flavor, n - 1), _slice(data, flavor, n),
                        lambda gen: _image_terms(data, gen))
                return built[n]

            for n in range(lo - 8, hi + 9):
                assert _differential(data, flavor, n) == direct(n), (
                    data.name, flavor, n)
                edge = _band_degree(data, n)
                assert (direct(edge), direct(edge + 1)) == (
                    direct(n), direct(n + 1)), (data.name, flavor, n)
                if flavor is Flavor.INFINITY:
                    assert direct(n + 2) == direct(n), (data.name, n)
                if valid:
                    assert _cohomology_at(data, flavor, n) == (
                        direct_cohomology(direct(n), direct(n + 1))), (
                        data.name, flavor, n)


def _broken_pair() -> tuple[MonopoleData, MonopoleData]:
    """The first pool dataset and a mutant of it whose D fails D D = 0."""
    return next(
        (data, mutant) for data in POOL for slot in _slots(data)
        for mutant in (mutate(data, slot, 1),) if not squares_to_zero(mutant))


def test_d_squared_over_a_wide_window_still_sees_a_broken_identity():
    data, mutant = _broken_pair()
    assert check_d_squared(data, Flavor.INFINITY, (-1000, 1000))
    assert not check_d_squared(mutant, Flavor.INFINITY, (-1000, 1000))


def test_d_squared_checks_the_first_degree_of_its_window():
    """A one-degree window at a degree where D D fails still fails."""
    data, mutant = _broken_pair()
    lo, hi = _band(mutant)
    n = next(n for n in range(lo, hi + 2) if not _differential(
        mutant, Flavor.INFINITY, n - 1).mul(
            _differential(mutant, Flavor.INFINITY, n)).is_zero())
    assert check_d_squared(data, Flavor.INFINITY, (n, n))
    assert not check_d_squared(mutant, Flavor.INFINITY, (n, n))


# -- templates and selections ----------------------------------------------

_KINDS = {"eta": KIND_ETA, "one": KIND_ONE, "theta": KIND_THETA}

# (label, rule, drop, flavors) of every rule read from an Infinity template
TEMPLATED = (("D", _image_terms, 1, tuple(Flavor)),
             ("u", _u_terms, 2, _U_FLAVORS),
             ("H", _h_terms, 1, tuple(Flavor)))

# (source, target, shift_k) of every identification the engine builds: the
# structural maps, omega_inverse, and the lifts and restrictions of the
# connecting maps
IDENTIFIED = (
    *((source, target, 0) for (source, target, _) in _STRUCTURAL.values()),
    *((flavor, flavor, -1) for flavor in Flavor
      if flavor is not Flavor.NONEQUIVARIANT),
    (Flavor.PLUS, Flavor.INFINITY, 0), (Flavor.INFINITY, Flavor.MINUS, 0),
    (Flavor.PLUS, Flavor.PLUS, 1), (Flavor.PLUS, Flavor.HAT, 0))


def _partner(gen: Generator, k_shift: bool) -> Generator:
    """The duality partner on the reverse: eta and 1 swap, the point id
    toggles, and k goes to -k - 1 (or stays, on the Hat slices)."""
    k = -gen.k - 1 if k_shift else gen.k
    if gen.kind == KIND_THETA:
        return Generator(KIND_THETA, None, k)
    kind = KIND_ONE if gen.kind == KIND_ETA else KIND_ETA
    return Generator(kind, _toggle_id(gen.point), k)


def test_every_chain_level_matrix_is_a_selection():
    """Around the band, D, u, H, every identification, both connecting
    maps and both duality pairings equal a direct build of their rule on
    generator slices that the oracle enumerates, independently of the
    engine's slices and kept positions."""
    for data in [*POOL, invalid_instance()]:
        slices = {}

        def oracle_slice(data, flavor, n):
            # the engine's order: by grading, theta first among grading
            # 0, then by id
            if (data.name, flavor, n) not in slices:
                blob = oracle_dataset(data)
                gens = oracle.grading_order(
                    blob, oracle.oracle_basis(blob, flavor.value, n))
                slices[data.name, flavor, n] = DegreeSlice(n, tuple(
                    Generator(_KINDS[kind], point, k)
                    for (kind, point, k) in gens))
            return slices[data.name, flavor, n]

        def build(rule, flavor, n, drop, row_flavor=None):
            return _slice_map(
                oracle_slice(data, row_flavor or flavor, n - drop),
                oracle_slice(data, flavor, n), lambda gen: rule(data, gen))

        def identify(source, target, n, shift):
            return build(lambda data, gen: ((Generator(
                gen.kind, gen.point, gen.k + shift), 1),),
                source, n, -2 * shift, target)

        lo, hi = _band(data)
        for n in range(lo - 8, hi + 9):
            for label, rule, drop, flavors in TEMPLATED:
                for flavor in flavors:
                    want = build(rule, flavor, n, drop)
                    assert _rule_matrix(data, rule, drop, flavor, n) == want, (
                        data.name, label, flavor, n)
                    if label == "D":
                        assert _differential(data, flavor, n) == want, (
                            data.name, flavor, n)
            for source, target, shift in IDENTIFIED:
                assert _identification(
                    data, source, target, n, shift) == identify(
                    source, target, n, shift), (
                    data.name, source, target, shift, n)
            # lift, differentiate, restrict
            assert _rule_matrix(data, _image_terms, 1, Flavor.PLUS, n,
                                Flavor.MINUS) == identify(
                Flavor.INFINITY, Flavor.MINUS, n - 1, 0).mul(
                build(_image_terms, Flavor.INFINITY, n, 1)).mul(
                identify(Flavor.PLUS, Flavor.INFINITY, n, 0)), (data.name, n)
            assert _rule_matrix(data, _image_terms, 1, Flavor.PLUS, n,
                                Flavor.HAT, 1) == identify(
                Flavor.PLUS, Flavor.HAT, n + 1, 0).mul(
                build(_image_terms, Flavor.PLUS, n + 2, 1)).mul(
                identify(Flavor.PLUS, Flavor.PLUS, n, 1)), (data.name, n)
            if not validate(data).ok:
                continue
            rev = reverse_orientation(data)
            for hat, (row_flavor, col_flavor, partner_degree) in (
                    (False, (Flavor.PLUS, Flavor.MINUS, -2 - n)),
                    (True, (Flavor.HAT, Flavor.HAT, -n))):
                want = _slice_map(
                    oracle_slice(rev, col_flavor, partner_degree),
                    oracle_slice(data, row_flavor, n),
                    lambda gen: ((_partner(gen, not hat), 1),)).transpose()
                assert _pairing_with(data, rev, n, hat) == want, (
                    data.name, hat, n)


# -- kept positions and the restriction lemma ------------------------------

def oracle_kept_and_pairs(data, flavor, n):
    """_kept and pairs_down from the oracle's basis, whose generators the
    oracle admits by its own _admissible: the positions in the Infinity
    basis of degree n of the flavor's generators, and each flavor eta_a^k
    of degree n whose partner 1_a^(k-1) is a flavor generator of degree
    n - 1, at their places in the two flavor slices.  The pair rule of the
    reductions must give exactly these pairs."""
    blob = oracle_dataset(data)
    grading = {p.id: p.grading for p in data.points}

    def ordered(flavor, n):
        # the engine's order: by grading, theta first among grading 0,
        # then by id
        return oracle.grading_order(
            blob, oracle.oracle_basis(blob, flavor.value, n))

    ambient = ordered(Flavor.INFINITY, n)
    here = ordered(flavor, n)
    below = {g: j for j, g in enumerate(ordered(flavor, n - 1))}
    admitted = set(here)
    kept = tuple(i for i, g in enumerate(ambient) if g in admitted)
    pairs = [(i, below[("one", point, k - 1)], grading[point])
             for i, (kind, point, k) in enumerate(here)
             if kind == "eta" and ("one", point, k - 1) in below]
    return kept, pairs


def oracle_critical(data, flavor, n):
    """The critical positions from the oracle's basis: those of the flavor
    slice of degree n that no oracle pair down from n or up from n + 1
    uses."""
    kept, pairs = oracle_kept_and_pairs(data, flavor, n)
    used = {i for i, _, _ in pairs} | {
        j for _, j, _ in oracle_kept_and_pairs(data, flavor, n + 1)[1]}
    return tuple(p for p in range(len(kept)) if p not in used)


def _assert_kept_and_pairs(data):
    lo, hi = _band(data)
    for flavor in Flavor:
        for n in range(lo - 5, hi + 6):
            assert (tuple(_kept(data, flavor, n)),
                    pairs_down(data, flavor, n)) == \
                oracle_kept_and_pairs(data, flavor, n), (data.name, flavor, n)
            if flavor in REDUCED_FLAVORS:
                assert _critical(data, flavor, n) == oracle_critical(
                    data, flavor, n), (data.name, flavor, n)


def test_kept_and_pairs_match_the_oracle_on_the_pool():
    """_kept and the pairs the reductions cancel (pairs_down), one rule
    over the _POWERS table of kept Omega-powers read off the gradings, are
    the oracle's admissible generators over band +- 5, on every pool
    dataset, the curated ones and invalid data alike; so are the critical
    positions of Minus, Infinity and Plus, which _critical reads off the
    edge of the pair rule."""
    for data in [*POOL, *curated_instances(), invalid_instance()]:
        _assert_kept_and_pairs(data)


@SETTINGS
@given(gauged)
def test_kept_and_pairs_match_the_oracle_on_gauged_datasets(pair):
    _assert_kept_and_pairs(pair[1])


def _assert_kept_is_the_powers_rule(data):
    """_layout lists the oracle's Infinity basis in the engine's order (by
    grading, theta first among grading 0, then by id), and _kept is a
    range equal to the _POWERS rule over it: the positions whose k, raised
    by n // 2, lies in the flavor's interval, and for NonEquivariant only
    the etas there."""
    blob = oracle_dataset(data)
    for parity in (0, 1):
        assert [(kind, point, k) for kind, point, k, _ in _layout(
            data, parity)] == [(_KINDS[kind], point, k) for kind, point, k in
                               oracle.grading_order(blob, oracle.oracle_basis(
                                   blob, "infinity", parity))], data.name
    lo, hi = _band(data)
    for flavor in Flavor:
        low, high = _POWERS[flavor]
        for n in range(lo - 5, hi + 6):
            kept = _kept(data, flavor, n)
            assert type(kept) is range and kept.step == 1, (flavor, n)
            assert tuple(kept) == tuple(
                i for i, (kind, _, k, _) in enumerate(_layout(data, n % 2))
                if low <= k + n // 2 <= high and (
                    kind == KIND_ETA or flavor is not Flavor.NONEQUIVARIANT)
            ), (data.name, flavor, n)


def test_kept_is_the_powers_rule_on_the_pool():
    for data in [*POOL, *curated_instances(), invalid_instance()]:
        _assert_kept_is_the_powers_rule(data)


@SETTINGS
@given(gauged)
def test_kept_is_the_powers_rule_on_gauged_datasets(pair):
    _assert_kept_is_the_powers_rule(pair[1])


def _assert_filtration_ranges(data):
    """_generators_at maps each filtration to a nonempty step-1 range, and
    the ranges, ascending, partition the kept positions (page 0) or the
    critical ones (later pages), each at its _filtrations or
    _critical_filtrations entry, at every band degree +- 5 of Plus and
    Infinity."""
    lo, hi = _band(data)
    for flavor in (Flavor.PLUS, Flavor.INFINITY):
        for n in range(lo - 5, hi + 6):
            for r in range(4):
                levels = (_critical_filtrations if r else _filtrations)(
                    data, flavor, n)
                at = _generators_at(data, flavor, r, n)
                assert all(type(span) is range and span.step == 1 and span
                           for span in at.values()), (data.name, flavor, n)
                assert [i for span in at.values() for i in span] == list(
                    range(len(levels))), (data.name, flavor, r, n)
                assert all(levels[i] == f for f, span in at.items()
                           for i in span), (data.name, flavor, r, n)


def test_filtration_ranges_partition_the_generators_on_the_pool():
    for data in [*POOL, *curated_instances()]:
        _assert_filtration_ranges(data)


@SETTINGS
@given(gauged)
def test_filtration_ranges_partition_the_generators_on_gauged_datasets(pair):
    _assert_filtration_ranges(pair[1])


def _scanned(monkeypatch):
    """Refuse the restriction lemma, so both checks take the per-degree
    scan."""
    import monofloer.actions as actions
    import monofloer.complexes as complexes

    for module in (complexes, actions):
        monkeypatch.setattr(module, "_restricts", lambda *args: False)


def test_templates_and_scan_agree_on_every_mutant(monkeypatch):
    """Over every single-coefficient mutation of the pool, valid or not,
    check_d_squared (every flavor) and verify_u_homotopy (every u flavor,
    on valid data) give the template path's verdict on the scan too."""
    def verdicts(data, window, valid):
        return ([check_d_squared(data, flavor, window) for flavor in Flavor],
                [verify_u_homotopy(data, flavor, window)
                 for flavor in _U_FLAVORS] if valid else None)

    cases = []
    for data in MUTANTS:
        lo, hi = default_window(data)
        window, valid = (lo - 3, hi + 3), validate(data).ok
        cases.append((data, window, valid, verdicts(data, window, valid)))
    assert any(not all(d_squared) for *_, (d_squared, _) in cases)
    _scanned(monkeypatch)
    for data, window, valid, got in cases:
        assert verdicts(data, window, valid) == got, data.name


def test_pairing_proof_and_scan_agree_on_every_valid_mutant(monkeypatch):
    """On every valid single-coefficient mutation of the pool the pairing
    lemma and the adjointness identity hold on the templates, and with the
    proof refused the scan finds every pairing slice perfect and adjoint
    too."""
    import monofloer.duality as duality

    cases = []
    for data in MUTANTS:
        if validate(data).ok:
            lo, hi = default_window(data)
            rev = reverse_orientation(data)
            assert _pairing_proved(data, rev), data.name
            cases.append((data, rev, (lo - 3, hi + 3)))
    assert len(cases) > 300
    monkeypatch.setattr(duality, "_pairing_proved", lambda *args: False)
    for data, rev, window in cases:
        assert _complex_level(data, rev, *window) == (True, True), data.name


def test_chain_map_proof_and_scan_agree_on_the_pool(monkeypatch):
    """On every pool dataset the structural maps, omega_inverse and u are
    proved on their templates, and with the proof refused the scan
    induces the same matrices."""
    def induced(data):
        # u_module_structure induces both u and omega_inverse
        window = default_window(data)
        chains = [structural_chain_map(data, which, window)
                  for which in _STRUCTURAL]
        return [induced_on_homology(data, chain.source, chain.target, chain,
                                    window).matrices for chain in chains] + [
            u_module_structure(data, flavor, window).matrices
            for flavor in _U_FLAVORS]

    for data in POOL:
        for which, (source, target, _) in _STRUCTURAL.items():
            assert _commutes_on_templates(data, source, target, _same, 0, 0)
        for flavor in _U_FLAVORS:
            for rule in ((_same, 0), (_u_terms, 2)):
                assert _commutes_on_templates(data, flavor, flavor, *rule, -2)
    got = [induced(data) for data in POOL]
    monkeypatch.setattr(homology, "_commutes_on_templates",
                        lambda *args: False)
    assert [induced(data) for data in POOL] == got


def _raising_rule(data, gen):
    """D, plus one entry 1_a^k -> eta_c^(k + 1) that raises k."""
    yield from _image_terms(data, gen)
    if gen.kind == KIND_ONE and gen.point == "a":
        yield Generator(KIND_ETA, "c", gen.k + 1), 1


def test_a_rule_that_raises_k_fails_the_lemma_and_is_scanned(monkeypatch):
    """eta_a -> eta_b -> eta_c sums to 1 in D D, and the raising entry
    cancels it through 1_a^(k-1): D D = 0 on the templates, but every
    flavor that drops 1_a^(-1) keeps only the first path, so only the
    scan, which the failed lemma forces, gives their verdict."""
    import monofloer.complexes as complexes

    data = MonopoleData.build("raising", [("a", 2), ("b", 1), ("c", 0)],
                              n=[("a", "b", 1), ("b", "c", 1)])
    monkeypatch.setattr(complexes, "_image_terms", _raising_rule)
    assert all(_template(data, _raising_rule, 1, 1 - parity).mul(
        _template(data, _raising_rule, 1, parity)).is_zero()
        for parity in (0, 1))
    window = (-8, 8)
    for flavor in Flavor:
        scan = all(_differential(data, flavor, n - 1).mul(
            _differential(data, flavor, n)).is_zero()
            for n in range(window[0], window[1] + 1))
        infinity = flavor is Flavor.INFINITY
        assert _restricts(data, flavor, _raising_rule, 1) is infinity
        assert check_d_squared(data, flavor, window) is scan is infinity, (
            flavor)


def test_the_lemma_refuses_an_entry_into_an_eta_for_nonequivariant():
    """H sends 1_a to eta_a at the same k, so it keeps k but leaves the
    NonEquivariant slices through a one and comes back to an eta: the
    lemma fails there and holds in every other flavor."""
    data = next(d for d in curated_instances() if d.name == "tail-chain")
    for flavor in Flavor:
        assert _restricts(data, flavor, _h_terms, 1) is (
            flavor is not Flavor.NONEQUIVARIANT), flavor
        assert _restricts(data, flavor, _image_terms, 1), flavor


def test_a_u_broken_on_its_template_fails_in_every_flavor(monkeypatch):
    """With every u matrix a selection of a template that breaks the
    homotopy, the template identity, not a product per degree, must refuse
    it."""
    import monofloer.actions as actions

    def doubled(data, gen):
        for target, coeff in _u_terms(data, gen):
            yield target, 2 * coeff

    data = next(d for d in curated_instances() if d.name == "tail-chain")
    monkeypatch.setattr(actions, "_u_terms", doubled)
    for flavor in _U_FLAVORS:
        assert not verify_u_homotopy(data, flavor, default_window(data))


def test_every_flavor_matches_the_dense_oracle_at_fifty_points():
    """Beyond the pool's six points: the engine's homology of all five
    flavors of a 50-point domino instance equals the dense oracle's in
    every default-window degree."""
    data = domino_instance("oracle-50", 50, 7)
    blob = oracle_dataset(data)
    lo, hi = default_window(data)
    for flavor in Flavor:
        for n in range(lo, hi + 1):
            got = homology_at(data, flavor, n)
            assert (got.free_rank, list(got.torsion)) == \
                oracle.oracle_homology_at(blob, flavor.value, n), (flavor, n)
