"""The acceptance gate.

Ten criteria, each as one test that prints a single PASS or FAIL verdict
line (run pytest with -s to see the lines).  Time tolerances are pinned as
module constants; everything else is exact integer arithmetic with no
tolerance at all.
"""

from __future__ import annotations

import functools
import json
import time

from monofloer.cli import main
from monofloer.complexes import Flavor, check_d_squared, default_window
from monofloer.data import (
    MonopoleData,
    curated_instances,
    generate_instances,
    invalid_instance,
    serialize,
    validate,
)
from monofloer.duality import duality_check
from monofloer.actions import verify_u_homotopy
from monofloer.homology import graded_homology, homology_at
from monofloer.intlinalg import AbelianGroupInvariants
from monofloer.sequences import check_les_hat, check_les_main, hf_red
from monofloer.spectral import structure_theorem

from oracle import oracle_homology_at

ONE_MILLISECOND = 0.001
FIVE_SECONDS = 5.0

CORPUS_SEED = 2026
CORPUS_MAX_POINTS = 12
CORPUS_ATTEMPTS = 200
GENERATED_MINIMUM = 50

Z = AbelianGroupInvariants(1)
ZERO = AbelianGroupInvariants(0)


@functools.lru_cache(maxsize=1)
def corpus():
    instances = generate_instances(CORPUS_SEED, CORPUS_MAX_POINTS,
                                   CORPUS_ATTEMPTS)
    generated = len(instances) - len(curated_instances())
    assert generated >= GENERATED_MINIMUM
    assert all(len(d.points) <= CORPUS_MAX_POINTS for d in instances)
    return instances


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number:2d}: FAIL  {summary}", flush=True)
                raise
            print(f"\ncriterion {number:2d}: PASS  {summary}", flush=True)
        return inner
    return wrap


@criterion(1, "identity validation, curated verdicts, < 1 ms each")
def test_criterion_01():
    for name in ("empty", "theta-coupled-pair", "two-step", "euler-pair"):
        data = by_name(name)
        assert validate(data).ok, name
        best = min(_timed(validate, data) for _ in range(5))
        assert best < ONE_MILLISECOND, (name, best)
    report = validate(invalid_instance())
    assert not report.ok
    broken = [v for v in report.violations if v[0] == "identity-Bprime"]
    assert broken and broken[0][2] == 1


def _timed(fn, *args):
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


@criterion(2, "squared differential vanishes, 5 flavors, full corpus, < 5 s")
def test_criterion_02():
    instances = corpus()
    started = time.perf_counter()
    for data in instances:
        window = default_window(data)
        for flavor in Flavor:
            assert check_d_squared(data, flavor, window), (data.name, flavor)
    assert time.perf_counter() - started < FIVE_SECONDS


@criterion(3, "infinity flavor is Z even / 0 odd with verified tails, < 5 s")
def test_criterion_03():
    instances = corpus()
    started = time.perf_counter()
    for data in instances:
        graded = graded_homology(data, Flavor.INFINITY, default_window(data))
        for n, group in graded.groups.items():
            assert group == (Z if n % 2 == 0 else ZERO), (data.name, n)
        for tail in (graded.tail_above, graded.tail_below):
            assert tail is not None, data.name
            assert tail.even == Z and tail.odd == ZERO, data.name
    assert time.perf_counter() - started < FIVE_SECONDS


@criterion(4, "main sequence exact at every node, reduced groups agree")
def test_criterion_04():
    for data in corpus():
        window = default_window(data)
        report = check_les_main(data, window)
        for node in report.nodes:
            assert node.exact, (data.name, node.degree, node.node)
        hf_red(data, window)


@criterion(5, "u minus the periodicity map is an exact commutator with H")
def test_criterion_05():
    for data in corpus():
        window = default_window(data)
        for flavor in (Flavor.INFINITY, Flavor.MINUS, Flavor.PLUS):
            assert verify_u_homotopy(data, flavor, window), (data.name,
                                                             flavor)


@criterion(6, "hat sequence exact, nontriviality biconditional observed")
def test_criterion_06():
    for data in corpus():
        report = check_les_hat(data, default_window(data))
        for node in report.nodes:
            assert node.exact, (data.name, node.degree, node.node)
        assert report.hat_nonzero and report.plus_nonzero, data.name
        assert report.biconditional_holds, data.name


@criterion(7, "structure theorem matches the direct computation everywhere")
def test_criterion_07():
    for data in corpus():
        result = structure_theorem(data)
        assert result.matches, data.name
        assert result.predicted == result.actual, data.name
    two_step = structure_theorem(by_name("two-step"))
    expected = AbelianGroupInvariants(1, (2,))
    assert two_step.predicted[0] == expected
    assert two_step.actual[0] == expected


@criterion(8, "duality: pairing isomorphism, adjointness, double reversal")
def test_criterion_08():
    for data in corpus():
        report = duality_check(data, default_window(data))
        assert report.ok, data.name
        assert report.adjoint and report.pairings_perfect, data.name
        assert report.double_reversal, data.name


@criterion(9, "independent dense oracle agrees bit for bit on curated data")
def test_criterion_09():
    for data in curated_instances():
        doc = json.loads(serialize(data))
        lo, hi = default_window(data)
        for flavor in Flavor:
            for n in range(lo, hi + 1):
                expected = oracle_homology_at(doc, flavor.value, n)
                mine = homology_at(data, flavor, n)
                assert (mine.free_rank, list(mine.torsion)) == expected, (
                    data.name, flavor, n)
    frozen = {-2: (1, []), -1: (0, []), 0: (0, []), 1: (0, []),
              2: (1, []), 3: (0, []), 4: (1, [])}
    data = by_name("theta-coupled-pair")
    doc = json.loads(serialize(data))
    for n, expected in frozen.items():
        assert oracle_homology_at(doc, "plus", n) == expected, n
        mine = homology_at(data, Flavor.PLUS, n)
        assert (mine.free_rank, list(mine.torsion)) == expected, n


def performance_instance():
    """Fifty points spread over [-25, 25] with disjoint domino couplings."""
    points = [(f"p{i:02d}", i - 25) for i in range(50)]
    n = [(f"p{2 * j + 1:02d}", f"p{2 * j:02d}", (-1) ** j * (j % 3 + 1))
         for j in range(20)]
    m = [(f"p{i + 2:02d}", f"p{i:02d}", 2) for i in (40, 43, 46)]
    return MonopoleData.build("performance-50", points, n=n, m=m)


@criterion(10, "50-point verify-all < 5 s, two byte-identical reports")
def test_criterion_10(tmp_path, capsys):
    data = performance_instance()
    assert validate(data).ok
    assert len(data.points) == 50
    lo, hi = default_window(data)
    assert hi - lo + 1 == 60

    path = tmp_path / "performance.json"
    path.write_bytes(serialize(data))

    started = time.perf_counter()
    code = main(["verify-all", str(path)])
    elapsed = time.perf_counter() - started
    first = capsys.readouterr().out
    assert code == 0
    assert elapsed < FIVE_SECONDS, elapsed

    code = main(["verify-all", str(path)])
    second = capsys.readouterr().out
    assert code == 0
    assert second == first
