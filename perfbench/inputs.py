"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of operations, each one ``monofloer`` command
line over dataset files that this module writes before any timed process
starts.  The default seed reproduces the reference inputs exactly: the
criterion-10 instance, the acceptance corpus ``generate_instances(2026, 12,
200)``, its six largest members and a 24-point domino instance.  Any other
seed keeps each layout and changes only what the layout leaves free, so that
the amount of work, and with it the timing, stays put from seed to seed:

* the domino instances (``verify50``, ``spectral``) redraw their coupling
  values until ``validate`` passes;
* the corpus datasets (``corpus``, ``window``) are each moved by a seeded
  gauge: a permutation of the point ids and a sign flip per point.  A gauge
  maps valid data to valid, isomorphic data with the same invariants, but
  the engine sees differently ordered and signed matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from monofloer.data import (
    THETA,
    MonopoleData,
    generate_instances,
    serialize,
    validate,
)

DEFAULT_SEED = 2026
WORKLOADS = ("verify50", "corpus", "window", "spectral")

CORPUS_MAX_POINTS = 12
CORPUS_ATTEMPTS = 200
WINDOW = (-300, 300)
WINDOW_DATASETS = 6
FLAVORS = ("infinity", "minus", "plus", "hat", "noneq")
SPECTRAL_POINTS = 24
SPECTRAL_PAGES = 3

# the value set of the default domino couplings
_COUPLINGS = (1, -1, 2, -2, 3, -3)


@dataclass(frozen=True)
class Op:
    """One ``monofloer`` invocation; ``argv`` lacks only ``--out``."""

    label: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    inputs: tuple[Path, ...]
    ops: tuple[Op, ...]


def domino_instance(name: str, size: int, seed: int) -> MonopoleData:
    """``size`` points on consecutive gradings, disjoint n-dominoes on the
    lower 80% and a few m-couplings above them.

    With ``size=50`` and the default seed this is the criterion-10
    performance instance, byte for byte.
    """
    half = size // 2
    points = [(f"p{i:02d}", i - half) for i in range(size)]
    dominoes = 2 * size // 5
    n = [(f"p{2 * j + 1:02d}", f"p{2 * j:02d}", (-1) ** j * (j % 3 + 1))
         for j in range(dominoes)]
    m = [(f"p{i + 2:02d}", f"p{i:02d}", 2)
         for i in range(2 * dominoes, size - 2, 3)]
    data = MonopoleData.build(name, points, n=n, m=m)
    if seed == DEFAULT_SEED:
        return data
    rng = random.Random(f"{name}-{seed}")
    while True:
        candidate = MonopoleData.build(
            name, points,
            n=[(s, d, rng.choice(_COUPLINGS)) for (s, d, _) in n],
            m=[(s, d, rng.choice(_COUPLINGS)) for (s, d, _) in m])
        if validate(candidate).ok:
            return candidate


def regauge(data: MonopoleData, rng: random.Random) -> MonopoleData:
    """An isomorphic copy: point ids permuted, each point's sign flipped at
    random.  Every coefficient picks up the product of its endpoints'
    signs, so each quadratic identity is multiplied by a common sign and
    stays zero."""
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
    if not validate(moved).ok:
        raise RuntimeError(f"gauge broke the identities of {data.name}")
    return moved


def corpus(seed: int) -> list[MonopoleData]:
    base = generate_instances(DEFAULT_SEED, CORPUS_MAX_POINTS,
                              CORPUS_ATTEMPTS)
    if seed == DEFAULT_SEED:
        return base
    rng = random.Random(f"corpus-{seed}")
    return [regauge(d, rng) for d in base]


def largest(datasets: list[MonopoleData], count: int) -> list[MonopoleData]:
    """The ``count`` datasets with most points, ties kept in corpus order."""
    order = sorted(range(len(datasets)),
                   key=lambda i: (-len(datasets[i].points), i))
    return [datasets[i] for i in order[:count]]


def _write(directory: Path, datasets: list[MonopoleData]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, data in enumerate(datasets):
        path = directory / f"{i:03d}.json"
        path.write_bytes(serialize(data))
        paths.append(path)
    return paths


def build(name: str, seed: int, directory: Path,
          tiny: bool = False) -> Workload:
    """Write the workload's datasets under ``directory`` and list its ops.

    ``tiny`` shrinks every workload to a fraction of a second, keeping its
    shape, for the benchmark's own smoke test.
    """
    if name == "verify50":
        size = 8 if tiny else 50
        datasets = [domino_instance(f"performance-{size}", size, seed)]
        paths = _write(directory, datasets)
        ops = [Op("verify-all", ("verify-all", str(paths[0])))]
    elif name == "corpus":
        datasets = corpus(seed)[:12 if tiny else None]
        paths = _write(directory, datasets)
        ops = [Op(f"verify-all {i:03d}", ("verify-all", str(path)))
               for i, path in enumerate(paths)]
    elif name == "window":
        lo, hi = (-12, 12) if tiny else WINDOW
        datasets = largest(corpus(seed), 2 if tiny else WINDOW_DATASETS)
        paths = _write(directory, datasets)
        ops = [Op(f"homology {flavor} {i:03d}",
                  ("homology", "--flavor", flavor, f"--window={lo}:{hi}",
                   str(path)))
               for i, path in enumerate(paths) for flavor in FLAVORS]
    elif name == "spectral":
        size = 6 if tiny else SPECTRAL_POINTS
        datasets = [domino_instance(f"spectral-{size}", size, seed)]
        paths = _write(directory, datasets)
        ops = [Op("spectral", ("spectral", "--pages", str(SPECTRAL_PAGES),
                               str(paths[0])))]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, seed, tuple(paths), tuple(ops))
