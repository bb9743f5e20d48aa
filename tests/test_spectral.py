"""Filtration spectral sequence, the delta maps, and the structure theorem."""

from __future__ import annotations

import functools
import hashlib
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import oracle
from monofloer.cli import verify_all
from monofloer.complexes import Flavor, _band, _image_terms, _layout, \
    _reduce, _reduction, default_window
from monofloer.data import CheckFailed, InvalidInput, MonopoleData, THETA, \
    curated_instances, generate_instances
from monofloer.intlinalg import AbelianGroupInvariants, HomologyGenerator, \
    QuotientPresentation, SparseIntMatrix
from monofloer.spectral import (
    _check_filtered,
    _composite_vanishes,
    _critical_filtrations,
    _filtration_levels,
    _filtrations,
    _live_cell,
    _orders,
    delta_map,
    nonequivariant_floer,
    spectral_pages,
    structure_theorem,
)
from test_acceptance import performance_instance
from test_complexes import oracle_dataset

# the repository root, for the benchmark's domino instances
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.inputs import domino_instance  # noqa: E402

Z = AbelianGroupInvariants(1)
ZERO = AbelianGroupInvariants(0)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


# -- non-equivariant homology ----------------------------------------------

def test_nonequivariant_frozen():
    empty = nonequivariant_floer(by_name("empty"), (-4, 6))
    assert all(g.is_trivial for g in empty.groups.values())

    two_step = nonequivariant_floer(by_name("two-step"), (-4, 7))
    assert two_step.groups[0] == AbelianGroupInvariants(0, (2,))
    assert two_step.groups[1] == ZERO

    pair = nonequivariant_floer(by_name("theta-coupled-pair"), (-6, 6))
    for n, group in pair.groups.items():
        assert group == (Z if n in (1, -2) else ZERO), n


# -- delta maps -------------------------------------------------------------

def test_delta_map_frozen():
    assert delta_map(by_name("theta-coupled-pair"), 0).to_dense() == [[1]]
    for k in (0, 1, 2):
        assert delta_map(by_name("empty"), k).cols == 0
    assert delta_map(by_name("euler-pair"), 0).cols == 0
    assert delta_map(by_name("two-step"), 0).cols == 0
    tail = by_name("tail-chain")
    assert delta_map(tail, 0).to_dense() == [[3]]
    assert delta_map(tail, 1).to_dense() == [[6]]


def test_delta_map_rejects_negative():
    with pytest.raises(InvalidInput):
        delta_map(by_name("empty"), -1)


def test_delta_map_refuses_a_torsion_class_with_an_obstruction(
        monkeypatch):
    # theta-coupled-pair's degree-1 class, whose obstruction value is 1,
    # recorded as a class of order 2
    import monofloer.spectral as spectral

    monkeypatch.setattr(spectral, "presentation_at", lambda *args: (
        SimpleNamespace(generators=(HomologyGenerator(2, (1,)),))))
    with pytest.raises(CheckFailed, match="torsion class") as info:
        delta_map(by_name("theta-coupled-pair"), 0)
    assert info.value.degree == 1


# -- spectral pages ---------------------------------------------------------

def test_infinity_collapses_at_e1():
    for data in curated_instances():
        span = (max([p.grading for p in data.points] + [0])
                - min([p.grading for p in data.points] + [0]))
        top = min(4, 2 * span + 3)
        pages = spectral_pages(data, Flavor.INFINITY, top)
        for page in pages[1:]:
            for (p, q), group in page.cells.items():
                if p == 0 and q % 2 == 0:
                    assert group == Z, (data.name, page.r, p, q)
                else:
                    assert group.is_trivial, (data.name, page.r, p, q)
            for mat in page.differentials.values():
                assert mat.is_zero()


def test_plus_theta_tower_pages():
    pages = spectral_pages(by_name("empty"), Flavor.PLUS, 3)
    for page in pages[1:]:
        for (p, q), group in page.cells.items():
            expected = Z if (p == 0 and q >= 0 and q % 2 == 0) else ZERO
            assert group == expected, (page.r, p, q)


def test_plus_e1_orbit_pattern():
    # eta classes at q = 0, the theta column at p = 0, nothing else
    data = by_name("two-step")
    page1 = spectral_pages(data, Flavor.PLUS, 1)[1]
    assert page1.cells[(1, 0)] == Z
    assert page1.cells[(0, 0)] == AbelianGroupInvariants(2)
    for (p, q), group in page1.cells.items():
        if q != 0 and not (p == 0 and q > 0 and q % 2 == 0):
            assert group.is_trivial, (p, q)


def test_plus_e2_frozen_two_step():
    page2 = spectral_pages(by_name("two-step"), Flavor.PLUS, 2)[2]
    assert page2.cells[(0, 0)] == AbelianGroupInvariants(1, (2,))
    assert page2.cells[(1, 0)] == ZERO


def test_plus_d3_frozen_tail_chain():
    pages = spectral_pages(by_name("tail-chain"), Flavor.PLUS, 3)
    page3 = pages[3]
    assert page3.cells[(3, 0)] == Z
    assert page3.cells[(0, 2)] == Z
    dense = page3.differentials[(3, 0)].to_dense()
    assert dense in ([[6]], [[-6]])
    # the differential dies on the next page
    assert pages[3].cells[(3, 0)] == Z
    page4 = spectral_pages(by_name("tail-chain"), Flavor.PLUS, 4)[4]
    assert page4.cells[(3, 0)] == ZERO
    assert page4.cells[(0, 2)] == AbelianGroupInvariants(0, (6,))


def test_plus_d3_formula_is_checked_on_filtration_three(monkeypatch):
    import monofloer.spectral as spectral

    seen = []
    monkeypatch.setattr(spectral, "_check_d3_formula",
                        lambda data, flavor, p, n: seen.append((p, n)))
    data = by_name("tail-chain")
    spectral_pages(data, Flavor.PLUS, 3)
    lo, hi = default_window(data)
    assert seen == [(3, n) for n in range(max(lo, 3), hi + 1)
                    if (n - 3) % 2 == 0]
    assert seen
    seen.clear()
    spectral_pages(by_name("two-step"), Flavor.PLUS, 3)
    assert seen == []


def test_even_pages_have_zero_differentials():
    for label in ("two-step", "tail-chain", "euler-pair"):
        pages = spectral_pages(by_name(label), Flavor.PLUS, 4)
        for page in (pages[2], pages[4]):
            for mat in page.differentials.values():
                assert mat.is_zero(), (label, page.r)


def test_next_page_is_cellwise_homology():
    # H(E_r, d_r) at each cell, from the page's own cells and differentials
    # with the generator orders of its cells, is the next page's cell
    moved = 0
    for label in ("two-step", "tail-chain", "gap-three-chain"):
        data = by_name(label)
        _, hi = default_window(data)
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            pages = spectral_pages(data, flavor, 3)
            for r in range(3):
                page = pages[r]
                for (p, q), mat in page.differentials.items():
                    n = p + q
                    if n == hi:  # the incoming map lies outside the page
                        continue
                    orders = _orders(data, flavor, r, p, n)
                    incoming = page.differentials.get(
                        (p + r, q - r + 1),
                        SparseIntMatrix.zero(len(orders), 0))
                    target = _orders(data, flavor, r, p - r, n - 1)
                    got = pages[r + 1].cells[(p, q)]
                    assert (got.free_rank, list(got.torsion)) == \
                        oracle.dense_cell_homology(
                            orders, incoming.columns(), mat.to_dense(),
                            target), (label, flavor, r, p, q)
                    moved += not mat.is_zero()
    assert moved


def _pages_digest(datasets):
    digest = hashlib.sha256()
    for data in datasets:
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            for page in spectral_pages(data, flavor, 3):
                for key in sorted(page.cells):
                    group, mat = page.cells[key], page.differentials[key]
                    digest.update(repr((
                        data.name, flavor.value, page.r, key,
                        group.free_rank, group.torsion,
                        mat.rows, mat.cols, mat.entries)).encode())
    return digest.hexdigest()


# every cell's invariants and every differential's shape and entries, zero
# ones included, of the Plus and Infinity pages 0-3 of the curated datasets
# and the 50-point instance, as built when every cell was memoised
PAGE_TABLES = \
    "1431a217c5ee8657711dc79eefd8090a699340039a2954f7aaa9b6746ee763a7"


def test_pages_keep_every_cell_and_differential_shape():
    """The report drops zero differentials, so this pins their shapes:
    test_next_page_is_cellwise_homology reads them."""
    assert _pages_digest([*curated_instances(), performance_instance()]) \
        == PAGE_TABLES


def test_pages_build_only_the_cells_with_a_generator():
    """The pages memoise a cell only past page 0 and where a generator
    lies at its filtration, and a differential only between two cells with
    generators: the number of memoised presentations is the number of
    (r, p, n) with r >= 1 the pages read (a grid cell, its differential's
    target and that target's own) that have a generator at p."""
    import monofloer.spectral as spectral

    data = domino_instance("spectral-24", 24, 2026)
    spectral_pages(data, Flavor.PLUS, 3)
    memo = dict(data._memo)
    lo, hi = default_window(data)
    read = {(r, p - k * r, n - k) for r in range(4)
            for p in _filtration_levels(data) for n in range(lo, hi + 1)
            for k in range(3)}
    live = {(r, p, n) for r, p, n in read
            if r and p in spectral._generators_at(data, Flavor.PLUS, r, n)}
    cells = {key[2:]: value for key, value in memo.items()
             if key[0] is spectral._live_cell.__wrapped__}
    assert all(isinstance(cell, QuotientPresentation)
               for cell in cells.values())
    assert len(cells) == len(live) and set(cells) == live
    diffs = [key[2:] for key in memo
             if key[0] is spectral._live_dr_matrix.__wrapped__]
    # page 0's blocks and the later pages' classes
    assert {min(r, 1) for r, _, _ in diffs} == {0, 1}
    for r, p, n in diffs:
        for at, degree in ((p, n), (p - r, n - 1)):
            if r:
                assert _live_cell(data, Flavor.PLUS, r, at, degree
                                  ).generators, (r, p, n)
            else:
                assert at in spectral._positions(data, Flavor.PLUS, degree)
    assert len(data._memo) == len(memo)


@functools.lru_cache(maxsize=1)
def oracle_datasets():
    """The curated datasets and the five largest generated ones of the
    acceptance corpus."""
    generated = generate_instances(2026, 12, 200)[len(curated_instances()):]
    return (*curated_instances(),
            *sorted(generated, key=lambda d: -len(d.points))[:5])


def assert_pages_match_the_oracle(data, flavor):
    """Every cell of pages 0-3 against the definitions, on dense matrices
    the engine never builds; returns the number of nontrivial cells."""
    lo, hi = default_window(data)
    want = oracle.oracle_spectral_pages(oracle_dataset(data), flavor.value,
                                        3, range(lo, hi + 1))
    nontrivial = 0
    for page, cells in zip(spectral_pages(data, flavor, 3), want):
        got = {key: (g.free_rank, list(g.torsion))
               for key, g in page.cells.items()}
        assert got == cells, (data.name, flavor, page.r)
        nontrivial += sum(1 for g in page.cells.values() if not g.is_trivial)
    return nontrivial


def test_filtrations_match_the_oracle_at_both_parities():
    """_filtrations, the layout's gradings at the kept positions, is the
    oracle's filtration of each generator in the engine's basis order (by
    grading, theta first among grading 0, then by id), for every flavor
    and every degree of the default window, even and odd."""
    for data in oracle_datasets():
        blob = oracle_dataset(data)
        lo, hi = default_window(data)
        for flavor in Flavor:
            for n in range(lo, hi + 1):
                basis = oracle.oracle_basis(blob, flavor.value, n)
                filtration = dict(zip(basis, oracle.oracle_filtrations(
                    blob, flavor.value, n)))
                want = tuple(filtration[g]
                             for g in oracle.grading_order(blob, basis))
                assert _filtrations(data, flavor, n) == want, (
                    data.name, flavor, n)


def test_plus_pages_match_the_dense_oracle():
    assert sum(assert_pages_match_the_oracle(data, Flavor.PLUS)
               for data in oracle_datasets())


def test_infinity_pages_match_the_dense_oracle():
    assert sum(assert_pages_match_the_oracle(data, Flavor.INFINITY)
               for data in oracle_datasets())


def test_page_zero_and_trivial_cells_build_no_presentation(monkeypatch):
    # page 0 is free on the positions at its filtration, and a later cell
    # with no critical generator there is zero: the shape of neither
    # builds a lattice quotient.  Fresh datasets hold no memoised
    # presentation to hide one.
    import monofloer.homology as homology

    built = []
    real = homology.QuotientPresentation
    monkeypatch.setattr(homology, "QuotientPresentation",
                        lambda *args: built.append(args) or real(*args))
    for data in oracle_datasets():
        data = MonopoleData.build(
            data.name, [(p.id, p.grading) for p in data.points],
            n=data.n_coeffs, m=data.m_coeffs)
        lo, hi = default_window(data)
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            for r in range(4):
                for p in _filtration_levels(data):
                    for n in range(lo, hi + 1):
                        if r == 0 or p not in _critical_filtrations(
                                data, flavor, n):
                            _orders(data, flavor, r, p, n)
            assert built == [], (data.name, flavor)
    # the cells with a critical generator at their filtration do build one
    spectral_pages(by_name("tail-chain"), Flavor.PLUS, 3)
    assert built


def test_page_zero_cells_are_free_of_the_oracle_rank():
    """Each page-0 cell is free, of rank the oracle's number of generators
    at its filtration, and page 0 builds no presentation: no _live_cell
    memo entry has r = 0."""
    for data in oracle_datasets():
        blob = oracle_dataset(data)
        lo, hi = default_window(data)
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            cells = spectral_pages(data, flavor, 0)[0].cells
            for p in _filtration_levels(data):
                for n in range(lo, hi + 1):
                    rank = oracle.oracle_filtrations(
                        blob, flavor.value, n).count(p)
                    assert _orders(data, flavor, 0, p, n) == (0,) * rank
                    assert cells[p, n - p] == AbelianGroupInvariants(rank), (
                        data.name, flavor, p, n)
        assert not any(key[0] is _live_cell.__wrapped__ and key[2] == 0
                       for key in data._memo), data.name


def at_filtration(blob, flavor, n, p):
    """The oracle's generators of degree n at filtration p, as indices
    into oracle_basis, in the engine's basis order."""
    basis = oracle.oracle_basis(blob, flavor, n)
    filtration = dict(zip(basis, oracle.oracle_filtrations(blob, flavor, n)))
    index = {g: i for i, g in enumerate(basis)}
    return [index[g] for g in oracle.grading_order(blob, basis)
            if filtration[g] == p]


def test_page_zero_differentials_are_the_oracle_blocks():
    """Each page-0 differential d_0 out of (p, n - p) is the dense oracle's
    differential between the generators of filtration p in degrees n and
    n - 1, each side in the engine's basis order, zero shapes included."""
    for data in oracle_datasets():
        blob = oracle_dataset(data)
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            dense = {}
            page = spectral_pages(data, flavor, 0)[0]
            for (p, q), mat in page.differentials.items():
                n = p + q
                if n not in dense:
                    dense[n] = oracle.oracle_differential(
                        blob, flavor.value, n)
                rows = at_filtration(blob, flavor.value, n - 1, p)
                cols = at_filtration(blob, flavor.value, n, p)
                assert (mat.rows, mat.cols) == (len(rows), len(cols))
                assert mat.to_dense() == [[dense[n][i][j] for j in cols]
                                          for i in rows], (
                    data.name, flavor, p, q)


def raising_reduction(data, field):
    """The first band degree n where the uncertified Plus reduction's f, or
    g, has a slot that raises filtration, and its table with a 1 put there
    in degree n."""
    table = _reduce(data, Flavor.PLUS)
    lo, hi = _band(data)
    for n in range(lo, hi + 1):
        full = _filtrations(data, Flavor.PLUS, n)
        crit = [full[i] for i in table[n].critical]
        rows, cols = {"f": (full, crit), "g": (crit, full)}[field]
        slot = next(((i, j) for i, a in enumerate(rows)
                     for j, b in enumerate(cols) if a > b), None)
        if slot is not None:
            mat = getattr(table[n], field)
            return n, {**table, n: table[n]._replace(**{
                field: SparseIntMatrix.from_entries(
                    mat.rows, mat.cols, [*mat.entries, (*slot, 1)])})}
    raise AssertionError("no slot raises filtration")


def patch_reduction(monkeypatch, broken):
    """The Plus reduction is built as the table broken, which must then
    pass the certificate before any page reads it."""
    import monofloer.complexes as complexes

    real = complexes._reduce
    monkeypatch.setattr(
        complexes, "_reduce", lambda data, flavor: broken
        if flavor is Flavor.PLUS else real(data, flavor))


@pytest.mark.parametrize("field", ["f", "g"])
def test_a_reduction_that_raises_filtration_fails(monkeypatch, field):
    """The filtration check reads no reduction: a reduction whose f, or g,
    raises filtration is refused by the certificate, as every table other
    than the Morse data of the matching is, at its degree."""
    check = {"f": "f[c] = 1, f[U] = 0", "g": "g[., c] = 1, g[., M] = 0"}
    n, broken = raising_reduction(by_name("tail-chain"), field)
    patch_reduction(monkeypatch, broken)
    with pytest.raises(CheckFailed, match=re.escape(
            f"the reduction fails {check[field]}")) as info:
        spectral_pages(by_name("tail-chain"), Flavor.PLUS, 3)
    assert info.value.degree == n


def test_a_pair_across_two_filtrations_fails(monkeypatch):
    """The filtration check reads the cancelled pairs too: a step of _lines
    that joins an eta to a row of another grading fails at its parity,
    although D never raises filtration."""
    import monofloer.spectral as spectral

    real = spectral._lines
    crossed = []  # the parity whose first step is crossed

    def lines(data, p):
        columns, rows, down, along = real(data, p)
        if [p] == crossed:
            j, (grading, _, line, k) = next(iter(along.items()))
            other = next(i for i, gen in enumerate(_layout(data, 1 - p))
                         if gen[3] != grading)
            along = {**along, j: (grading, other, line, k)}
        return columns, rows, down, along

    monkeypatch.setattr(spectral, "_lines", lines)
    for parity in (0, 1):
        crossed[:] = [parity]
        with pytest.raises(CheckFailed,
                           match="pair spans two filtrations") as info:
            spectral_pages(by_name("tail-chain"), Flavor.PLUS, 3)
        assert info.value.degree == parity


@pytest.mark.parametrize("parity", [0, 1])
def test_a_template_entry_that_raises_filtration_fails(monkeypatch, parity):
    """An entry of D's template from a generator to one of a higher grading
    fails the filtration check at its parity, for Plus and Infinity."""
    import monofloer.spectral as spectral

    real = spectral._template

    def template(data, rule, drop, p):
        mat = real(data, rule, drop, p)
        if (rule, drop, p) != (_image_terms, 1, parity):
            return mat
        rows, cols = _layout(data, 1 - p), _layout(data, p)
        slot = next((i, j) for i, a in enumerate(rows)
                    for j, b in enumerate(cols) if a[3] > b[3])
        return SparseIntMatrix.from_entries(
            mat.rows, mat.cols, [*mat.entries, (*slot, 1)])

    monkeypatch.setattr(spectral, "_template", template)
    for flavor in (Flavor.PLUS, Flavor.INFINITY):
        with pytest.raises(CheckFailed,
                           match="the differential raises filtration") as info:
            spectral_pages(by_name("tail-chain"), flavor, 3)
        assert info.value.degree == parity


def test_the_filtration_check_reads_no_reduction():
    """_check_filtered proves filteredness on the templates once per
    dataset, for Plus and Infinity alike, and builds no reduction."""
    data = by_name("tail-chain")
    _check_filtered(data)
    assert not any(key[0] is _reduction.__wrapped__ for key in data._memo)
    for flavor in (Flavor.PLUS, Flavor.INFINITY):
        spectral_pages(data, flavor, 1)
    assert [key for key in data._memo
            if key[0] is _check_filtered.__wrapped__] == [
        (_check_filtered.__wrapped__,)]


def test_composite_vanishes_reads_torsion_orders():
    def column(*entries):
        return SparseIntMatrix.from_columns(len(entries), [list(entries)])

    one = SparseIntMatrix.from_columns(1, [[1]])
    # a zero product
    assert _composite_vanishes(column(0, 0), one, (0, 0))
    # entries divisible by the torsion orders of their rows
    assert _composite_vanishes(column(4, -6), one, (2, 3))
    # an entry its torsion order does not divide
    assert not _composite_vanishes(column(4, 5), one, (2, 3))
    # a nonzero entry on a free generator
    assert not _composite_vanishes(column(0, 5), one, (2, 0))


def test_composite_of_maps_that_do_not_compose_fails():
    # a zero factor forms no product, but its shape must still compose
    assert _composite_vanishes(SparseIntMatrix.zero(2, 3),
                               SparseIntMatrix.zero(3, 1), (0, 0))
    assert not _composite_vanishes(SparseIntMatrix.zero(2, 3),
                                   SparseIntMatrix.zero(2, 1), (0, 0))
    one = SparseIntMatrix.from_columns(1, [[1]])
    assert not _composite_vanishes(one, SparseIntMatrix.zero(2, 1), (0,))


def move_every_map(monkeypatch, walked=None):
    """Give each differential between two cells with generators the entry
    r + 1 in its corner, so that the d-squared check forms composites: no
    page of the curated data or the 24-point instance composes two maps
    with entries.  Appends each (r, p, n) asked for to walked."""
    import monofloer.spectral as spectral

    real = spectral._dr_matrix

    def moved(data, flavor, r, p, n):
        if walked is not None:
            walked.append((r, p, n))
        mat = real(data, flavor, r, p, n)
        if mat.rows and mat.cols:
            return SparseIntMatrix.from_entries(mat.rows, mat.cols,
                                                [(0, 0, r + 1)])
        return mat

    monkeypatch.setattr(spectral, "_dr_matrix", moved)
    return moved


def composites(data, flavor, pages, dr_matrix):
    """The d-squared check's composites in the order the pages form them:
    (follower, differential, torsion orders of the follower's target) for
    each grid key, in grid order, whose differential and follower both
    have entries.  The follower is read off dr_matrix, inside the grid and
    below it, where Infinity keeps generators in every degree."""
    want = []
    for page in pages:
        r = page.r
        for (p, q), mat in sorted(page.differentials.items()):
            n = p + q
            follow = dr_matrix(data, flavor, r, p - r, n - 1)
            if mat.entries and follow.entries:
                want.append((follow, mat,
                             _orders(data, flavor, r, p - 2 * r, n - 2)))
    return want


def test_the_d_squared_check_composes_each_cell_with_its_follower(
        monkeypatch):
    # every differential with entries is composed with the page's own d_r
    # out of its target cell, when that has entries too, modulo the
    # torsion orders of the target's target, inside the grid and below it
    import monofloer.spectral as spectral

    moved = move_every_map(monkeypatch)
    seen = []
    monkeypatch.setattr(spectral, "_composite_vanishes",
                        lambda *args: seen.append(args) or True)
    # the moved page-3 maps fail the page-3 formula, not under test here
    monkeypatch.setattr(spectral, "_check_d3_formula", lambda *args: None)
    below = 0
    for label in ("tail-chain", "gap-three-chain"):
        data = by_name(label)
        for flavor in (Flavor.PLUS, Flavor.INFINITY):
            pages = spectral_pages(data, flavor, 3)
            assert seen and seen == composites(data, flavor, pages, moved), (
                label, flavor)
            # a follower below the grid is not in the page's tables
            below += sum(1 for follow, _, _ in seen
                         if all(follow is not mat for page in pages
                                for mat in page.differentials.values()))
            seen.clear()
    assert below


def is_live(data, flavor, r, p, n):
    """Whether the page-r cell at filtration p, degree n, or its
    differential's target holds a generator."""
    from monofloer.spectral import _generators_at

    return (p in _generators_at(data, flavor, r, n)
            or p - r in _generators_at(data, flavor, r, n - 1))


def test_an_even_page_with_a_differential_fails(monkeypatch):
    """An even page that carries a nonzero differential fails at the
    first one in grid order, with its degree and key.  Page 2 here carries
    one at each key whose source or target holds a generator, the keys
    where a differential can have entries."""
    import monofloer.spectral as spectral

    real = spectral._dr_matrix

    def d2_nonzero(data, flavor, r, p, n):
        if r == 2:
            return SparseIntMatrix.from_columns(1, [[1]])
        return real(data, flavor, r, p, n)

    monkeypatch.setattr(spectral, "_dr_matrix", d2_nonzero)
    # the patched maps do not compose by shape; only the even-page check
    # is under test here
    monkeypatch.setattr(spectral, "_composite_vanishes",
                        lambda second, first, orders: True)
    data = by_name("tail-chain")
    lo, hi = default_window(data)
    p, n = next((p, n) for p in _filtration_levels(data)
                for n in range(lo, hi + 1)
                if is_live(data, Flavor.PLUS, 2, p, n))
    with pytest.raises(CheckFailed, match=rf"even page 2 carries a nonzero "
                       rf"differential at \({p}, {n - p}\)") as info:
        spectral_pages(data, Flavor.PLUS, 2)
    assert info.value.degree == n


def test_pages_walk_only_their_live_cells(monkeypatch):
    """On the 24-point instance, with every map between two cells with
    generators given an entry, each page asks for a differential once at
    each grid key whose source or target holds a generator, in grid
    order, and at no other key.  It builds a cell only where a generator
    lies, at such a key, its target or its target's target, and forms one
    composite per key whose differential and follower both have entries.
    The page-3 formula check runs after the last walk and is not
    counted."""
    import monofloer.spectral as spectral

    data = domino_instance("spectral-24", 24, 2026)
    walked, cells, seen, formula = [], [], [], []
    moved = move_every_map(monkeypatch, walked)
    real_cell, real_formula = spectral._live_cell, spectral._check_d3_formula

    def live_cell(data, flavor, r, p, n):
        if not formula:
            cells.append((r, p, n))
        return real_cell(data, flavor, r, p, n)

    monkeypatch.setattr(spectral, "_live_cell", live_cell)
    monkeypatch.setattr(spectral, "_composite_vanishes",
                        lambda *args: seen.append(args) or True)
    monkeypatch.setattr(spectral, "_check_d3_formula",
                        lambda *args: formula.append(len(walked))
                        or real_formula(*args))
    pages = spectral_pages(data, Flavor.PLUS, 3)
    lo, hi = default_window(data)
    live = [(r, p, n) for r in range(4) for p in _filtration_levels(data)
            for n in range(lo, hi + 1) if is_live(data, Flavor.PLUS, r, p, n)]
    assert formula and walked[:formula[0]] == live
    assert len(live) < 2 * len(_filtration_levels(data)) * (hi - lo + 1)
    assert all(p in spectral._generators_at(data, Flavor.PLUS, r, n)
               for r, p, n in cells)
    assert set(cells) <= {(r, p - k * r, n - k)
                          for r, p, n in live for k in range(3)}
    want = composites(data, Flavor.PLUS, pages, moved)
    assert seen == want and 0 < len(want) < len(live)


def test_pages_and_structure_build_no_flavored_slice(monkeypatch):
    # the pages and the structure theorem read kept positions; a generator
    # slice is built only for the Infinity templates
    import importlib
    import pkgutil

    import monofloer

    built = []
    for info in pkgutil.iter_modules(monofloer.__path__):
        module = importlib.import_module(f"monofloer.{info.name}")
        real = getattr(module, "_slice", None)
        if real is not None:
            def recorded(data, flavor, n, real=real):
                built.append((data.name, flavor, n))
                return real(data, flavor, n)
            monkeypatch.setattr(module, "_slice", recorded)
    for data in curated_instances():
        spectral_pages(data, Flavor.PLUS, 3)
        structure_theorem(data)
    assert built
    assert [b for b in built if b[1] is not Flavor.INFINITY] == []


@pytest.mark.parametrize("up_to_r", [2.0, "2", None, True, False])
def test_a_page_bound_must_be_an_int(up_to_r):
    with pytest.raises(InvalidInput, match="page bound"):
        spectral_pages(by_name("two-step"), Flavor.PLUS, up_to_r)


def test_spectral_pages_input_checks():
    with pytest.raises(InvalidInput):
        spectral_pages(by_name("empty"), Flavor.MINUS, 2)
    with pytest.raises(InvalidInput):
        spectral_pages(by_name("empty"), Flavor.PLUS, 100)
    with pytest.raises(InvalidInput):
        spectral_pages(by_name("empty"), Flavor.PLUS, -1)


# -- structure theorem ------------------------------------------------------

def test_structure_theorem_on_curated():
    for data in curated_instances():
        result = structure_theorem(data)
        assert result.matches, data.name
        assert result.predicted == result.actual


def test_structure_theorem_frozen_tail_chain():
    result = structure_theorem(by_name("tail-chain"), (-6, 9))
    assert result.predicted[2] == AbelianGroupInvariants(0, (6,))
    assert result.predicted[0] == AbelianGroupInvariants(0, (3,))
    assert result.predicted[-2] == Z
    assert result.predicted[4] == Z
    assert result.t_terms[0] == AbelianGroupInvariants(0, (3,))
    assert result.t_terms[1] == AbelianGroupInvariants(0, (6,))
    assert result.t_terms[2] == Z
    assert result.delta[1].to_dense() == [[3]]
    assert result.delta[3].to_dense() == [[6]]


def test_structure_theorem_frozen_two_step():
    result = structure_theorem(by_name("two-step"), (-4, 7))
    assert result.predicted[0] == AbelianGroupInvariants(1, (2,))
    assert result.t_terms[0] == Z


def test_structure_theorem_cyclic_t_terms():
    for data in curated_instances():
        result = structure_theorem(data)
        for t in result.t_terms.values():
            assert t.free_rank <= 1 and len(t.torsion) <= 1


def test_structure_theorem_work_follows_the_window():
    # degrees 2k and 2k + 1 share the obstruction row of k = n // 2; a
    # window from degree 1 or below keeps every k from 0 up
    data = by_name("tail-chain")
    result = structure_theorem(data, (-6, 9))
    assert list(result.delta) == [1, 3, 5, 7, 9]
    assert list(result.t_terms) == [0, 1, 2, 3, 4]
    far = structure_theorem(data, (10 ** 5, 10 ** 5 + 1))
    assert list(far.delta) == [10 ** 5 + 1]
    assert list(far.t_terms) == [10 ** 5 // 2]


def test_verify_all_on_a_far_one_degree_window():
    for data in curated_instances():
        assert verify_all(data, (10 ** 9, 10 ** 9))["ok"], data.name


def test_structure_theorem_mismatch_surfaced():
    # direct sum with the theta tower fails when an eta class hits theta
    # while also carrying even torsion from the eta differential
    data = MonopoleData.build(
        "torsion-theta-clash", [("a", 1), ("b", 0)],
        n=[("a", "b", 2), ("a", THETA, 1)])
    with pytest.raises(CheckFailed) as info:
        structure_theorem(data)
    assert info.value.degree == 0
    assert info.value.values["predicted"] != info.value.values["actual"]
