"""Long exact sequences, the connecting map, and the reduced group."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import oracle
from monofloer.complexes import Flavor, default_window
from monofloer.data import CheckFailed, curated_instances
from monofloer.homology import NotChainMap, homology_at
from monofloer.intlinalg import AbelianGroupInvariants, SparseIntMatrix
from monofloer.sequences import (
    check_les_hat,
    check_les_main,
    connecting_delta,
    hf_red,
)
from test_complexes import full_presentation, oracle_dataset

Z = AbelianGroupInvariants(1)
ZERO = AbelianGroupInvariants(0)


def by_name(label):
    return next(d for d in curated_instances() if d.name == label)


# -- connecting map ---------------------------------------------------------

def test_delta_trivial_on_theta_tower():
    empty = by_name("empty")
    for n in (0, 2):
        mat = connecting_delta(empty, n)
        assert mat.cols == 1 and mat.is_zero()


def test_delta_frozen_on_theta_pair():
    d = by_name("theta-coupled-pair")
    assert connecting_delta(d, -2).to_dense() == [[-1]]
    at2 = connecting_delta(d, 2)
    assert (at2.rows, at2.cols) == (0, 1)


@pytest.mark.parametrize("row, message", [
    (2, "a lifted boundary escapes the subcomplex"),
    (0, "the connecting map depends on the lift")])
def test_connecting_delta_refuses_a_wrong_lift(monkeypatch, row, message):
    """The lift on theta-coupled-pair, D from the Plus columns of degree
    -1 to the Infinity rows of degree -2, gains an entry in column 0: at
    row 2 of the id order (theta first, then the points by id), which
    Minus does not keep, a lifted boundary leaves the subcomplex; at row 0
    of it, theta, a lifted Plus boundary is a nonzero Minus class.  Each
    row is moved to its place in the engine's grading order."""
    import monofloer.complexes as complexes
    from monofloer.complexes import _kept

    data = by_name("theta-coupled-pair")
    lift = (_kept(data, Flavor.INFINITY, -2), _kept(data, Flavor.PLUS, -1))
    row = oracle.from_id_order(oracle_dataset(data), "infinity", -2)[row]
    selection = complexes._selection

    def wrong_lift(data, template, key, rows, cols):
        mat = selection(data, template, key, rows, cols)
        if (rows, cols) != lift:
            return mat
        return mat.add(SparseIntMatrix.from_entries(
            mat.rows, mat.cols, [(row, 0, 1)]))

    monkeypatch.setattr(complexes, "_selection", wrong_lift)
    with pytest.raises(CheckFailed, match=message) as info:
        connecting_delta(data, -1)
    assert info.value.degree == -1


# -- main sequence ----------------------------------------------------------

def test_les_main_exact_on_theta_tower():
    report = check_les_main(by_name("empty"), (-6, 8))
    assert report.all_exact()
    assert len(report.nodes) == 3 * 15
    for node in report.nodes:
        assert node.witness is None
        assert node.image == node.kernel


def test_les_main_exact_on_curated():
    for data in curated_instances():
        report = check_les_main(data, default_window(data))
        assert report.all_exact(), data.name


def test_exact_nodes_run_no_witness_scan(monkeypatch):
    from monofloer.intlinalg import QuotientPresentation

    calls = []
    original = QuotientPresentation.contains

    def counting(self, vec):
        calls.append(None)
        return original(self, vec)

    monkeypatch.setattr(QuotientPresentation, "contains", counting)
    for d in curated_instances():
        assert check_les_main(d).all_exact(), d.name
    assert calls == []


def test_les_main_node_lookup():
    report = check_les_main(by_name("theta-coupled-pair"), (-8, 8))
    node = report.node(-2, "minus")
    assert node.exact
    # delta from HF^+_{-1} = 0 lands trivially; l to HF^infty is injective
    assert node.image == ZERO and node.kernel == ZERO
    with pytest.raises(KeyError):
        report.node(9, "minus")  # past the window


def test_composites_vanish_on_homology():
    from monofloer.complexes import structural_map, _differential, \
        _image_terms, _rule_matrix, _slice

    for data in curated_instances():
        lo, hi = default_window(data)
        for n in range(lo, hi + 1):
            # delta after projection: zero into HF^-_{n-1}
            pres_inf = full_presentation(data, Flavor.INFINITY, n)
            proj = structural_map(data, "projection_plus", Flavor.INFINITY, n)
            delta = _rule_matrix(data, _image_terms, 1, Flavor.PLUS, n,
                                 Flavor.MINUS)
            tgt = full_presentation(data, Flavor.MINUS, n - 1)
            for gen in pres_inf.generators:
                image = delta.apply(proj.apply(gen.vector))
                assert tgt.is_zero_class(image), (data.name, n)
            # inclusion after delta: zero into HF^infty_{n-1}
            pres_plus = full_presentation(data, Flavor.PLUS, n)
            inc = structural_map(data, "inclusion_minus", Flavor.INFINITY,
                                 n - 1)
            tgt_inf = full_presentation(data, Flavor.INFINITY, n - 1)
            for gen in pres_plus.generators:
                image = inc.apply(delta.apply(gen.vector))
                assert tgt_inf.is_zero_class(image), (data.name, n)


def _apply(dense, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in dense]


def test_witnesses_on_perturbed_infinity_nodes():
    """Break the main sequence's infinity node four ways, on the unreduced
    complexes, and check every exactness verdict, witness included, with
    the dense oracle alone."""
    from monofloer.complexes import structural_map, _differential, _slice
    from monofloer.sequences import _exactness, _images_of_classes

    outside_image = "kernel class outside the incoming image"
    outside_kernel = "incoming image outside the kernel"
    witnesses = dict.fromkeys(
        ("doubled", "zero-in", "zero-out", "identity-out"), 0)
    for data in curated_instances():
        lo, hi = default_window(data)
        for n in range(lo, hi + 1):
            inc = _images_of_classes(
                full_presentation(data, Flavor.MINUS, n),
                structural_map(data, "inclusion_minus", Flavor.INFINITY, n))
            cycles = full_presentation(data, Flavor.INFINITY, n).lattice.basis
            proj = structural_map(data, "projection_plus", Flavor.INFINITY, n)
            dim = len(_slice(data, Flavor.INFINITY, n).basis)
            d_n = _differential(data, Flavor.INFINITY, n).to_dense()
            bd = _differential(data, Flavor.INFINITY, n + 1).to_dense()
            cases = (
                ("doubled", inc.scale(2), proj, Flavor.PLUS, outside_image),
                ("zero-in", SparseIntMatrix.zero(inc.rows, inc.cols), proj,
                 Flavor.PLUS, outside_image),
                ("zero-out", inc, SparseIntMatrix.zero(proj.rows, proj.cols),
                 Flavor.PLUS, outside_image),
                ("identity-out", inc, SparseIntMatrix.identity(dim),
                 Flavor.INFINITY, outside_kernel),
            )
            for label, incoming, outgoing, target, reason in cases:
                image_inv, kernel_inv, witness = _exactness(
                    data, cycles, _differential(data, Flavor.INFINITY, n + 1),
                    incoming, outgoing, _differential(data, target, n + 1))
                where = (data.name, n, label)
                if witness is None:
                    assert image_inv == kernel_inv, where
                    continue
                witnesses[label] += 1
                assert witness[0] == reason, where
                vec = list(witness[1])
                image = [a + b for a, b in zip(incoming.to_dense(), bd)]
                target_bd = _differential(data, target, n + 1).to_dense()
                lands = oracle.dense_in_span(
                    target_bd, _apply(outgoing.to_dense(), vec))
                if reason == outside_image:
                    assert not any(_apply(d_n, vec)), where
                    assert lands, where
                    assert not oracle.dense_in_span(image, vec), where
                else:
                    assert vec in [list(col) for col in zip(*image)], where
                    assert not lands, where
    assert all(count >= 17 for count in witnesses.values()), witnesses


def test_witnesses_on_the_reductions_are_unreduced_cycles(monkeypatch):
    """With the connecting map zeroed the main sequence breaks.  Each
    witness is found on the reduced complexes and carried back through f:
    it must be a cycle of the node's unreduced slice and, being a nonzero
    class, no boundary."""
    import monofloer.sequences as sequences
    from monofloer.complexes import _differential, _kept

    names, flavors, maps, shifts = sequences._MAIN

    def nothing(data, gen):
        return ()

    monkeypatch.setattr(sequences, "_MAIN",
                        (names, flavors, (*maps[:2], (nothing, 1)), shifts))
    flavor_of = dict(zip(names, flavors))
    found = 0
    for data in curated_instances():
        for node in check_les_main(data).nodes:
            assert node.exact == (node.witness is None)
            if node.exact:
                continue
            found += 1
            flavor, n = flavor_of[node.node], node.degree
            vec = list(node.witness[1])
            where = (data.name, node.node, n)
            assert len(vec) == len(_kept(data, flavor, n)), where
            assert not any(_apply(
                _differential(data, flavor, n).to_dense(), vec)), where
            assert not oracle.dense_in_span(
                _differential(data, flavor, n + 1).to_dense(), vec), where
    assert found >= 10


# -- reduced group ----------------------------------------------------------

def test_hf_red_vanishes_on_theta_tower():
    red = hf_red(by_name("empty"), (-6, 8))
    assert all(g.is_trivial for g in red.groups.values())
    assert red.tail_above is not None
    assert red.tail_below is not None
    assert red.tail_above.even.is_trivial and red.tail_above.odd.is_trivial


def test_hf_red_frozen_on_theta_pair():
    red = hf_red(by_name("theta-coupled-pair"), (-8, 8))
    for n, group in red.groups.items():
        assert group == (Z if n == -2 else ZERO), n


def test_hf_red_consistent_on_curated():
    for data in curated_instances():
        red = hf_red(data, default_window(data))
        assert red.tail_above is not None
        assert red.tail_below is not None


# -- hat sequence -----------------------------------------------------------

def test_les_hat_on_theta_tower():
    # Hat and Plus vanish or not in any degree, not only in the window's
    for window in ((-4, 6), (1, 2)):
        report = check_les_hat(by_name("empty"), window)
        assert report.all_exact()
        assert report.hat_nonzero and report.plus_nonzero
        assert report.biconditional_holds
    assert homology_at(by_name("empty"), Flavor.HAT, 0) == Z


def test_les_hat_exact_on_curated():
    for data in curated_instances():
        report = check_les_hat(data, default_window(data))
        assert report.all_exact(), data.name
        assert report.biconditional_holds, data.name
        assert report.hat_nonzero and report.plus_nonzero, data.name


def test_les_hat_rejects_omega_inverse_missing_the_u_tower(monkeypatch):
    """omega-inverse on Plus replaced by zero, a chain map that misses the
    U-tower: the u-check fails at the first window degree where u acts
    non-trivially on Plus homology, as u_module_structure computes it
    before the patch."""
    import monofloer.homology as homology
    from monofloer.actions import u_module_structure

    data = by_name("tail-chain")
    lo, hi = default_window(data)
    induced = u_module_structure(data, Flavor.PLUS, (lo, hi))
    first = next(n for n in range(lo, hi + 1)
                 if not induced.matrices[n].is_zero())
    real = homology.structural_map

    def zero_omega_inverse(data, which, flavor, n):
        mat = real(data, which, flavor, n)
        if which != "omega_inverse":
            return mat
        return SparseIntMatrix.from_entries(mat.rows, mat.cols, [])

    monkeypatch.setattr(homology, "structural_map", zero_omega_inverse)
    with pytest.raises(CheckFailed) as info:
        check_les_hat(data, (lo, hi))
    assert type(info.value) is CheckFailed
    assert info.value.degree == first
    assert "induced u differs from induced omega-inverse" in str(info.value)


def test_les_hat_rejects_a_u_that_is_not_a_chain_map(monkeypatch):
    """u doubled in one degree n where D u(n) is non-zero fails D u = u D
    first at n; carried to the reduction it could still look like one."""
    import monofloer.actions as actions
    from monofloer.actions import u_chain_map
    from monofloer.complexes import differential_matrix

    data = by_name("tail-chain")
    lo, hi = default_window(data)

    def d_after_u(n):
        return differential_matrix(data, Flavor.PLUS, n - 2).mul(
            u_chain_map(data, Flavor.PLUS, n))

    bad = next(n for n in range(lo, hi + 2) if not d_after_u(n).is_zero())

    def doubled_once(data, flavor, n):
        mat = u_chain_map(data, flavor, n)
        return mat.add(mat) if n == bad else mat

    monkeypatch.setattr(actions, "u_chain_map", doubled_once)
    with pytest.raises(NotChainMap) as info:
        check_les_hat(data, (lo, hi))
    assert info.value.degree == bad


def test_mismatch_error_fields(monkeypatch):
    import monofloer.sequences as sequences
    monkeypatch.setattr(sequences, "_node",
                        lambda *args: SimpleNamespace(
                            kernel=AbelianGroupInvariants(2)))
    with pytest.raises(CheckFailed) as info:
        sequences._red_at(by_name("empty"), 0)
    err = info.value
    assert err.degree == 0
    assert err.values == {"cokernel": ZERO,
                          "kernel": AbelianGroupInvariants(2)}
