"""Exact integer linear algebra: frozen examples and randomized cross-checks."""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import pytest

import oracle
from monofloer.intlinalg import (
    AbelianGroupInvariants,
    ContainmentError,
    QuotientPresentation,
    SparseIntMatrix,
    _Factorization,
    column_space_basis,
    hstack,
    kernel_basis,
    preimage_lattice,
)


def M(dense, cols=None):
    """The sparse matrix with these dense rows; cols gives the width of a
    matrix with no rows."""
    if cols is None:
        cols = len(dense[0]) if dense else 0
    if any(len(row) != cols for row in dense):
        raise ValueError("ragged dense matrix")
    return SparseIntMatrix.from_entries(len(dense), cols, [
        (i, j, v) for i, row in enumerate(dense) for j, v in enumerate(row)
        if v])


# the full Smith form and the cokernel invariants, read off the engine's
# factorization; only the tests use them

@dataclass(frozen=True)
class SnfResult:
    """U * M * V = S with U, V unimodular and S diagonal, d_1 | d_2 | ..."""

    U: SparseIntMatrix
    S: SparseIntMatrix
    V: SparseIntMatrix

    def diagonal(self) -> list[int]:
        return [v for (i, j, v) in self.S.entries if i == j]


def smith_normal_form(mat: SparseIntMatrix) -> SnfResult:
    """Factor U * mat * V = S, diagonal with the divisibility chain."""
    u, _, s, _, v = _transforms(mat)
    return SnfResult(u, s, v)


def _transforms(mat: SparseIntMatrix):
    """U, U^-1, S, V^-1 and V of the engine's factorization of mat."""
    f = _Factorization(mat)
    return (M(f.u, cols=mat.rows),
            SparseIntMatrix.from_columns(mat.rows, f.u_inv),
            SparseIntMatrix(mat.rows, mat.cols,
                            tuple((i, i, d) for i, d in enumerate(f.diag))),
            M(f.v_inv, cols=mat.cols),
            SparseIntMatrix.from_columns(mat.cols, f.v))


def cokernel_invariants(mat: SparseIntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^rows / im(mat)."""
    f = _Factorization(mat)
    return AbelianGroupInvariants(
        mat.rows - f.rank, tuple(d for d in f.diag if d > 1))


def in_span(lattice, vectors):
    """Every column of vectors lies in span(lattice), by the dense oracle."""
    dense = lattice.to_dense()
    return all(oracle.dense_in_span(dense, col) for col in vectors.columns())


def spans_equal(a, b):
    return in_span(a, b) and in_span(b, a)


def check_snf(mat):
    res = smith_normal_form(mat)
    u, s, v = res.U.to_dense(), res.S.to_dense(), res.V.to_dense()
    assert oracle.dense_mul(oracle.dense_mul(u, mat.to_dense()), v) == s
    assert abs(oracle.dense_det(u)) == 1
    assert abs(oracle.dense_det(v)) == 1
    diag = res.diagonal()
    assert all(d > 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # off-diagonal entries of S vanish
    for (i, j, _) in res.S.entries:
        assert i == j
    return res


def test_snf_zero_one_by_one():
    res = check_snf(M([[0]]))
    assert res.S.to_dense() == [[0]]
    assert res.U.to_dense() == [[1]]
    assert res.V.to_dense() == [[1]]


def test_snf_frozen_two_by_two():
    res = check_snf(M([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]


def test_snf_identity():
    res = check_snf(SparseIntMatrix.identity(3))
    assert res.S == SparseIntMatrix.identity(3)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        res = smith_normal_form(SparseIntMatrix.zero(rows, cols))
        assert res.S.rows == rows and res.S.cols == cols
        assert res.U == SparseIntMatrix.identity(rows)
        assert res.V == SparseIntMatrix.identity(cols)
        assert res.diagonal() == []


def test_cokernel_examples():
    assert cokernel_invariants(SparseIntMatrix.zero(2, 3)) == AbelianGroupInvariants(2, ())
    assert cokernel_invariants(M([[2]])) == AbelianGroupInvariants(0, (2,))
    assert cokernel_invariants(M([[1, 0], [0, 3]])) == AbelianGroupInvariants(0, (3,))


def test_kernel_examples():
    k = kernel_basis(M([[1, 1]])).basis
    assert (k.rows, k.cols) == (2, 1)
    col = [k.to_dense()[0][0], k.to_dense()[1][0]]
    assert col in ([1, -1], [-1, 1])

    k = kernel_basis(SparseIntMatrix.identity(2)).basis
    assert (k.rows, k.cols) == (2, 0)

    k = kernel_basis(SparseIntMatrix.zero(1, 2)).basis
    assert (k.rows, k.cols) == (2, 2)
    assert oracle.dense_invariant_factors(k.to_dense()) == [1, 1]


def test_subquotient_examples():
    def invariants(z, b):
        return QuotientPresentation(column_space_basis(z), b).invariants

    assert invariants(SparseIntMatrix.identity(2), M([[1], [-1]])) == \
        AbelianGroupInvariants(1, ())
    assert invariants(SparseIntMatrix.identity(1), M([[2]])) == \
        AbelianGroupInvariants(0, (2,))
    assert invariants(SparseIntMatrix.identity(3), SparseIntMatrix.identity(3)) == \
        AbelianGroupInvariants(0, ())
    assert invariants(SparseIntMatrix.zero(4, 0), SparseIntMatrix.zero(4, 0)) == \
        AbelianGroupInvariants(0, ())


def test_subquotient_containment_error():
    z = column_space_basis(M([[2], [0]]))
    b = M([[1], [0]])
    with pytest.raises(ContainmentError):
        QuotientPresentation(z, b)


def test_solve_basic():
    pres = QuotientPresentation(column_space_basis(M([[2, 0], [0, 3]])),
                                SparseIntMatrix.zero(2, 0))
    assert pres.contains([4, 3])
    assert not pres.contains([1, 0])
    empty = QuotientPresentation(column_space_basis(SparseIntMatrix.zero(2, 0)),
                                 SparseIntMatrix.zero(2, 0))
    assert empty.contains([0, 0])
    assert not empty.contains([1, 0])


def _random_matrix(rng, max_dim=8, bound=5):
    rows = rng.randrange(0, max_dim + 1)
    cols = rng.randrange(0, max_dim + 1)
    dense = [[rng.randrange(-bound, bound + 1) for _ in range(cols)] for _ in range(rows)]
    return M(dense, cols=cols)


def test_snf_random_against_oracle():
    rng = random.Random(1201)
    for _ in range(60):
        mat = _random_matrix(rng)
        res = check_snf(mat)
        assert res.diagonal() == oracle.dense_invariant_factors(mat.to_dense())


def test_cokernel_invariance_under_permutation_and_signs():
    rng = random.Random(1202)
    for _ in range(40):
        mat = _random_matrix(rng, max_dim=6)
        base = cokernel_invariants(mat)
        dense = mat.to_dense()
        rng.shuffle(dense)
        dense = [[-v for v in row] if rng.random() < 0.5 else list(row)
                 for row in dense]
        if dense and dense[0]:
            perm = list(range(len(dense[0])))
            rng.shuffle(perm)
            dense = [[row[j] for j in perm] for row in dense]
        assert cokernel_invariants(M(dense, cols=mat.cols)) == base


def test_kernel_rank_nullity_random():
    rng = random.Random(1203)
    for _ in range(40):
        mat = _random_matrix(rng)
        ker = kernel_basis(mat).basis
        rank = len(oracle.dense_invariant_factors(mat.to_dense()))
        assert ker.cols == mat.cols - rank
        prod = oracle.dense_mul(mat.to_dense(), ker.to_dense())
        assert all(all(v == 0 for v in row) for row in prod)
        # primitive basis: the kernel generators span a direct summand
        assert oracle.dense_invariant_factors(ker.to_dense()) == [1] * ker.cols


def test_subquotient_vs_oracle_random():
    rng = random.Random(1204)
    for _ in range(40):
        outer = _random_matrix(rng, max_dim=6)
        lattice = kernel_basis(outer)
        z = lattice.basis
        cols_x = rng.randrange(0, 5)
        x_dense = [[rng.randrange(-3, 4) for _ in range(cols_x)]
                   for _ in range(z.cols)]
        x = M(x_dense, cols=cols_x)
        b = z.mul(x)
        pres = QuotientPresentation(lattice, b)
        factors = oracle.dense_invariant_factors(x.to_dense())
        expect = AbelianGroupInvariants(z.cols - len(factors),
                                        tuple(f for f in factors if f > 1))
        assert pres.invariants == expect
        vec = [rng.randrange(-3, 4) for _ in range(z.rows)]
        assert pres.contains(vec) == oracle.dense_in_span(z.to_dense(), vec)


def test_column_space_basis():
    mat = M([[2, 4, 0], [0, 0, 0]])
    basis = column_space_basis(mat).basis
    assert basis.cols == 1
    assert spans_equal(basis, M([[2], [0]]))

    rng = random.Random(1205)
    for _ in range(30):
        mat = _random_matrix(rng, max_dim=6)
        basis = column_space_basis(mat).basis
        assert spans_equal(basis, mat)
        assert basis.cols == len(oracle.dense_invariant_factors(mat.to_dense()))


def test_preimage_lattice():
    got = preimage_lattice(M([[2]]), M([[4]]))
    assert spans_equal(got, M([[2]]))
    # full preimage when the constraint is vacuous
    got = preimage_lattice(SparseIntMatrix.zero(1, 2), SparseIntMatrix.zero(1, 0))
    assert spans_equal(got, SparseIntMatrix.identity(2))
    # random consistency: every generated column satisfies the constraint
    rng = random.Random(1206)
    for _ in range(30):
        m = _random_matrix(rng, max_dim=5, bound=3)
        g = M([[rng.randrange(-3, 4) for _ in range(2)] for _ in range(m.rows)],
              cols=2)
        pre = preimage_lattice(m, g)
        image = m.mul(pre)
        assert in_span(g, image)


def test_preimage_lattice_is_complete():
    # the converse of the check above: x lies in span(pre) exactly when
    # m * x lies in span(g).  g holds multiples s * m * y of images, so
    # combinations of the s * y satisfy the constraint; random x mostly not
    rng = random.Random(1210)
    outcomes = set()
    for _ in range(30):
        m = _random_matrix(rng, max_dim=5, bound=3)
        ys = [[rng.randrange(-3, 4) for _ in range(m.cols)] for _ in range(2)]
        scales = [rng.choice((1, 2, 3)) for _ in ys]
        columns = [[s * v for v in m.apply(y)] for s, y in zip(scales, ys)]
        columns.append([rng.randrange(-3, 4) for _ in range(m.rows)])
        g = SparseIntMatrix.from_columns(m.rows, columns).to_dense()
        pre = preimage_lattice(m, M(g, cols=3)).to_dense()
        for _ in range(6):
            if rng.random() < 0.5:
                c = [rng.randrange(-2, 3) * s for s in scales]
                x = [sum(ck * y[i] for ck, y in zip(c, ys))
                     for i in range(m.cols)]
            else:
                x = [rng.randrange(-3, 4) for _ in range(m.cols)]
            want = oracle.dense_in_span(g, m.apply(x))
            assert oracle.dense_in_span(pre, x) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def _probe_columns(rng, lattice):
    """Columns inside the lattice (random combinations of the basis) mixed
    with random ambient vectors, which often fall outside."""
    basis = lattice.basis
    columns = []
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.5:
            x = [rng.randrange(-3, 4) for _ in range(basis.cols)]
            columns.append(basis.apply(x))
        else:
            columns.append([rng.randrange(-3, 4) for _ in range(basis.rows)])
    return columns


def check_coordinates_against_oracle(rng, lattice):
    dense = lattice.basis.to_dense()
    columns = _probe_columns(rng, lattice)
    b = SparseIntMatrix.from_columns(lattice.basis.rows, columns)
    inside = [oracle.dense_in_span(dense, col) for col in columns]
    x = lattice.coordinates(b)
    assert (x is None) == (not all(inside))
    if x is not None:
        assert lattice.basis.mul(x) == b
    for col, want in zip(columns, inside):
        assert lattice.contains(col) == want
    return inside


def test_lattice_coordinates_against_oracle():
    rng = random.Random(1207)
    outcomes = set()
    torsion_seen = False
    for _ in range(40):
        mat = _random_matrix(rng, max_dim=6)
        torsion_seen |= any(
            f > 1 for f in oracle.dense_invariant_factors(mat.to_dense()))
        for lattice in (kernel_basis(mat), column_space_basis(mat)):
            outcomes.update(check_coordinates_against_oracle(rng, lattice))
    # both answers occur, and some column space has a diagonal entry > 1
    assert outcomes == {True, False}
    assert torsion_seen


def test_included_lattice_coordinates_against_oracle():
    # a kernel pushed into a larger ambient space along a coordinate
    # inclusion, as the spectral sequence's filtration lattices are
    rng = random.Random(1208)
    for _ in range(30):
        mat = _random_matrix(rng, max_dim=5)
        ambient = mat.cols + rng.randrange(0, 4)
        slots = sorted(rng.sample(range(ambient), mat.cols))
        incl = SparseIntMatrix.from_entries(
            ambient, mat.cols, [(i, j, 1) for j, i in enumerate(slots)])
        lattice = kernel_basis(mat).included(slots, ambient)
        assert lattice.basis == incl.mul(kernel_basis(mat).basis)
        check_coordinates_against_oracle(rng, lattice)


def test_lattice_contains():
    pres = QuotientPresentation(column_space_basis(M([[2, 0], [0, 2]])),
                                SparseIntMatrix.zero(2, 0))
    assert pres.contains([4, 2])
    assert not pres.contains([1, 0])
    assert spans_equal(M([[1, 0], [0, 1]]), M([[1, 1], [0, 1]]))


def test_public_constructors_reject_malformed_input():
    # the kernel builds its own results without these checks; every entry
    # point that takes entries from a caller keeps them
    malformed = [
        lambda: SparseIntMatrix(-1, 2),
        lambda: SparseIntMatrix(2, 2, ((0, 2, 1),)),
        lambda: SparseIntMatrix(2, 2, ((0, 0, 0),)),
        lambda: SparseIntMatrix(2, 2, ((1, 0, 1), (0, 1, 1))),
        lambda: SparseIntMatrix(2, 2, ((0, 1, 1), (0, 1, 2))),
        lambda: SparseIntMatrix.from_entries(2, 2, [(2, 0, 1)]),
        lambda: SparseIntMatrix.from_entries(2, 2, [(0, -1, 1)]),
        lambda: SparseIntMatrix.from_columns(2, [[1, 0], [1]]),
        lambda: SparseIntMatrix.identity(-1),
        lambda: SparseIntMatrix.zero(0, -1),
        lambda: SparseIntMatrix.identity(3).select([1, 0], [0, 1]),
    ]
    for build in malformed:
        with pytest.raises(ValueError):
            build()


def test_a_range_selection_is_cut_once_on_first_read(work):
    """select on two ranges names the submatrix without cutting it; its
    first read of entries cuts it by the ranges' bounds, once, and it then
    equals and hashes as the same selection made through index lists, on
    either side of ==.  Comparing it with itself, or reading its shape,
    cuts nothing."""
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        mat = SparseIntMatrix.from_entries(rows, cols, [
            (rng.randrange(rows), rng.randrange(cols), rng.randint(-3, 3))
            for _ in range(rows * cols // 2)] if rows and cols else [])
        top, bottom = sorted(rng.randint(0, rows) for _ in range(2))
        left, right = sorted(rng.randint(0, cols) for _ in range(2))
        work.clear()
        lazy = mat.select(range(top, bottom), range(left, right))
        assert lazy == lazy
        assert (lazy.rows, lazy.cols) == (bottom - top, right - left)
        assert work["cut"] == 0
        eager = mat.select(list(range(top, bottom)),
                           list(range(left, right)))
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert lazy.entries == eager.entries
        if (bottom - top, right - left) != (rows, cols):
            assert work["cut"] == 1
        assert lazy.to_dense() == [line[left:right]
                                   for line in mat.to_dense()[top:bottom]]
        assert work["cut"] <= 1


ONE_BY_TWO = SparseIntMatrix.zero(1, 2)


@pytest.mark.parametrize("call", [
    lambda: SparseIntMatrix.from_entries(-1, 2, []),
    lambda: ONE_BY_TWO.add(ONE_BY_TWO.transpose()),
    lambda: ONE_BY_TWO.apply([1]),
    lambda: hstack(ONE_BY_TWO, ONE_BY_TWO.transpose()),
    lambda: kernel_basis(ONE_BY_TWO).coordinates(SparseIntMatrix.zero(3, 1)),
    lambda: preimage_lattice(ONE_BY_TWO, ONE_BY_TWO.transpose()),
    lambda: AbelianGroupInvariants.from_parts(0, [-2]),
], ids=["from_entries", "add", "apply", "hstack", "coordinates",
        "preimage_lattice", "from_parts"])
def test_kernel_operations_refuse_misshapen_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_invariants_canonical_form():
    assert AbelianGroupInvariants.from_parts(1, [2, 3]) == AbelianGroupInvariants(1, (6,))
    assert AbelianGroupInvariants.from_parts(0, [2, 2]) == AbelianGroupInvariants(0, (2, 2))
    assert AbelianGroupInvariants.from_parts(0, [4, 6]) == AbelianGroupInvariants(0, (2, 12))
    assert AbelianGroupInvariants.from_parts(2, [1, 1]) == AbelianGroupInvariants(2, ())
    got = AbelianGroupInvariants(1, (2,)).direct_sum(AbelianGroupInvariants(0, (3,)))
    assert got == AbelianGroupInvariants(1, (6,))
    assert AbelianGroupInvariants(0, ()).is_trivial
    assert not AbelianGroupInvariants(0, (2,)).is_trivial


def test_invariants_reject_bad_chain():
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupInvariants(-1, ())


def test_quotient_presentation():
    pres = QuotientPresentation(column_space_basis(SparseIntMatrix.identity(2)),
                                M([[2, 0], [0, 0]], cols=2))
    assert pres.invariants == AbelianGroupInvariants(1, (2,))
    orders = sorted(g.order for g in pres.generators)
    assert orders == [0, 2]
    assert pres.is_zero_class([2, 0])
    assert not pres.is_zero_class([1, 0])
    assert not pres.is_zero_class([0, 1])
    # coordinates are canonical: the torsion coordinate is reduced mod 2
    a = pres.coordinate_of([1, 0])
    b = pres.coordinate_of([3, 0])
    assert a == b

    narrow = QuotientPresentation(column_space_basis(M([[1], [0]])),
                                  SparseIntMatrix.zero(2, 0))
    with pytest.raises(ContainmentError):
        narrow.coordinate_of([0, 1])


def test_presentation_over_a_kernel_factors_once(work):
    rng = random.Random(1209)
    for _ in range(10):
        outer = _random_matrix(rng, max_dim=6)
        lattice = kernel_basis(outer)
        b = lattice.basis.mul(M([[rng.randrange(-3, 4) for _ in range(3)]
                                 for _ in range(lattice.basis.cols)], cols=3))
        work.clear()
        QuotientPresentation(lattice, b)
        # only the coordinate matrix is reduced, and only when it has
        # entries; the kernel is not factored again and no column is
        # solved on its own
        assert work["factorizations"] == (1 if b.entries else 0)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_a_matrix_with_no_entries_is_answered_from_its_shape(work, rows,
                                                             cols):
    """kernel_basis of a matrix with no entries, and a quotient whose
    coordinate matrix has none, factor nothing.  Each equals by content
    what the Smith route gives, a zero matrix being its own Smith form
    with identity transforms, and the dense oracle agrees."""
    from monofloer.intlinalg import _Factorization, _matrix

    mat = SparseIntMatrix.zero(rows, cols)
    smith = _Factorization(mat)
    work.clear()
    lattice = kernel_basis(mat)
    assert (lattice.basis, lattice.coordinates(SparseIntMatrix.identity(
        cols))) == (_matrix(cols, cols, zip(*smith.v)),
                    _matrix(cols, cols, smith.v_inv))
    assert [list(c) for c in lattice.basis.columns()] == \
        oracle.dense_kernel_basis(mat.to_dense(), cols)
    pres = QuotientPresentation(lattice, SparseIntMatrix.zero(cols, 2))
    assert work["factorizations"] == 0
    assert pres.invariants == AbelianGroupInvariants(cols)
    assert [(g.order, g.vector) for g in pres.generators] == [
        (0, tuple(line)) for line in _Factorization(
            SparseIntMatrix.zero(cols, 2)).u_inv]
    vec = list(range(1, cols + 1))
    assert pres.coordinate_of(vec) == tuple(vec)



@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_a_column_space_with_no_entries_is_answered_from_its_shape(
        work, rows, cols):
    """column_space_basis of a matrix with no entries factors nothing.  It
    equals the lattice the Smith route gives, by basis and by coordinates:
    the zero lattice, which holds the zero vector and nothing else, as the
    dense oracle says."""
    from monofloer.intlinalg import Lattice, _Factorization, _matrix

    mat = SparseIntMatrix.zero(rows, cols)
    smith = _Factorization(mat)
    route = Lattice(_matrix(rows, smith.rank, ()),
                    _matrix(smith.rank, rows, smith.u[:smith.rank]),
                    smith.diag)
    work.clear()
    lattice = column_space_basis(mat)
    assert work["factorizations"] == 0
    assert lattice.basis == route.basis == SparseIntMatrix.zero(rows, 0)
    for b in (SparseIntMatrix.zero(rows, 2),
              SparseIntMatrix.identity(rows)):
        assert lattice.coordinates(b) == route.coordinates(b)
    for vec in ([0] * rows, list(range(1, rows + 1))):
        assert lattice.contains(vec) == oracle.dense_in_span(
            mat.to_dense(), vec) == (not any(vec))
    pres = QuotientPresentation(lattice, SparseIntMatrix.zero(rows, 2))
    assert (pres.invariants, pres.generators) == (
        AbelianGroupInvariants(0), ())

def test_each_transform_carries_its_inverse():
    # line k of every transform belongs to diagonal entry k, so U * M * V
    # is S itself, and each side is tracked with its exact inverse
    empty = [SparseIntMatrix.zero(rows, cols)
             for rows, cols in [(0, 0), (0, 3), (3, 0)]]
    for mat in _pinned_matrices() + empty:
        u, u_inv, s, v_inv, v = _transforms(mat)
        assert u.mul(u_inv) == SparseIntMatrix.identity(mat.rows)
        assert v.mul(v_inv) == SparseIntMatrix.identity(mat.cols)
        assert u.mul(mat).mul(v) == s


def _diagonal(*values):
    return SparseIntMatrix.from_entries(
        len(values), len(values), ((i, i, v) for i, v in enumerate(values)))


def _scattered_diagonal(rng):
    """A diagonal matrix with rows and columns shuffled: most of these need
    the fix-up that adds a row to the pivot row."""
    n = rng.randrange(2, 7)
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return SparseIntMatrix.from_entries(n, n, (
        (i, j, rng.choice((2, 3, 4, -6, 10, 14))) for i, j in zip(rows, cols)))


# each reaches its diagonal only through the fix-up that adds a row whose
# entry the pivot does not divide to the pivot row
FROZEN_DIAGONALS = {(2, 3): [1, 6], (4, 6): [2, 12], (6, 10): [2, 30],
                    (6, 10, 15): [1, 30, 30]}


def _pinned_matrices():
    rng = random.Random(1212)
    return ([_diagonal(*values) for values in FROZEN_DIAGONALS]
            + [_scattered_diagonal(rng) for _ in range(20)]
            + [_random_matrix(rng) for _ in range(60)]
            + [_random_matrix(rng, max_dim=6).scale(2) for _ in range(20)]
            + [_random_matrix(rng, max_dim=12, bound=2) for _ in range(20)])


def _sha256(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()


# One SHA-256 over the diagonal, the rank and both transforms, with their
# inverses, of every matrix of _pinned_matrices.  First recorded before the
# kernel's fast paths (no divisibility scan after a unit pivot, finished
# pivots leave the search) landed: those paths may drop work, but never
# change a pivot or a transform.  Recorded again when pivots stopped being
# swapped into place, and once more when the dense reduction replaced the
# sparse one: that one broke ties between equal pivots in dict and set
# iteration order, and this one swaps each pivot to (k, k) again.
# PINNED_DIAGONALS did not move either time.
PINNED_TRANSFORMS = (
    "a954c3e36e70fcdf0e6452417430ef66c9f5825784f4f0ad98da40c9b1c94eee")
# One SHA-256 over the diagonal and the rank alone of the same matrices: the
# Smith form itself, which no change of pivot order or tie-break may move.
PINNED_DIAGONALS = (
    "8af33e154a98d4be8863376e7734593e561618bcb3f20bf29a92a079c64b4da9")


def test_fast_paths_keep_every_pivot_and_transform():
    for values, diag in FROZEN_DIAGONALS.items():
        assert _Factorization(_diagonal(*values)).diag == diag

    record = [(f.diag, f.rank, f.u, f.u_inv, f.v, f.v_inv)
              for f in map(_Factorization, _pinned_matrices())]
    assert _sha256(record) == PINNED_TRANSFORMS


def test_every_diagonal_and_rank_is_pinned():
    record = [(list(f.diag), f.rank) for f in map(
        _Factorization, _pinned_matrices())]
    assert _sha256(record) == PINNED_DIAGONALS
