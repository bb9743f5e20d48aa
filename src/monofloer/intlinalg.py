"""Exact integer matrix algebra.

Kernels, column spaces, preimages, and quotient presentations with
recorded generators, each read off a Smith factorization.  `kernel_basis`
and `column_space_basis` return a `Lattice`: an independent basis together
with the coordinate map of the factorization that produced it, so
coordinates in the lattice, and membership, cost one sparse product and no
further reduction.  `QuotientPresentation` is the one quotient routine: it
answers subquotient invariants, class coordinates and membership in its
numerator lattice (`contains`) through that map.  This is the computational
substrate for every homology calculation in the package.

All arithmetic is arbitrary precision and every result is exact.  Matrices
are immutable values; a matrix with r rows and c columns represents a
homomorphism from Z^c to Z^r acting on column vectors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

__all__ = [
    "SparseIntMatrix",
    "AbelianGroupInvariants",
    "ContainmentError",
    "Lattice",
    "kernel_basis",
    "column_space_basis",
    "preimage_lattice",
    "hstack",
    "QuotientPresentation",
    "HomologyGenerator",
]


class ContainmentError(Exception):
    """A vector expected to lie in a lattice does not."""


@dataclass(frozen=True)
class SparseIntMatrix:
    """Immutable integer matrix stored as sorted (row, col, value) triples.

    Entries are row-major sorted, contain no zeros and no duplicate
    positions; equality is positional equality of the entry list.
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        prev = None
        for (i, j, v) in self.entries:
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"entry index ({i}, {j}) out of range")
            if v == 0:
                raise ValueError("stored zero entry")
            if prev is not None and (i, j) <= prev:
                raise ValueError("entries not in canonical order")
            prev = (i, j)

    _hash = None  # not a field: set on an instance by its first hash

    def __hash__(self) -> int:
        # computed once: memo keys hash the same matrices again and again
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.rows, self.cols, self.entries)))
        return self._hash

    @classmethod
    def _trusted(cls, rows: int, cols: int,
                 entries: tuple[tuple[int, int, int], ...]) -> "SparseIntMatrix":
        """A matrix the kernel derived from valid ones, whose entries are
        canonical by construction: built without `__post_init__`."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "entries", entries)
        return mat

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     items: Iterable[tuple[int, int, int]]) -> "SparseIntMatrix":
        acc: dict[tuple[int, int], int] = {}
        for (i, j, v) in items:
            if v:
                key = (i, j)
                acc[key] = acc.get(key, 0) + v
        # sorted and free of zeros by construction: only the index range
        # can be wrong
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        for (i, j) in acc:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry index ({i}, {j}) out of range")
        return cls._trusted(rows, cols, tuple(
            (i, j, v) for (i, j), v in sorted(acc.items()) if v))

    @classmethod
    def from_columns(cls, rows: int,
                     columns: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        items = []
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column of wrong length")
            for i, v in enumerate(col):
                if v:
                    items.append((i, j, v))
        return cls.from_entries(rows, len(columns), items)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols, ())

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        return cls(n, n, tuple((i, i, 1) for i in range(n)))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j, v) in self.entries:
            out[i][j] = v
        return out

    def column(self, j: int) -> list[int]:
        out = [0] * self.rows
        for (i, jj, v) in self.entries:
            if jj == j:
                out[i] = v
        return out

    def columns(self) -> list[list[int]]:
        out = [[0] * self.rows for _ in range(self.cols)]
        for (i, j, v) in self.entries:
            out[j][i] = v
        return out

    # -- algebra ------------------------------------------------------------

    def select(self, rows: Sequence[int],
               cols: Sequence[int]) -> "SparseIntMatrix":
        """The submatrix on ascending lists of rows and columns (itself when
        they list everything); renumbering keeps the entry order."""
        if not (all(map(operator.lt, rows, rows[1:]))
                and all(map(operator.lt, cols, cols[1:]))):
            raise ValueError("selected indices not ascending")
        if len(rows) == self.rows and len(cols) == self.cols:
            return self
        row_at = {i: k for k, i in enumerate(rows)}
        col_at = {j: k for k, j in enumerate(cols)}
        return SparseIntMatrix._trusted(len(rows), len(cols), tuple(
            (row_at[i], col_at[j], v) for (i, j, v) in self.entries
            if i in row_at and j in col_at))

    def transpose(self) -> "SparseIntMatrix":
        return SparseIntMatrix.from_entries(
            self.cols, self.rows, ((j, i, v) for (i, j, v) in self.entries))

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if not self.entries or not other.entries:
            return SparseIntMatrix._trusted(self.rows, other.cols, ())
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (k, j, w) in other.entries:
            by_row.setdefault(k, []).append((j, w))
        acc: dict[tuple[int, int], int] = {}
        for (i, k, v) in self.entries:
            for (j, w) in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        entries = tuple((i, j, v) for (i, j), v in sorted(acc.items()) if v)
        return SparseIntMatrix._trusted(self.rows, other.cols, entries)

    def add(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return SparseIntMatrix.from_entries(
            self.rows, self.cols,
            tuple(self.entries) + tuple(other.entries))

    def sub(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "SparseIntMatrix":
        if c == 0:
            return SparseIntMatrix.zero(self.rows, self.cols)
        return SparseIntMatrix._trusted(
            self.rows, self.cols,
            tuple((i, j, c * v) for (i, j, v) in self.entries))

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (i, j, v) in self.entries:
            if vec[j]:
                out[i] += v * vec[j]
        return out


def hstack(a: SparseIntMatrix, b: SparseIntMatrix) -> SparseIntMatrix:
    if a.rows != b.rows:
        raise ValueError("row mismatch in hstack")
    items = list(a.entries) + [(i, j + a.cols, v) for (i, j, v) in b.entries]
    return SparseIntMatrix.from_entries(a.rows, a.cols + b.cols, items)


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """Finitely generated abelian group in canonical form.

    free_rank copies of Z plus cyclic factors Z/t for the listed torsion
    numbers, which are all > 1 and satisfy t_1 | t_2 | ...
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for t in self.torsion:
            if t <= 1:
                raise ValueError("torsion numbers must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion numbers must form a divisibility chain")

    @classmethod
    def from_parts(cls, free_rank: int,
                   torsion: Iterable[int]) -> "AbelianGroupInvariants":
        values = [t for t in torsion if t != 1]
        if any(t < 1 for t in values):
            raise ValueError("torsion numbers must be positive")
        if not values:
            return cls(free_rank, ())
        diag = SparseIntMatrix.from_entries(
            len(values), len(values),
            ((i, i, t) for i, t in enumerate(values)))
        factors = _Factorization(diag).diag
        return cls(free_rank, tuple(t for t in factors if t > 1))

    def direct_sum(self, other: "AbelianGroupInvariants") -> "AbelianGroupInvariants":
        return AbelianGroupInvariants.from_parts(
            self.free_rank + other.free_rank, self.torsion + other.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Smith normal form on a sparse working representation
# ---------------------------------------------------------------------------

class _Transform:
    """A unimodular transform tracked line by line together with its inverse.

    On the row side the lines are the rows of U and the inverse lines the
    columns of U^-1; on the column side they are the columns of V and the
    rows of V^-1.  Line i belongs to row or column i of the matrix.  On
    either side, line_i -= q * line_t is inverse_t += q * inverse_i, so the
    two stay inverse to each other.
    """

    __slots__ = ("lines", "inverse")

    def __init__(self, n: int):
        self.lines = [{i: 1} for i in range(n)]
        self.inverse = [{i: 1} for i in range(n)]

    def axpy(self, i: int, t: int, q: int) -> None:
        for line, other, c in ((self.lines[i], self.lines[t], -q),
                               (self.inverse[t], self.inverse[i], q)):
            for k, v in other.items():
                w = line.get(k, 0) + c * v
                if w:
                    line[k] = w
                elif k in line:
                    del line[k]

    def negate(self, t: int) -> None:
        for line in (self.lines[t], self.inverse[t]):
            for k in line:
                line[k] = -line[k]


class _Factorization:
    """Sparse Smith reduction U * mat * V = S, tracking U or V on request.

    Each pivot is cleared where it stands, at (pivot_rows[k],
    pivot_cols[k]), and its row and column then leave the working matrix;
    no line is ever moved.  With the rows of U and the columns of V read in
    `_order` (the pivot lines in the order found, then the others
    ascending), U * mat * V is diagonal with diag[k] at (k, k).

    Row operations premultiply (tracked in `u`, with U^-1, when `track_u`);
    column operations postmultiply (tracked in `v`, with V^-1, when
    `track_v`).  Tracking only records the operations: pivots are chosen
    from the working matrix alone, so every mode yields the same diagonal
    and the same transforms.  Pivots of minimal absolute value keep
    coefficient growth down; the pivot must divide the remaining submatrix
    before it is retired, so the diagonal forms the divisibility chain
    directly.  A unit pivot divides everything and skips that scan.
    """

    __slots__ = ("diag", "rank", "pivot_rows", "pivot_cols", "u", "v")

    def __init__(self, mat: SparseIntMatrix, track_u: bool = False,
                 track_v: bool = False):
        a: dict[int, dict[int, int]] = {}
        colidx: dict[int, set[int]] = {}
        for (i, j, val) in mat.entries:
            a.setdefault(i, {})[j] = val
            colidx.setdefault(j, set()).add(i)

        u = _Transform(mat.rows) if track_u else None
        v = _Transform(mat.cols) if track_v else None

        def set_entry(i, j, val):
            row = a.get(i)
            if val:
                if row is None:
                    a[i] = {j: val}
                else:
                    row[j] = val
                colidx.setdefault(j, set()).add(i)
            elif row is not None and j in row:
                del row[j]
                if not row:
                    del a[i]
                s = colidx[j]
                s.discard(i)
                if not s:
                    del colidx[j]

        def row_axpy(i, t, q):
            # row_i -= q * row_t
            rt = a.get(t)
            if not rt or not q:
                return
            for j, w in list(rt.items()):
                ri = a.get(i)
                cur = ri.get(j, 0) if ri else 0
                set_entry(i, j, cur - q * w)
            if u is not None:
                u.axpy(i, t, q)

        def col_axpy(j, t, q):
            # col_j -= q * col_t
            if not q:
                return
            for i in list(colidx.get(t, ())):
                w = a[i][t]
                cur = a[i].get(j, 0)
                set_entry(i, j, cur - q * w)
            if v is not None:
                v.axpy(j, t, q)

        diag, pivot_rows, pivot_cols = [], [], []
        while colidx:
            best = None
            for j, rowset in colidx.items():
                for i in rowset:
                    av = abs(a[i][j])
                    if best is None or av < best[0]:
                        best = (av, i, j)
                        if av == 1:
                            break
                if best[0] == 1:
                    break
            _, r, c = best
            while True:
                row = a[r]
                if row[c] < 0:
                    for j in row:
                        row[j] = -row[j]
                    if u is not None:
                        u.negate(r)
                p = row[c]
                dirty = False
                for i in [i for i in colidx[c] if i != r]:
                    row_axpy(i, r, a[i][c] // p)
                    if c in a.get(i, {}):
                        dirty = True
                if dirty:
                    # the least remainder in column c is the next pivot
                    r = min((i for i in colidx[c] if i != r),
                            key=lambda i: abs(a[i][c]))
                    continue
                for j in [j for j in row if j != c]:
                    col_axpy(j, c, row[j] // p)
                    if j in row:
                        dirty = True
                if dirty:
                    # and so is the least remainder in row r
                    c = min((j for j in row if j != c),
                            key=lambda j: abs(row[j]))
                    continue
                if p == 1:
                    break
                off = None
                for j, rowset in colidx.items():
                    for i in rowset:
                        if a[i][j] % p:
                            off = i
                            break
                    if off is not None:
                        break
                if off is None:
                    break
                row_axpy(r, off, -1)
            # row r and column c hold only the pivot: retire them, so later
            # searches and scans walk the active submatrix alone
            diag.append(a.pop(r)[c])
            del colidx[c]
            pivot_rows.append(r)
            pivot_cols.append(c)

        self.diag = diag
        self.rank = len(diag)
        self.pivot_rows = pivot_rows
        self.pivot_cols = pivot_cols
        self.u = u
        self.v = v


def _order(pivots: list[int], n: int) -> list[int]:
    """The n lines of one side as a factorization reads them: its pivot
    lines in the order found, then every other line ascending."""
    taken = set(pivots)
    return pivots + [i for i in range(n) if i not in taken]


def _row_block(lines: list[dict[int, int]], which: Sequence[int],
               width: int) -> SparseIntMatrix:
    """The listed lines of a tracked transform as the rows of a matrix,
    renumbered from zero."""
    return SparseIntMatrix._trusted(len(which), width, tuple(
        (k, j, v) for k, i in enumerate(which)
        for j, v in sorted(lines[i].items())))


# ---------------------------------------------------------------------------
# lattices with their coordinate maps
# ---------------------------------------------------------------------------

class Lattice:
    """A sublattice of Z^n: an independent basis and a coordinate map.

    The coordinates of the columns of B are X = (pre * B) / divisors, the
    division running row by row; B lies in the lattice exactly when every
    division is exact and basis * X == B.  The map comes from the
    factorization that produced the basis, so reading coordinates is one
    sparse product and never a new reduction.  pre is the map or a
    function that builds it on the first read, so a lattice whose
    coordinates are never read never builds it.  Equality and hashing are
    by basis: two lattices with one basis give the same coordinates.
    """

    __slots__ = ("basis", "_pre", "_divisors")

    def __init__(self, basis: SparseIntMatrix,
                 pre: SparseIntMatrix | Callable[[], SparseIntMatrix],
                 divisors: Sequence[int] | None = None):
        self.basis = basis
        self._pre = pre
        self._divisors = divisors

    def _coordinate_map(self) -> SparseIntMatrix:
        if not isinstance(self._pre, SparseIntMatrix):
            self._pre = self._pre()
        return self._pre

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def coordinates(self, b: SparseIntMatrix) -> SparseIntMatrix | None:
        """X with basis * X == b, or None when a column of b lies outside."""
        if b.rows != self.basis.rows:
            raise ValueError("ambient dimension mismatch")
        x = self._coordinate_map().mul(b)
        divisors = self._divisors
        if divisors is not None:
            entries = []
            for (i, j, v) in x.entries:
                q, rest = divmod(v, divisors[i])
                if rest:
                    return None
                entries.append((i, j, q))
            x = SparseIntMatrix._trusted(x.rows, x.cols, tuple(entries))
        return x if self.basis.mul(x) == b else None

    def contains(self, vec: Sequence[int]) -> bool:
        return self.coordinates(
            SparseIntMatrix.from_columns(len(vec), [vec])) is not None

    def included(self, slots: Sequence[int], size: int) -> "Lattice":
        """The image under the order-preserving inclusion into Z^size that
        sends coordinate j to slots[j], with slots ascending.  The basis
        and the coordinate map only relabel indices, so entry order is
        kept."""
        basis = SparseIntMatrix(size, self.basis.cols, tuple(
            (slots[i], j, v) for (i, j, v) in self.basis.entries))
        pre = self._coordinate_map()
        pre = SparseIntMatrix(pre.rows, size, tuple(
            (i, slots[j], v) for (i, j, v) in pre.entries))
        return Lattice(basis, pre, self._divisors)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def kernel_basis(mat: SparseIntMatrix) -> Lattice:
    """ker(mat) with a primitive basis, the columns of V at the non-pivot
    columns, ascending; the coordinates of v are those rows of V^-1 * v."""
    f = _Factorization(mat, track_v=True)
    kept = _order(f.pivot_cols, mat.cols)[f.rank:]
    basis = SparseIntMatrix._trusted(mat.cols, len(kept), tuple(sorted(
        (i, k, val) for k, j in enumerate(kept)
        for i, val in f.v.lines[j].items())))
    # preimage_lattice reads the basis alone, so the map waits for a read
    return Lattice(basis, partial(_row_block, f.v.inverse, kept, mat.cols))


def column_space_basis(mat: SparseIntMatrix) -> Lattice:
    """The column lattice of mat with the independent basis: the columns
    of U^-1 at the pivot rows, in pivot order, each times its diagonal
    entry; the coordinates of v are those rows of U * v, each divided by
    its diagonal entry."""
    f = _Factorization(mat, track_u=True)
    items = []
    for k, (r, d) in enumerate(zip(f.pivot_rows, f.diag)):
        for i, val in f.u.inverse[r].items():
            items.append((i, k, val * d))
    return Lattice(SparseIntMatrix.from_entries(mat.rows, f.rank, items),
                   _row_block(f.u.lines, f.pivot_rows, mat.rows), f.diag)


def preimage_lattice(mat: SparseIntMatrix, gens: SparseIntMatrix) -> SparseIntMatrix:
    """Columns spanning {x : mat * x lies in the column span of gens}: the
    top mat.cols rows of the kernel basis of [mat | gens]."""
    if mat.rows != gens.rows:
        raise ValueError("row mismatch between map and target lattice")
    kernel = kernel_basis(hstack(mat, gens)).basis
    return SparseIntMatrix._trusted(mat.cols, kernel.cols, tuple(
        e for e in kernel.entries if e[0] < mat.cols))


@dataclass(frozen=True)
class HomologyGenerator:
    """A recorded generator of a quotient: its order (0 = infinite) and a
    representative vector in ambient coordinates."""

    order: int
    vector: tuple[int, ...]


class QuotientPresentation:
    """span(Z)/span(B) with pinned generators and canonical coordinates.

    Z is a `Lattice`; B's columns must lie in it.  B is mapped to
    coordinates in Z with one sparse product, and generators are read off the
    Smith form of that coordinate matrix, in Smith order, skipping the
    trivial factors.
    """

    __slots__ = ("lattice", "invariants", "generators", "_orders",
                 "_to_generators")

    def __init__(self, lattice: Lattice, b: SparseIntMatrix):
        coords = lattice.coordinates(b)
        if coords is None:
            raise ContainmentError(
                "a column is not an integral combination of the numerator "
                "basis")
        rank = lattice.basis.cols
        fx = _Factorization(coords, track_u=True)

        orders = []
        kept = []
        for k, i in enumerate(_order(fx.pivot_rows, rank)):
            d = fx.diag[k] if k < fx.rank else 0
            if d != 1:
                kept.append(i)
                orders.append(d)
        gens = []
        for i, order in zip(kept, orders):
            coord = [0] * rank
            for r, v in fx.u.inverse[i].items():
                coord[r] = v
            gens.append(HomologyGenerator(
                order, tuple(lattice.basis.apply(coord))))

        torsion = tuple(d for d in orders if d > 1)
        free = sum(1 for d in orders if d == 0)
        self.lattice = lattice
        self.invariants = AbelianGroupInvariants(free, torsion)
        self.generators = tuple(gens)
        self._orders = orders
        self._to_generators = _row_block(fx.u.lines, kept, rank)

    def contains(self, vec: Sequence[int]) -> bool:
        """Whether vec lies in span(Z), the numerator lattice."""
        return self.lattice.contains(vec)

    def coordinate_of(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coordinates of a cycle's class on the recorded
        generators; torsion coordinates are reduced to [0, order)."""
        c = self.lattice.coordinates(
            SparseIntMatrix.from_columns(len(vec), [vec]))
        if c is None:
            raise ContainmentError("vector is not in the cycle lattice")
        y = self._to_generators.mul(c).column(0)
        return tuple(v % d if d else v for v, d in zip(y, self._orders))

    def is_zero_class(self, vec: Sequence[int]) -> bool:
        return all(v == 0 for v in self.coordinate_of(vec))
