"""Exact integer matrix algebra.

Kernels, column spaces, preimages, and quotient presentations with
recorded generators, each read off a Smith factorization: one dense
routine, since the matrices it factors are tiny.  `kernel_basis` and
`column_space_basis` return a `Lattice`: an independent basis together
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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

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
    positions; equality is positional equality of the entry list, so a
    selection whose entries are cut on first read (`select` on ranges)
    equals the matrix of the same content.
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        # identity first: a selection compared with itself is never cut
        return self is other or (self.rows == other.rows
                                 and self.cols == other.cols
                                 and self.entries == other.entries)

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
        they list everything); renumbering keeps the entry order.  On two
        ranges it is a `_Selection`, named in O(1) and cut by the ranges'
        bounds when its entries are first read."""
        ranges = all(isinstance(at, range) and at.step == 1
                     for at in (rows, cols))
        if not (ranges or all(map(operator.lt, rows, rows[1:]))
                and all(map(operator.lt, cols, cols[1:]))):
            raise ValueError("selected indices not ascending")
        if len(rows) == self.rows and len(cols) == self.cols:
            return self
        if ranges:
            return _Selection(self, rows, cols)
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


class _Selection(SparseIntMatrix):
    """The submatrix of a template at a range of rows and a range of
    columns, with its entries cut on first read: a selection that is only
    compared by identity, or only read for its shape, is never built.  The
    cut bisects the template's row-major entries for the row range and
    keeps those inside the column range; it runs once, and then the
    template is let go."""

    def __init__(self, template: SparseIntMatrix, rows: range, cols: range):
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(cols))
        object.__setattr__(self, "_source", (template, rows, cols))

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        if self._source is not None:
            object.__setattr__(self, "_entries", self._cut())
            object.__setattr__(self, "_source", None)
        return self._entries

    def _cut(self) -> tuple[tuple[int, int, int], ...]:
        template, rows, cols = self._source
        top, left, right = rows.start, cols.start, cols.stop
        entries = template.entries
        return tuple([(i - top, j - left, v) for (i, j, v) in entries[
            bisect_left(entries, (top,)):bisect_left(entries, (rows.stop,))]
            if left <= j < right])


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
# Smith normal form on small dense matrices
# ---------------------------------------------------------------------------

def _identity(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _axpy(lines: list[list[int]], inverse: list[list[int]], i: int, t: int,
          q: int) -> None:
    """line_i -= q * line_t on a transform, and so inverse_t += q * inverse_i
    on its inverse: the two stay inverse to each other."""
    lines[i] = [x - q * y for x, y in zip(lines[i], lines[t])]
    inverse[t] = [x + q * y for x, y in zip(inverse[t], inverse[i])]


def _least(cells: Iterable[tuple[Any, int]]) -> Any:
    """The index of the first (index, entry) cell of least nonzero absolute
    value, or None when every entry is zero."""
    best = at = None
    for index, x in cells:
        if x and (best is None or abs(x) < best):
            best, at = abs(x), index
            if best == 1:
                break
    return at


class _Factorization:
    """Dense Smith reduction U * mat * V = S, tracking both transforms.

    Each pivot is swapped to (k, k) before it is cleared, so S holds diag[k]
    at (k, k) and line k of every transform belongs to it: `u` lists the
    rows of U, `u_inv` the columns of U^-1, `v` the columns of V and `v_inv`
    the rows of V^-1.  Row operations premultiply, column operations
    postmultiply.  The pivot is the first entry of least absolute value in
    the active block, in row order, which keeps coefficients small; a
    remainder left in its column or row becomes the pivot in its place.
    A pivot must divide the rest of the block before it is retired, so the
    diagonal forms the divisibility chain directly; a unit pivot divides
    everything and skips that scan.
    """

    __slots__ = ("diag", "rank", "u", "u_inv", "v", "v_inv")

    def __init__(self, mat: SparseIntMatrix):
        m, n = mat.rows, mat.cols
        a = mat.to_dense()
        # a transform's lines are replaced, never changed in place, so it
        # and its inverse can start from the same identity rows
        u, v = _identity(m), _identity(n)
        u_inv, v_inv = u[:], v[:]

        def swap_rows(i, k):
            for lines in (a, u, u_inv):
                lines[i], lines[k] = lines[k], lines[i]

        def swap_cols(j, k):
            for lines in (*a, v, v_inv):
                lines[j], lines[k] = lines[k], lines[j]

        diag = []
        # the rank is at most the number of nonzero entries
        for k in range(min(m, n, len(mat.entries))):
            # rows from k on are zero left of column k
            at = _least(((i, j), x) for i in range(k, m) if any(a[i])
                        for j, x in enumerate(a[i]) if x)
            if at is None:
                break
            swap_rows(at[0], k)
            swap_cols(at[1], k)
            while True:
                if a[k][k] < 0:
                    for lines in (a, u, u_inv):
                        lines[k] = [-x for x in lines[k]]
                row = a[k]
                p = row[k]
                for i in range(k + 1, m):
                    q = a[i][k] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], row)]
                        _axpy(u, u_inv, i, k, q)
                i = _least((i, a[i][k]) for i in range(k + 1, m))
                if i is not None:
                    swap_rows(i, k)
                    continue
                # column k now holds the pivot alone, so clearing row k
                # changes no other row
                for j in range(k + 1, n):
                    q = row[j] // p
                    if q:
                        row[j] -= q * p
                        _axpy(v, v_inv, j, k, q)
                j = _least((j, row[j]) for j in range(k + 1, n))
                if j is not None:
                    swap_cols(j, k)
                    continue
                if p == 1:
                    break
                off = next((i for i in range(k + 1, m)
                            if any(x % p for x in a[i])), None)
                if off is None:
                    break
                a[k] = [x + y for x, y in zip(row, a[off])]
                _axpy(u, u_inv, k, off, -1)
            diag.append(p)

        self.diag = diag
        self.rank = len(diag)
        self.u, self.u_inv, self.v, self.v_inv = u, u_inv, v, v_inv


def _matrix(rows: int, cols: int,
            dense: Iterable[Sequence[int]]) -> SparseIntMatrix:
    """The rows x cols matrix with these dense rows."""
    return SparseIntMatrix._trusted(rows, cols, tuple(
        (i, j, x) for i, line in enumerate(dense)
        for j, x in enumerate(line) if x))


# ---------------------------------------------------------------------------
# lattices with their coordinate maps
# ---------------------------------------------------------------------------

class Lattice:
    """A sublattice of Z^n: an independent basis and a coordinate map.

    The coordinates of the columns of B are X = (pre * B) / divisors, the
    division running row by row; B lies in the lattice exactly when every
    division is exact and basis * X == B.  The map pre comes from the
    factorization that produced the basis, so reading coordinates is one
    sparse product and never a new reduction.  Equality and hashing are by
    basis: two lattices with one basis give the same coordinates.
    """

    __slots__ = ("basis", "_pre", "_divisors")

    def __init__(self, basis: SparseIntMatrix, pre: SparseIntMatrix,
                 divisors: Sequence[int] | None = None):
        self.basis = basis
        self._pre = pre
        self._divisors = divisors

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.basis == other.basis

    def __hash__(self) -> int:
        return hash(self.basis)

    def coordinates(self, b: SparseIntMatrix) -> SparseIntMatrix | None:
        """X with basis * X == b, or None when a column of b lies outside."""
        if b.rows != self.basis.rows:
            raise ValueError("ambient dimension mismatch")
        x = self._pre.mul(b)
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
        pre = SparseIntMatrix(self._pre.rows, size, tuple(
            (i, slots[j], v) for (i, j, v) in self._pre.entries))
        return Lattice(basis, pre, self._divisors)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def kernel_basis(mat: SparseIntMatrix) -> Lattice:
    """ker(mat) with a primitive basis, the columns of V past the rank; the
    coordinates of v are those rows of V^-1 * v.  A matrix with no entries
    is its own Smith form, with V = 1, so its kernel is read off its
    shape."""
    if not mat.entries:
        unit = SparseIntMatrix.identity(mat.cols)
        return Lattice(unit, unit)
    f = _Factorization(mat)
    basis, pre = f.v[f.rank:], f.v_inv[f.rank:]
    return Lattice(_matrix(mat.cols, len(basis), zip(*basis)),
                   _matrix(len(pre), mat.cols, pre))


def column_space_basis(mat: SparseIntMatrix) -> Lattice:
    """The column lattice of mat with the independent basis: the first rank
    columns of U^-1, each times its diagonal entry; the coordinates of v
    are those rows of U * v, each divided by its diagonal entry.  A matrix
    with no entries has rank 0, so its column lattice, zero, is read off
    its shape."""
    if not mat.entries:
        return Lattice(SparseIntMatrix.zero(mat.rows, 0),
                       SparseIntMatrix.zero(0, mat.rows))
    f = _Factorization(mat)
    basis = [[x * d for x in line] for line, d in zip(f.u_inv, f.diag)]
    return Lattice(_matrix(mat.rows, f.rank, zip(*basis)),
                   _matrix(f.rank, mat.rows, f.u[:f.rank]), f.diag)


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
    trivial factors.  A coordinate matrix with no entries is its own Smith
    form, with identity transforms, and is not factored.
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
        if coords.entries:
            fx = _Factorization(coords)
            diag, u, u_inv = fx.diag, fx.u, fx.u_inv
        else:
            diag, u = [], _identity(rank)
            u_inv = u
        orders = diag + [0] * (rank - len(diag))
        kept = [k for k, d in enumerate(orders) if d != 1]
        orders = [orders[k] for k in kept]
        self.lattice = lattice
        self.invariants = AbelianGroupInvariants(
            orders.count(0), tuple(d for d in orders if d > 1))
        self.generators = tuple(
            HomologyGenerator(d, tuple(lattice.basis.apply(u_inv[k])))
            for k, d in zip(kept, orders))
        self._orders = orders
        self._to_generators = _matrix(
            len(kept), rank, (u[k] for k in kept))

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
