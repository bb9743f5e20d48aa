"""Dense brute-force reference implementations used only by the tests.

Everything here is deliberately naive: dense lists of lists, textbook
row and column reduction, no sparsity, no canonical ordering tricks, and a
generator enumeration written independently of the package.  The package must
agree with these results bit for bit on group invariants.
"""

from __future__ import annotations

THETA = "theta"


# ---------------------------------------------------------------------------
# dense matrices: (rows, cols, a) with a = list of row lists
# ---------------------------------------------------------------------------

def dense_zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def dense_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = dense_zero(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def dense_det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dense_invariant_factors(mat):
    """All nonzero invariant factors of an integer matrix, ascending.

    Textbook diagonalization: repeatedly move a minimal nonzero entry to the
    pivot, clear its row and column, and enforce that the pivot divides the
    remaining submatrix before moving on.
    """
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag = []
    t = 0
    while t < rows and t < cols:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        while True:
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            dirty = False
            for i in range(rows):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        dirty = True
            if dirty:
                # a remainder smaller than the pivot appeared in the column
                for i in range(rows):
                    if i != t and a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        break
                continue
            for j in range(cols):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // p
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                for j in range(cols):
                    if j != t and a[t][j] != 0:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        break
                continue
            off = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        off = i
                        break
                if off is not None:
                    break
            if off is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[off])]
        diag.append(a[t][t])
        t += 1
    return diag


def dense_rank(mat):
    return len(dense_invariant_factors(mat))


def dense_in_span(lattice, vec):
    """Whether vec lies in the column span of lattice (a list of rows).

    It does exactly when appending it as a column leaves the invariant
    factors unchanged: the quotient by the larger span is then isomorphic
    to, and a quotient of, the one by the smaller span.
    """
    return dense_invariant_factors(lattice) == dense_invariant_factors(
        [row + [v] for row, v in zip(lattice, vec)])


def dense_homology(dim_n, d_n, d_np1):
    """(free rank, torsion list) of ker(d_n)/im(d_np1).

    Independent derivation: the kernel of an integer matrix is a direct
    summand, so the free rank is dim - rank(d_n) - rank(d_np1) and the torsion
    equals the invariant factors of d_np1 that exceed 1.
    """
    r_out = dense_rank(d_n) if d_n else 0
    factors = dense_invariant_factors(d_np1) if d_np1 else []
    free = dim_n - r_out - len(factors)
    torsion = [f for f in factors if f > 1]
    return free, torsion


# ---------------------------------------------------------------------------
# independent complex assembly from a raw dataset dict
# ---------------------------------------------------------------------------

def _coeff_maps(dataset):
    n = {(e["from"], e["to"]): e["value"] for e in dataset.get("n", [])}
    m = {(e["from"], e["to"]): e["value"] for e in dataset.get("m", [])}
    gr = {p["id"]: p["gr"] for p in dataset.get("points", [])}
    return gr, n, m


def _admissible(flavor, kind, k):
    if flavor == "noneq":
        return kind == "eta" and k == 0
    if flavor == "infinity":
        return True
    if flavor == "minus":
        return k < 0
    if flavor == "plus":
        return k >= 0
    if flavor == "hat":
        return k == 0
    raise ValueError(flavor)


def oracle_basis(dataset, flavor, degree):
    """Generators of the given total degree, points in input order, theta last."""
    gr, _, _ = _coeff_maps(dataset)
    basis = []
    for pid, g in gr.items():
        if (degree - g) % 2 == 0:
            k = (degree - g) // 2
            if _admissible(flavor, "eta", k):
                basis.append(("eta", pid, k))
        if (degree - g - 1) % 2 == 0:
            k = (degree - g - 1) // 2
            if _admissible(flavor, "one", k):
                basis.append(("one", pid, k))
    if flavor != "noneq" and degree % 2 == 0:
        k = degree // 2
        if _admissible(flavor, "theta", k):
            basis.append(("theta", None, k))
    return basis


def id_order(basis):
    """basis, (kind, point, k) triples, in the order the engine used
    before it ordered by grading: theta first, then the points by id."""
    return sorted(basis, key=lambda g: (g[1] is not None, g[1] or ""))


def grading_order(dataset, basis):
    """basis in the engine's order: by the grading of the point, theta's
    being 0, theta first among grading 0, then by point id."""
    gr, _, _ = _coeff_maps(dataset)
    return sorted(basis, key=lambda g: (
        0 if g[1] is None else gr[g[1]], g[1] is not None, g[1] or ""))


def from_id_order(dataset, flavor, degree):
    """The place in grading_order of each generator of the flavor's degree
    slice, listed in id_order."""
    basis = oracle_basis(dataset, flavor, degree)
    place = {g: i for i, g in enumerate(grading_order(dataset, basis))}
    return [place[g] for g in id_order(basis)]


def regraded(dataset, dense, rows, cols):
    """dense, a matrix written on the id_order bases of rows and cols,
    each a (flavor, degree) slice, with its rows and columns moved into
    grading_order."""
    row_at, col_at = (from_id_order(dataset, *side) for side in (rows, cols))
    out = dense_zero(len(row_at), len(col_at))
    for i, line in enumerate(dense):
        for j, x in enumerate(line):
            out[row_at[i]][col_at[j]] = x
    return out


def oracle_differential(dataset, flavor, degree):
    """Dense matrix of the differential from degree to degree - 1."""
    gr, n, m = _coeff_maps(dataset)
    src = oracle_basis(dataset, flavor, degree)
    dst = oracle_basis(dataset, flavor, degree - 1)
    index = {g: i for i, g in enumerate(dst)}
    out = dense_zero(len(dst), len(src))

    def emit(col, target, value):
        kind, pid, k = target
        if value and _admissible(flavor, kind, k):
            out[index[(kind, pid, k)]][col] += value

    for col, (kind, pid, k) in enumerate(src):
        if kind == "eta":
            for (a, b), v in n.items():
                if a == pid and b != THETA:
                    emit(col, ("eta", b, k), v)
            if flavor != "noneq":
                for (a, c), v in m.items():
                    if a == pid:
                        emit(col, ("one", c, k), v)
                emit(col, ("one", pid, k - 1), -1)
                if gr[pid] == 1 and (pid, THETA) in n:
                    emit(col, ("theta", None, k), n[(pid, THETA)])
        elif kind == "one":
            for (a, b), v in n.items():
                if a == pid and b != THETA:
                    emit(col, ("one", b, k), -v)
        else:
            for (a, d), v in n.items():
                if a == THETA:
                    emit(col, ("one", d, k), v)
    return out


def oracle_homology_at(dataset, flavor, degree):
    """(free rank, torsion) at one degree, all from the dense path."""
    dim = len(oracle_basis(dataset, flavor, degree))
    d_n = oracle_differential(dataset, flavor, degree)
    d_np1 = oracle_differential(dataset, flavor, degree + 1)
    return dense_homology(dim, d_n, d_np1)


def dense_transpose(mat):
    return [list(col) for col in zip(*mat)]


def oracle_cohomology_at(dataset, flavor, degree):
    """(free rank, torsion) of degree-n cohomology: the kernel of the
    transposed d_{n+1} modulo the image of the transposed d_n."""
    dim = len(oracle_basis(dataset, flavor, degree))
    d_out = dense_transpose(oracle_differential(dataset, flavor, degree + 1))
    d_in = dense_transpose(oracle_differential(dataset, flavor, degree))
    return dense_homology(dim, d_out, d_in)


# ---------------------------------------------------------------------------
# the filtration spectral sequence, from its definitions
# ---------------------------------------------------------------------------

def dense_column_reduction(columns, height):
    """(echelon, kernel) of the matrix whose columns are listed, each of
    the given height.

    Textbook column reduction: unimodular column operations, tracked in V,
    bring it to [H | 0] one row at a time.  echelon lists each column of H
    with its pivot row: an independent basis of the column span, each
    column zero in the pivot rows of those before it.  kernel lists the
    columns of V under the zero columns, a basis of the integer kernel.
    """
    a = [list(col) for col in columns]
    cols = len(a)
    v = [[int(i == j) for i in range(cols)] for j in range(cols)]
    pivots = []
    t = 0
    for i in range(height):
        while True:
            live = [j for j in range(t, cols) if a[j][i]]
            if not live:
                break
            pivot = min(live, key=lambda j: abs(a[j][i]))
            a[t], a[pivot] = a[pivot], a[t]
            v[t], v[pivot] = v[pivot], v[t]
            cleared = True
            for j in range(t + 1, cols):
                q = a[j][i] // a[t][i]
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], a[t])]
                    v[j] = [x - q * y for x, y in zip(v[j], v[t])]
                if a[j][i]:
                    cleared = False
            if cleared:
                pivots.append(i)
                t += 1
                break
    return list(zip(a[:t], pivots)), v[t:]


def dense_kernel_basis(mat, cols):
    """A basis of the integer kernel of mat, which has cols columns, as a
    list of vectors."""
    columns = [[row[j] for row in mat] for j in range(cols)]
    return dense_column_reduction(columns, len(mat))[1]


def dense_echelon_coordinates(echelon, vec):
    """The integer x with sum x_t H_t == vec for the echelon basis H of
    dense_column_reduction; None when vec lies outside its span."""
    rest = list(vec)
    x = []
    for col, pivot in echelon:
        q, r = divmod(rest[pivot], col[pivot])
        if r:
            return None
        x.append(q)
        rest = [a - q * b for a, b in zip(rest, col)]
    return x if not any(rest) else None


def dense_cell_homology(orders, incoming, outgoing, target_orders):
    """(free rank, torsion) of ker / im at the middle group of G' -> G ->
    G'', with G the sum of Z/o over orders (o = 0 giving Z).

    outgoing lists the rows of the map G -> G'', whose orders are
    target_orders; incoming lists the columns of the map G' -> G, in G's
    coordinates.  x in Z^k is a cycle when outgoing x lies in the
    relations of G'', so the cycles are the first k coordinates of the
    kernel of [outgoing | diag(target_orders)]; the boundaries are
    incoming's columns and G's own relations.  The answer is the cycle
    lattice modulo the boundaries, read in an echelon basis of the cycles.
    """
    k = len(orders)
    block = [list(row) + [o * (i == j) for j, o in enumerate(target_orders)]
             for i, row in enumerate(outgoing)]
    cycles = [x[:k] for x in dense_kernel_basis(block, k + len(outgoing))]
    echelon, _ = dense_column_reduction(cycles, k)
    boundaries = [list(col) for col in incoming] + [
        [o * (i == j) for i in range(k)] for j, o in enumerate(orders) if o]
    coords = [dense_echelon_coordinates(echelon, b) for b in boundaries]
    if any(c is None for c in coords):
        raise ValueError("a boundary is not a cycle")
    factors = dense_invariant_factors(
        [[c[t] for c in coords] for t in range(len(echelon))])
    return len(echelon) - len(factors), [f for f in factors if f > 1]


def oracle_filtrations(dataset, flavor, degree):
    """The filtration of each oracle generator: its point's grading, or 0
    for theta."""
    gr, _, _ = _coeff_maps(dataset)
    return [0 if kind == "theta" else gr[pid]
            for kind, pid, _ in oracle_basis(dataset, flavor, degree)]


def oracle_spectral_pages(dataset, flavor, up_to_r, degrees):
    """(free rank, torsion) of every cell of pages 0 through up_to_r, keyed
    (p, q) for each filtration level p and each degree n = p + q listed.

    E_r(p, n) = Z_r^p / (Z_{r-1}^{p-1} + D Z_{r-1}^{p+r-1}), with Z_r^p the
    degree-n chains of filtration at most p whose boundary has filtration
    at most p - r.  Z_r^p is the kernel of a restriction of D to some
    coordinates, so a pure sublattice: the quotient's free rank is a rank
    difference, and its torsion is the invariant factors of the denominator
    above 1.
    """
    gr, _, _ = _coeff_maps(dataset)
    levels = sorted(set(gr.values()) | {0})
    z_memo = {}

    def z(r, p, n):
        if (r, p, n) not in z_memo:
            source = oracle_filtrations(dataset, flavor, n)
            low = [j for j, f in enumerate(source) if f <= p]
            high = [i for i, f in enumerate(
                oracle_filtrations(dataset, flavor, n - 1)) if f > p - r]
            d = oracle_differential(dataset, flavor, n)
            block = [[d[i][j] for j in low] for i in high]
            vectors = []
            for x in dense_kernel_basis(block, len(low)):
                vec = [0] * len(source)
                for j, c in zip(low, x):
                    vec[j] = c
                vectors.append(vec)
            z_memo[r, p, n] = vectors
        return z_memo[r, p, n]

    pages = []
    for r in range(up_to_r + 1):
        cells = {}
        for p in levels:
            for n in degrees:
                d_up = oracle_differential(dataset, flavor, n + 1)
                columns = z(r - 1, p - 1, n) + [
                    [sum(a * b for a, b in zip(row, x)) for row in d_up]
                    for x in z(r - 1, p + r - 1, n + 1)]
                dim = len(oracle_basis(dataset, flavor, n))
                factors = dense_invariant_factors(
                    [[col[i] for col in columns] for i in range(dim)])
                cells[p, n - p] = (len(z(r, p, n)) - len(factors),
                                   [f for f in factors if f > 1])
        pages.append(cells)
    return pages
