"""Exact linear algebra over Z, GF(p), and Z/p^k.

Integer Smith normal form is pure Python with arbitrary precision
arithmetic and is only meant for small matrices.  The mod-p and mod-p^k
routines are vectorized with numpy; they are the workhorses behind the
cohomology computations, where relation matrices reach a few thousand
rows and columns.  Systems are reduced into the narrowest integer dtype
that holds [0, p^k) and duplicate rows are dropped by comparing each row
as one byte string.  Over Z/p^k with k >= 2 a single elimination, which
pivots on entries of least p-adic valuation, serves both the kernel and
the cyclic decomposition of a quotient module.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, InvalidParametersError

__all__ = [
    "smith_normal_form",
    "det_exact",
    "rref_mod_p",
    "rank_mod_p",
    "kernel_mod_p",
    "kernel_mod_prime_power",
    "solve_mod_prime_power",
    "module_presentation_local",
]


def _as_int_matrix(a):
    mat = [[int(x) for x in row] for row in a]
    if not mat or not mat[0]:
        raise InvalidInputError("matrix must be nonempty")
    width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise InvalidInputError("matrix rows have unequal lengths")
    return mat


def _require_prime(p):
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise InvalidParametersError(f"modulus {p} is not prime")


def _inverse_table(p):
    inv = np.zeros(p, dtype=np.int64)
    inv[1:] = [pow(x, p - 2, p) for x in range(1, p)]
    return inv


def _reduce(a, mod):
    """Entries of ``a`` mod ``mod``, in the narrowest signed integer
    dtype that holds [0, mod)."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" or np.iinfo(a.dtype).max < mod:
        a = a.astype(np.int64)
    narrow = next((t for t in (np.int8, np.int16, np.int32)
                   if mod <= np.iinfo(t).max + 1), np.int64)
    if a.size and (a.min() < 0 or a.max() >= mod):
        a = a % mod
    return a.astype(narrow, copy=False)


def _work_dtype(mod, terms):
    """int64 when sums of ``terms`` products of residues mod ``mod``
    cannot overflow it, else exact Python integers."""
    return np.int64 if terms * (mod - 1) ** 2 < 2**63 else object


def _valuation(p, k):
    """Elementwise p-adic valuation on Z/p^k, with v(0) = k."""
    mod = p**k
    if mod <= 1 << 16:
        table = np.zeros(mod, dtype=np.int8)
        for e in range(1, k + 1):
            table[:: p**e] += 1
        return table.take
    return lambda x: sum((x % p**e == 0).astype(np.int64) for e in range(1, k + 1))


def _imatmul(x, y):
    """Exact integer matrix product, through BLAS when bounds allow."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.size == 0 or y.size == 0:
        return np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    bound = (max(-int(x.min()), int(x.max())) * max(-int(y.min()), int(y.max()))
             * x.shape[1])
    if bound < 2**52:
        # every partial sum is an integer of magnitude <= bound, so the
        # float product is exact
        prod = x.astype(np.float64) @ y.astype(np.float64)
        return np.rint(prod).astype(np.int64)
    return x.astype(np.int64) @ y.astype(np.int64)


def smith_normal_form(a):
    """Diagonalize an integer matrix over Z.

    Returns ``(d, u, v)`` with ``u @ a @ v == d``, where ``u`` and ``v``
    are unimodular and the diagonal of ``d`` is nonnegative with each
    entry dividing the next.  All three are object-dtype arrays so the
    identity can be checked without overflow.
    """
    mat = _as_int_matrix(a)
    m, n = len(mat), len(mat[0])
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            mat[i], mat[j] = mat[j], mat[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in mat:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        rd, rs = mat[dst], mat[src]
        for j in range(n):
            rd[j] += c * rs[j]
        rd, rs = u[dst], u[src]
        for j in range(m):
            rd[j] += c * rs[j]

    def add_col(dst, src, c):
        for row in mat:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        mat[i] = [-x for x in mat[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        while True:
            # re-pivot every round: smallest nonzero entry of the block
            pivot, best = None, 0
            for i in range(t, m):
                row = mat[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (pivot is None or abs(x) < best):
                        pivot, best = (i, j), abs(x)
            if pivot is None:
                return _finish(mat, u, v, t)
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if mat[t][t] < 0:
                negate_row(t)
            d = mat[t][t]
            # balanced remainders: any leftover has magnitude <= d/2, so
            # the next round's pivot at least halves and entries stay small
            cleared = True
            for i in range(t + 1, m):
                if mat[i][t]:
                    add_row(i, t, -((mat[i][t] + d // 2) // d))
                    cleared = cleared and mat[i][t] == 0
            for j in range(t + 1, n):
                if mat[t][j]:
                    add_col(j, t, -((mat[t][j] + d // 2) // d))
                    cleared = cleared and mat[t][j] == 0
            if not cleared:
                continue
            # the pivot must divide the whole trailing block before we
            # can move on, otherwise d_t | d_{t+1} can fail later
            bad = None
            for i in range(t + 1, m):
                if any(x % d for x in mat[i][t + 1 :]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(t, bad, 1)
        t += 1

    return _finish(mat, u, v, t)


def _finish(mat, u, v, rank):
    for i in range(rank):
        if mat[i][i] < 0:
            mat[i] = [-x for x in mat[i]]
            u[i] = [-x for x in u[i]]
    d = np.array(mat, dtype=object)
    return d, np.array(u, dtype=object), np.array(v, dtype=object)


def det_exact(a):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    mat = _as_int_matrix(a)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise InvalidInputError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def rref_mod_p(a, p):
    """Row echelon form over GF(p).

    Returns ``(r, pivot_cols)``.  Forward elimination only: pivots are
    normalized to 1 and cleared below, not above.
    """
    _require_prime(p)
    # products below stay within (p-1)^2, so int16 is safe for small p
    r = _reduce(a, p).astype(np.int16 if p < 128 else np.int64)
    m, n = r.shape
    inv = _inverse_table(p)
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        piv = int(r[row, col])
        if piv != 1:
            r[row, col:] = (r[row, col:] * inv[piv]) % p
        below = np.nonzero(r[row + 1 :, col])[0]
        if below.size:
            idx = below + row + 1
            r[idx, col:] = (r[idx, col:] - np.outer(r[idx, col], r[row, col:])) % p
        pivots.append(col)
        row += 1
    return r, pivots


def rank_mod_p(a, p):
    return len(rref_mod_p(a, p)[1])


def _drop_redundant_rows(a, p):
    """The distinct nonzero rows of ``a`` (entries in [0, p)), sorted as
    ``np.unique(a, axis=0)`` sorts them.

    Each row is compared as one opaque byte string, in a dtype whose
    byte order is the numeric order: int8 below 128, big-endian
    unsigned above.
    """
    if a.size == 0:
        return a
    a = a[np.any(a != 0, axis=1)]
    if a.shape[0] > 1:
        dt = np.dtype(np.int8 if p < 128 else ">u2" if p <= 1 << 16 else ">u8")
        rows = np.ascontiguousarray(a, dtype=dt)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * dt.itemsize))).ravel()
        a = np.unique(keys).view(dt).reshape(-1, rows.shape[1])
    return a


def kernel_mod_p(a, p):
    """Basis of the right kernel over GF(p), as columns with entries in
    [0, p)."""
    _require_prime(p)
    a = _reduce(a, p)
    if p == 2:
        return _kernel_gf2(a)
    a = _drop_redundant_rows(a, p)
    r, pivots = rref_mod_p(a, p)
    n = r.shape[1]
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k = len(free)
    ker = np.zeros((n, k), dtype=np.int64)
    if k == 0:
        return ker
    ker[free, np.arange(k)] = 1
    nr = len(pivots)
    if nr:
        pc = np.array(pivots, dtype=np.int64)
        x = np.zeros((nr, k), dtype=np.int64)
        for i in range(nr - 1, -1, -1):
            acc = r[i, free].astype(np.int64)
            if i + 1 < nr:
                acc += r[i, pc[i + 1 :]] @ x[i + 1 :]
            x[i] = (-acc) % p
        ker[pc] = x
    return ker


def _kernel_gf2(a):
    """GF(2) kernel with rows packed into bytes; XOR elimination."""
    a = _drop_redundant_rows(a, 2)
    m, n = a.shape
    if m == 0 or n == 0:
        ker = np.eye(n, dtype=np.int64)
        return ker
    words = np.packbits(a.astype(np.uint8), axis=1)
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        byte, bit = divmod(col, 8)
        shift = 7 - bit
        colbits = (words[row:, byte] >> shift) & 1
        nz = np.nonzero(colbits)[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            words[[row, i]] = words[[i, row]]
        carriers = (words[:, byte] >> shift) & 1
        carriers[row] = 0
        idx = np.nonzero(carriers)[0]
        if idx.size:
            words[idx] ^= words[row]
        pivots.append(col)
        row += 1
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k = len(free)
    ker = np.zeros((n, k), dtype=np.int64)
    if k == 0:
        return ker
    ker[free, np.arange(k)] = 1
    if pivots:
        # fully reduced rows: kernel entries are read off directly
        piv_rows = np.unpackbits(words[: len(pivots)], axis=1, count=n)
        ker[np.array(pivots, dtype=np.int64)] = piv_rows[:, free]
    return ker


def _local_elimination(a, p, k):
    """Diagonalize a d x r matrix over the local ring Z/p^k.

    Returns ``(vals, pmat, pinv)`` with ``pmat @ a @ Q == diag(p^vals)``
    mod p^k for some invertible Q, ``pinv`` the inverse of ``pmat`` and
    ``vals[i] = k`` past the last pivot.  Each step pivots on the first
    entry of least p-adic valuation in row-major order, so unit inverses
    always exist and the running entries stay reduced mod p^k.  Row
    operations act on the rows of ``pmat`` and, inverted, on the columns
    of ``pinv``; column operations need no record.
    """
    mod = p**k
    d, r = a.shape
    dt = _work_dtype(mod, d + 1)
    m = np.asarray(a).astype(dt) % mod
    pmat = np.eye(d, dtype=dt)
    pinv = np.eye(d, dtype=dt)
    val = _valuation(p, k)
    vals = np.full(d, k)

    t = 0
    while t < min(d, r):
        block = val(m[t:, t:])
        flat = int(np.argmin(block))
        v = int(block.flat[flat])
        if v == k:
            break
        i0, j0 = t + flat // (r - t), t + flat % (r - t)
        if i0 != t:
            m[[t, i0]] = m[[i0, t]]
            pmat[[t, i0]] = pmat[[i0, t]]
            pinv[:, [t, i0]] = pinv[:, [i0, t]]
        if j0 != t:
            m[:, [t, j0]] = m[:, [j0, t]]
        unit = int(m[t, t]) // p**v
        inverse = pow(unit, -1, mod)
        m[t, t:] = m[t, t:] * inverse % mod
        pmat[t] = pmat[t] * inverse % mod
        pinv[:, t] = pinv[:, t] * unit % mod
        f = m[t + 1 :, t] // p**v
        rows = t + 1 + np.flatnonzero(f)
        if rows.size:
            f = f[rows - t - 1]
            m[rows, t:] = (m[rows, t:] - np.outer(f, m[t, t:])) % mod
            pmat[rows] = (pmat[rows] - np.outer(f, pmat[t])) % mod
            pinv[:, t] = (pinv[:, t] + pinv[:, rows] @ f) % mod
        # every entry of row t is a multiple of the pivot p^v, so the
        # column operations against the pivot column zero the row
        m[t, t + 1 :] = 0
        vals[t] = v
        t += 1
    return vals, pmat, pinv


def kernel_mod_prime_power(a, p, k):
    """Generating set for {x : a @ x == 0 mod p^k}, as columns.

    The columns generate the solution module over Z/p^k; there are at
    most n of them (n = a.shape[1]) and none is zero, but they are not
    in general independent.  For k >= 2 one local elimination of the
    transpose gives P a^T Q = diag(p^v) with P invertible, so x = P^T y
    solves the system exactly when p^(v_i) y_i = 0 for every i: the
    kernel is generated by the columns p^(k - v_i) P[i]^T with v_i > 0,
    where v_i = k for rows of P never pivoted.  At k = 1 the mod-p kernel is
    a basis already.
    """
    _require_prime(p)
    if k < 1:
        raise InvalidParametersError("exponent must be at least 1")
    if k == 1:
        return kernel_mod_p(a, p)
    mod = p**k
    a = _drop_redundant_rows(_reduce(a, mod), mod)
    vals, pmat, _ = _local_elimination(a.T, p, k)
    keep = np.nonzero(vals > 0)[0]
    scale = np.array([p ** (k - int(v)) for v in vals[keep]], dtype=pmat.dtype)
    return (pmat[keep].T * scale % mod).astype(np.int64)


def solve_mod_prime_power(a, b, p, k):
    """One solution of a @ x == b mod p^k, or None if none exists."""
    mod = p**k
    a = np.asarray(a, dtype=np.int64) % mod
    b = np.asarray(b, dtype=np.int64).reshape(-1) % mod
    aug = np.hstack([a, (-b.reshape(-1, 1)) % mod])
    gens = kernel_mod_prime_power(aug, p, k)
    for j in range(gens.shape[1]):
        t = int(gens[-1, j])
        if t % p:
            return (gens[:-1, j] * pow(t, -1, mod)) % mod
    return None


def module_presentation_local(rel, p, k, dim=None):
    """Cyclic decomposition of (Z/p^k)^d modulo the column span of rel.

    ``rel`` is a d x r integer matrix whose columns are relations; pass
    ``dim`` instead when there are no relations.  Returns
    ``(orders, gens)`` where orders[i] > 1 is the size of the i-th
    cyclic factor, ascending, and gens[:, i] generates it in the
    original coordinates: P rel Q = diag(p^v) makes the columns of
    P^(-1) the factor generators.
    """
    _require_prime(p)
    if rel is None:
        if dim is None:
            raise InvalidInputError("pass a relation matrix or its row count dim")
        rel = np.zeros((dim, 0), dtype=np.int64)
    vals, _, pinv = _local_elimination(np.asarray(rel, dtype=np.int64), p, k)
    keep = np.nonzero(vals > 0)[0]
    orders = [p ** int(v) for v in vals[keep]]
    return orders, pinv[:, keep].astype(np.int64)
