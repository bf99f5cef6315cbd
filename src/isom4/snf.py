"""Exact linear algebra over Z and Z/p^k.

One kernel serves every modulus p^k: ``kernel_mod_prime_power`` runs a
single elimination over the local ring Z/p^k, which pivots on entries
of least p-adic valuation, for every modulus but 2, where rows are
packed into bits and eliminated by XOR.  The same local elimination
gives the cyclic decomposition of a quotient module.  These routines
are vectorized with numpy; they are the workhorses behind the
cohomology computations, where relation matrices reach a few thousand
rows and columns.  Systems are reduced into the narrowest integer dtype
that holds [0, p^k) and duplicate rows are dropped by comparing each row
as one byte string.  Integer Smith normal form and the Bareiss
determinant are pure Python with arbitrary precision arithmetic, for
small matrices: they are the exact references the tests compare
against.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidInputError, InvalidParametersError

__all__ = [
    "smith_normal_form",
    "det_exact",
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
    if not isinstance(p, numbers.Integral):
        raise InvalidParametersError(f"modulus {p!r} is not an integer")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise InvalidParametersError(f"modulus {p} is not prime")


def _prime_power(p, k):
    """``(p, k, p^k)`` as Python integers, once p is prime and k is an
    integer of at least 1."""
    _require_prime(p)
    if not isinstance(k, numbers.Integral) or k < 1:
        raise InvalidParametersError(f"exponent {k!r} is not an integer of at least 1")
    p, k = int(p), int(k)
    return p, k, p**k


def _reduce(a, mod):
    """Entries of ``a`` mod ``mod``, in the narrowest signed integer
    dtype that holds [0, mod)."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" or np.iinfo(a.dtype).max < mod:
        a = a.astype(np.int64)
    narrow = next((t for t in (np.int8, np.int16, np.int32)
                   if mod <= np.iinfo(t).max + 1), np.int64)
    if a.size and (a.min() < 0 or a.max() >= mod):
        # written straight into the narrow dtype: no full-width copy
        return np.remainder(a, mod, out=np.empty(a.shape, dtype=narrow), casting="unsafe")
    return a.astype(narrow, copy=False)


def _work_dtype(mod, terms):
    """The narrowest of int16, int32 and int64 in which sums of
    ``terms`` products of residues mod ``mod`` cannot overflow, else
    exact Python integers."""
    bound = terms * (mod - 1) ** 2
    return next((t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max),
                object)


def _valuation(p, k):
    """Elementwise p-adic valuation on Z/p^k, with v(0) = k."""
    mod = p**k
    if mod <= 1 << 16:
        table = np.zeros(mod, dtype=np.int8)
        for e in range(1, k + 1):
            table[:: p**e] += 1
        return table.take
    return lambda x: sum((x % p**e == 0).astype(np.int64) for e in range(1, k + 1))


# entries in one block of a blocked kernel: 2^16 float64 entries (512 KB)
# stay in a core's L2 cache, and no temporary grows with the whole input
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(rows, per_row):
    """Consecutive slices covering range(rows), each of about
    _BLOCK_ENTRIES entries at ``per_row`` entries a row (at least one
    row a slice)."""
    step = max(1, _BLOCK_ENTRIES // max(1, per_row))
    return [slice(s, min(s + step, rows)) for s in range(0, rows, step)]


def _imatmul(x, y):
    """Exact integer matrix product, through BLAS when bounds allow.

    x is converted and multiplied in row blocks of about _BLOCK_ENTRIES
    entries (the one block budget of the blocked kernels), so no full
    float64 or int64 copy of x is made.  Each entry of the product is
    formed whole within its block, so the blocks change no bit."""
    x = np.asarray(x)
    y = np.asarray(y)
    out = np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    if x.size == 0 or y.size == 0:
        return out
    bound = (max(-int(x.min()), int(x.max())) * max(-int(y.min()), int(y.max()))
             * x.shape[1])
    # below 2^52 every partial sum is an integer the float product holds
    # exactly
    dt = np.float64 if bound < 2**52 else np.int64
    y = y.astype(dt)
    for rows in _row_blocks(x.shape[0], x.shape[1] + y.shape[1]):
        out[rows] = x[rows].astype(dt) @ y
    return out


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


def _drop_redundant_rows(a, p):
    """The distinct nonzero rows of ``a`` (entries in [0, p)), in
    lexicographic order of their entries.

    Each row is compared as one opaque byte string, in a dtype whose
    byte order is the numeric order: int8 below 128, big-endian
    unsigned above.  The sorted records keep each first of a run of
    equal neighbours.
    """
    if a.size == 0:
        return a
    a = a[np.any(a != 0, axis=1)]
    if a.shape[0] > 1:
        dt = np.dtype(np.int8 if p < 128 else ">u2" if p <= 1 << 16 else ">u8")
        rows = np.ascontiguousarray(a, dtype=dt)
        keys = np.sort(rows.view(np.dtype((np.void, rows.shape[1] * dt.itemsize))).ravel())
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
        a = keys.view(dt).reshape(-1, rows.shape[1])
    return a


def _kernel_gf2(a):
    """GF(2) kernel of a 0/1 matrix with rows packed into bytes; XOR
    elimination."""
    m, n = a.shape
    if m == 0 or n == 0:
        return np.eye(n, dtype=np.int64)
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
    # reduced before it is narrowed to dt, so no entry wraps
    m = np.asarray(a).astype(object) % mod if dt is object else _reduce(a, mod).astype(dt)
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
    in general independent.  One local elimination of the transpose
    gives P a^T Q = diag(p^v) with P invertible, so x = P^T y solves the
    system exactly when p^(v_i) y_i = 0 for every i: the kernel is
    generated by the columns p^(k - v_i) P[i]^T with v_i > 0, where
    v_i = k for rows of P never pivoted.  At k = 1 these are the
    unpivoted rows of P, so the mod-p kernel is a basis already; at
    p^k = 2 packed XOR elimination finds one.
    """
    p, k, mod = _prime_power(p, k)
    a = _drop_redundant_rows(_reduce(a, mod), mod)
    if mod == 2:
        return _kernel_gf2(a)
    vals, pmat, _ = _local_elimination(a.T, p, k)
    keep = np.nonzero(vals > 0)[0]
    scale = np.array([p ** (k - int(v)) for v in vals[keep]], dtype=pmat.dtype)
    return (pmat[keep].T * scale % mod).astype(np.int64)


def solve_mod_prime_power(a, b, p, k):
    """One solution of a @ x == b mod p^k, or None if none exists."""
    p, k, mod = _prime_power(p, k)
    # kept in _reduce's narrow dtype: no int64 copy of a is made
    a = _reduce(a, mod)
    b = _reduce(np.asarray(b).reshape(-1, 1), mod)
    aug = np.hstack([a, _reduce(-b, mod)])
    gens = kernel_mod_prime_power(aug, p, k)
    for j in range(gens.shape[1]):
        t = int(gens[-1, j])
        if t % p:
            return (gens[:-1, j] * pow(t, -1, mod)) % mod
    return None


def module_presentation_local(rel, p, k):
    """Cyclic decomposition of (Z/p^k)^d modulo the column span of rel.

    ``rel`` is a d x r integer matrix whose columns are relations; a
    free module is a d x 0 matrix.  Returns ``(orders, gens)`` where
    orders[i] > 1 is the size of the i-th cyclic factor, ascending, and
    gens[:, i] generates it in the original coordinates:
    P rel Q = diag(p^v) makes the columns of P^(-1) the factor
    generators.
    """
    p, k, _ = _prime_power(p, k)
    vals, _, pinv = _local_elimination(np.asarray(rel, dtype=np.int64), p, k)
    keep = np.nonzero(vals > 0)[0]
    orders = [p ** int(v) for v in vals[keep]]
    return orders, pinv[:, keep].astype(np.int64)
