"""Exact-enumeration kernels, vectorized with numpy.

``BACKEND`` names the array backend; it is always ``"numpy"``.  Each
kernel is checked against an independent oracle in the tests:
``mul_table`` against scalar :func:`corrkem.gf2.mul`, ``cea_sd``
against full (a, b) seed enumeration at q_e = 0 and 1 and against its
definition on random tables, ``compose_sd``
against the naive composability enumeration, and ``census_max_dev``
against its closed form on a degenerate all-zero product table and a
per-pair recount on a planted fault.

The exact statistical-distance kernels exploit one structural fact
about the affine hash family h_{a,b}(x) = msb_m(a*x XOR b): the b part
is an additive output mask, uniform and independent of everything
else, so XOR-relabeling every output by msb(b) turns both the real and
the reference joint distribution into a product with a uniform,
independent b component.  Statistical distance is invariant under that
bijection, hence seeds are enumerated over their multiplier a alone.

The SD kernels take pre-shifted hash-output tables:

    tag[a, i] = msb_t(a * xcode_i)      (na, nx) int64
    key[a, i] = msb_ell(a * xcode_i)    (na, nx) int64

``cea_sd`` reads them as one-hot matrices T[(a, g), i] = [tag[a, i] = g]
and K[(a, k), i] = [key[a, i] = k] and gets the transcript joint of
every seed tuple from one dense product per z value,
J_z = (T^(1+q_e) diag(pxz[:, z])) (K^(1+q_e))^T, with ^ the row-wise
Khatri-Rao power.  The challenge key is the last right digit, and the
distance sums |J - its mean over that digit|.  The one-time challenge
distance is the q_e = 0 transcript distance.

The census, itself the verification oracle for the hash family,
enumerates the full (a, b) seed space with no shortcut: the Gram
matrix O^T O of the one-hot matrix O[(a, b), (x, output)] counts every
output pair of every input pair, and x1 = x2 is left out.

Both kernels work in blocks of rows (the census also of seeds), so no
temporary exceeds BLOCK_CELLS / 8 cells at any width the regime
guards admit.
"""

from math import isqrt

import numpy as np

from .gf2 import reduction_low

BACKEND = "numpy"

# Widest field the exhaustive kernels enumerate: the product table and
# the census grow as 4^w.
MAX_WIDTH = 12

# Memory budget of one kernel call, in 8-byte cells (32 MiB).
BLOCK_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# GF(2^w) multiplication table


def mul_table(w: int) -> np.ndarray:
    """Dense (2^w, 2^w) table of field products a*x.

    Limited to w <= MAX_WIDTH; the exhaustive-enumeration regime never
    needs more.
    """
    if not 1 <= w <= MAX_WIDTH:
        raise ValueError(f"product table limited to 1 <= w <= {MAX_WIDTH}")
    low = reduction_low(w)
    n = 1 << w
    top = 1 << (w - 1)
    mask = n - 1
    # rows of (x << i) mod f for i = 0..w-1
    shifted = np.empty((w, n), np.int32)
    s = np.arange(n, dtype=np.int32)
    for i in range(w):
        shifted[i] = s
        carry = (s & top) != 0
        s = (s << 1) & mask
        s[carry] ^= low
    out = np.zeros((n, n), np.int32)
    for a in range(1, n):
        b = (a & -a).bit_length() - 1
        out[a] = out[a & (a - 1)] ^ shifted[b]
    return out


# ---------------------------------------------------------------------------
# Blocked one-hot matrices


def _block(total: int, cells_per_row: int, step: int = 1) -> int:
    """Rows per block (a multiple of `step`, at least one step) so that
    one (rows, cells_per_row) array stays within BLOCK_CELLS // 8 cells."""
    rows = (BLOCK_CELLS // 8) // max(1, cells_per_row) // step * step
    return min(total, max(step, rows))


def _khatri_rao_rows(table, bits, factors, rows):
    """Rows `rows` of the `factors`-fold row-wise Khatri-Rao power of the
    one-hot table onehot[(a, v), x] = [table[a, x] == v], as booleans:
    row r holds one (a, v) digit per factor, the last least significant."""
    width = table.shape[0] << bits
    hit = np.ones((rows.shape[0], table.shape[1]), bool)
    for j in range(factors):
        digit = rows // width ** (factors - 1 - j) % width
        hit &= table[digit >> bits] == (digit & ((1 << bits) - 1))[:, None]
    return hit


# ---------------------------------------------------------------------------
# Pairwise-independence census: the Gram matrix of the full (a, b) seed space


def census_max_dev(prod, w, m):
    n = 1 << w
    nrows = n << m  # one Gram row per (x, output) pair
    expected = (n * n) >> (2 * m)
    rb = _block(nrows, isqrt(BLOCK_CELLS // 8))
    sb = _block(n * n, max(n, 2 * rb))
    worst = 0
    for i in range(0, nrows, rb):
        ri = np.arange(i, min(i + rb, nrows))
        for j in range(i, nrows, rb):  # the Gram matrix is symmetric
            rj = np.arange(j, min(j + rb, nrows))
            gram = np.zeros((len(ri), len(rj)), np.float32)  # exact up to 2^24
            for s in range(0, n * n, sb):
                a, b = np.divmod(np.arange(s, min(s + sb, n * n)), n)
                hashes = (prod[a].T ^ b.astype(prod.dtype)) >> (w - m)  # (x, seed)
                o_i = _khatri_rao_rows(hashes, m, 1, ri).astype(np.float32)
                o_j = o_i if j == i else _khatri_rao_rows(hashes, m, 1, rj).astype(np.float32)
                gram += o_i @ o_j.T
            dev = np.abs(gram - expected)
            dev[np.equal.outer(ri >> m, rj >> m)] = 0  # x1 == x2 is not a pair
            worst = max(worst, int(dev.max()))
    return worst


# ---------------------------------------------------------------------------
# Exact SD for the q_e-query transcript game


def cea_sd(tag, key, pxz, t_bits, ell_bits, q_e):
    na, nx = tag.shape
    two_l = 1 << ell_bits
    nleft = (na << t_bits) ** (1 + q_e)
    nright = (na << ell_bits) ** (1 + q_e)
    br = _block(nright, nx, two_l)
    bl = _block(nleft, max(nx, br))
    total = 0.0
    for r in range(0, nright, br):
        right = _khatri_rao_rows(key, ell_bits, 1 + q_e, np.arange(r, min(r + br, nright)))
        right = right.astype(np.float64)
        for l in range(0, nleft, bl):
            left = _khatri_rao_rows(tag, t_bits, 1 + q_e, np.arange(l, min(l + bl, nleft)))
            for pz in pxz.T:
                joint = ((left * pz) @ right.T).reshape(left.shape[0], -1, two_l)
                joint -= joint.sum(axis=2, keepdims=True) / two_l
                total += np.abs(joint, out=joint).sum()
    return 0.5 * total / na ** (2 + 2 * q_e)


# ---------------------------------------------------------------------------
# Exact SD of (Z, C*, K_A, K_B) against (Z, C*, U, U) with duplicated U.
# K_B takes the extra value two_l for decapsulation failure.
# cand[y, a, g] = column of the unique tag-matching list entry,
# -1 when none matches, -2 when several do.


def compose_sd(tag, key, xcol, ycol, zcol, ptr, cand, t_bits, ell_bits, nz):
    na = tag.shape[0]
    two_l = 1 << ell_bits
    nrow = 1 << t_bits
    kb_vals = two_l + 1
    nrows_all = nz * nrow
    nblock = nrows_all * two_l * kb_vals
    a2off = np.arange(na, dtype=np.int64)[:, None] * nblock
    diag_mask = np.equal.outer(np.arange(two_l), np.arange(kb_vals))
    weights = np.broadcast_to(ptr, (na, ptr.shape[0])).ravel()
    total = 0.0
    for a in range(na):
        g = tag[a, xcol]
        m = cand[ycol, a, g]
        rc = zcol * nrow + g
        ka = key[:, xcol]
        kb = np.where(m < 0, two_l, key[:, np.maximum(m, 0)])
        codes = ((rc * two_l + ka) * kb_vals + kb + a2off).ravel()
        joint = np.bincount(codes, weights=weights, minlength=na * nblock)
        joint = joint.reshape(na, nrows_all, two_l, kb_vals)
        ref = joint.sum(axis=(2, 3), keepdims=True) / two_l * diag_mask
        total += np.abs(joint - ref).sum()
    return 0.5 * total / (na * na)


def challenge_sd(tag, key, pxz, t_bits, ell_bits):
    """Exact SD of (Z, S, h_S(X), S', h'_{S'}(X)) against the uniform-key
    reference: the transcript distance with no oracle queries."""
    return cea_sd(tag, key, pxz, t_bits, ell_bits, 0)
