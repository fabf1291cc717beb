"""Exact-enumeration kernels, vectorized with numpy.

``BACKEND`` names the array backend; it is always ``"numpy"``.  Each
kernel is checked against an independent oracle in the tests:
``mul_table`` against scalar :func:`corrkem.gf2.mul`, ``cea_sd``
against full (a, b) seed enumeration at q_e = 0 and 1, ``compose_sd``
against the naive composability enumeration, and ``census_max_dev``
against its closed form on a degenerate all-zero product table.

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

and bincount one joint table per block of fixed seeds.
The one-time challenge distance is the q_e = 0 transcript distance.
The census kernel, being itself the verification oracle for the hash
family, enumerates the full (a, b) seed space with no shortcut.
"""

import numpy as np

from .gf2 import reduction_low

BACKEND = "numpy"

# Widest field the exhaustive kernels enumerate: the product table and
# the census grow as 4^w.
MAX_WIDTH = 12


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
# Pairwise-independence census: full (a, b) seed enumeration


def census_max_dev(prod, w, m):
    n = 1 << w
    nm = 1 << m
    shift = w - m
    expected = (n * n) >> (2 * m)
    b = np.arange(n, dtype=np.int64)
    worst = 0
    for x1 in range(n):
        h1 = (((prod[:, x1].astype(np.int64)[:, None] ^ b[None, :]) >> shift) << m).ravel()
        for x2 in range(n):
            if x2 == x1:
                continue
            h2 = ((prod[:, x2].astype(np.int64)[:, None] ^ b[None, :]) >> shift).ravel()
            counts = np.bincount(h1 + h2, minlength=nm * nm)
            dev = int(np.abs(counts - expected).max())
            if dev > worst:
                worst = dev
    return worst


# ---------------------------------------------------------------------------
# Exact SD for the q_e-query transcript game


def cea_sd(tag, key, pxz, t_bits, ell_bits, q_e):
    na, nx = tag.shape
    nz = pxz.shape[1]
    two_l = 1 << ell_bits
    nrow = 1 << t_bits
    qblock = nrow * two_l
    nfixed = 1 + 2 * q_e  # all seeds except the challenge key seed
    nouter = na**nfixed
    nrest = nrow * qblock**q_e
    nblock = nrest * two_l
    keyoff = key + np.arange(na, dtype=np.int64)[:, None] * nblock
    # row index: the challenge tag in the lowest digit, query j's
    # (tag, key) block q_e - 1 - j places above it
    scale = [nrow * qblock ** (q_e - 1 - j) for j in range(q_e)]
    total = 0.0
    seeds = np.empty(nfixed, np.int64)
    for z in range(nz):
        weights = np.broadcast_to(pxz[:, z], (na, nx)).ravel()
        for st in range(nouter):
            v = st
            for j in range(nfixed):
                seeds[j] = v % na
                v //= na
            rest = tag[seeds[0]]
            for j in range(q_e):
                gq = tag[seeds[1 + 2 * j]]
                kq = key[seeds[2 + 2 * j]]
                rest = rest + ((gq << ell_bits) + kq) * scale[j]
            codes = ((rest << ell_bits) + keyoff).ravel()
            joint = np.bincount(codes, weights=weights, minlength=na * nblock)
            joint = joint.reshape(na, nrest, two_l)
            ref = joint.sum(axis=2, keepdims=True) / two_l
            total += np.abs(joint - ref).sum()
    return 0.5 * total / (nouter * na)


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
