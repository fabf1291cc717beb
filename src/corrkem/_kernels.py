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

``compose_sd`` never fills the (K_A, K_B) plane.  The reference puts
each view's mass M uniformly on the diagonal K_A = K_B, so with D(k)
the view's mass where decapsulation returns the sender's own key k,
the view adds M - sum_k min(D(k), M / 2^ell) to the distance.  ``cand``
holds the unique tag-matching list entry, or -1 for none or several.

The census, itself the verification oracle for the hash family,
enumerates the full (a, b) seed space with no shortcut: one float32
Gram matrix O^T O of the one-hot matrix O[(a, b), (x, output)],
accumulated over seed blocks, counts every output pair of every input
pair, and x1 = x2 is left out.

``cea_sd`` works in blocks of rows, the census in blocks of seeds and
``compose_sd`` in blocks of z patterns (each block's support rows taken
in steps), so no temporary exceeds BLOCK_CELLS / 8 cells at any width
the regime guards admit; a table that fits is one block.
"""

import numpy as np

from .errors import RegimeTooLarge
from .gf2 import reduction_low

BACKEND = "numpy"

# Widest field the exhaustive kernels enumerate: the product table
# grows as 4^w.
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
    if w > MAX_WIDTH:
        raise RegimeTooLarge(f"product table limited to 1 <= w <= {MAX_WIDTH}")
    low = reduction_low(w)  # FormatError for w < 1
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
    rows = np.arange(n << m)  # one Gram row per (x, output) pair
    gram = np.zeros((rows.shape[0], rows.shape[0]), np.float32)  # exact up to 2^24
    sb = _block(n * n, rows.shape[0])
    for s in range(0, n * n, sb):
        a, b = np.divmod(np.arange(s, min(s + sb, n * n)), n)
        hashes = (prod[a].T ^ b.astype(prod.dtype)) >> (w - m)  # (x, seed)
        onehot = _khatri_rao_rows(hashes, m, 1, rows).astype(np.float32)
        gram += onehot @ onehot.T
    dev = np.abs(gram - ((n * n) >> (2 * m)))
    dev[np.equal.outer(rows >> m, rows >> m)] = 0  # x1 == x2 is not a pair
    return int(dev.max())


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
# Exact SD of (Z, C*, K_A, K_B) against (Z, C*, U, U) with duplicated U,
# from the key-agreement overlap (module docstring).
# cand[y, a, g] = column of the unique tag-matching list entry, else -1.


def compose_sd(tag, key, xcol, ycol, zcol, ptr, cand, t_bits, ell_bits, nz):
    na = tag.shape[0]
    # z patterns per block, so its (a', z, g, k) table fits one block, and
    # support rows per step, so its (a', row) arrays do
    zb = _block(nz, na << (t_bits + ell_bits))
    rb = _block(zcol.shape[0], na)
    overlap = 0.0
    for z0 in range(0, nz, zb):
        nview = min(zb, nz - z0) << t_bits
        # the block's rows, kept in support order so each cell sums them in that
        # order; the caller interns z patterns, so no block is empty
        block = np.flatnonzero((zcol >= z0) & (zcol < z0 + zb))
        # (a', k) part of each (a', z, g, k) cell
        base = np.arange(na, dtype=np.int64)[:, None] * nview << ell_bits

        def step(r):
            """The multiplier-free arrays of the block's rows r to r + rb."""
            rows = block[r:r + rb]
            ka = key[:, xcol[rows]]
            return xcol[rows], ycol[rows], zcol[rows] - z0 << t_bits, ptr[rows], ka, base + ka

        steps = range(0, block.shape[0], rb)
        held = [step(r) for r in steps] if len(steps) == 1 else None  # else rebuilt per a
        for a in range(na):
            own = mass = None
            for x, y, zv, p, ka, cell in held or map(step, steps):
                g = tag[a, x]
                m = cand[y, a, g]
                view = zv + g
                part = np.bincount(view, weights=p, minlength=nview)
                agree = (m >= 0) & (key[:, m] == ka)
                table = np.bincount((cell + (view << ell_bits)).ravel(), weights=(agree * p).ravel(),
                                    minlength=(na * nview) << ell_bits)
                if own is None:
                    own, mass = table, part
                else:
                    own += table
                    mass += part
            own = own.reshape(na, nview, -1)
            overlap += np.minimum(own, mass[:, None] / (1 << ell_bits), out=own).sum()
    return ptr.sum() - overlap / (na * na)


def challenge_sd(tag, key, pxz, t_bits, ell_bits):
    """Exact SD of (Z, S, h_S(X), S', h'_{S'}(X)) against the uniform-key
    reference: the transcript distance with no oracle queries."""
    return cea_sd(tag, key, pxz, t_bits, ell_bits, 0)
