"""Exact-enumeration kernels, vectorized with numpy.

``BACKEND`` names the array backend; it is always ``"numpy"``.  Each
kernel is checked against an independent oracle in the tests:
``mul_table`` against scalar :func:`corrkem.gf2.mul`, ``cea_sd``
against full (a, b) seed enumeration at q_e = 0 and 1 and against its
definition on random tables, ``compose_sd``
against the naive composability enumeration, and ``census_max_dev``
against its closed form on a degenerate all-zero product table and a
full (a, b) recount on random tables and a planted fault.
``mul_table`` takes the field's powers and select-XOR from
:mod:`corrkem.gf2`, whose scalar ``mul`` keeps its own shift-and-reduce
loop as the independent oracle that the table tests compare against.

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
and K[(a, k), i] = [key[a, i] = k]: the transcript joint of every seed
tuple is J_z = (T^(1+q_e) diag(pxz[:, z])) (K^(1+q_e))^T, with ^ the
row-wise Khatri-Rao power.  With k the challenge key, the last right
digit, the distance sums |J - mean_k J|, which is the same product
with the key rows centred over k.  One k matches each x, so that mean
is the rows' query factors times 2^-ell, and each centred entry, 1 -
2^-ell, -2^-ell or 0, is exact in float64.  At ell = 1 the centred
rows of key 1 are therefore exactly those of key 0 negated, at any
q_e, so only the key-0 rows are multiplied and their absolute sum
counts twice.  Key blocks hold whole 2^ell-row groups.  Each z
pattern multiplies only the sample columns it has mass on (a leaky Z
that is a function of X has mass on a few); a pattern with mass on
every sample takes the operands uncopied.  The one-time challenge
distance is the q_e = 0 transcript distance.

``compose_sd`` never fills the (K_A, K_B) plane.  The reference puts
each view's mass M uniformly on the diagonal K_A = K_B, so with D(k)
the view's mass where decapsulation returns the sender's own key k,
the view adds M - sum_k min(D(k), M / 2^ell) to the distance.  ``cand``
holds the unique tag-matching list entry, or -1 for none or several.

The census, itself the verification oracle for the hash family,
enumerates every multiplier a and input pair x1 != x2 but counts the
masks b: msb_m(u XOR b) = msb_m(u) XOR msb_m(b) for any table, so
2^(w-m) masks give (x1, x2) each output pair whose XOR is
msb(a*x1) XOR msb(a*x2), the integer a full (a, b) count gives.  That
XOR is symmetric, so (x2, x1) has the same counts: each unordered pair
is counted once, as (x, x + d mod 2^w) for 0 < d <= 2^(w-1), and no
x1 = x2 diagonal is built.

``cea_sd`` works in blocks of rows, the census in blocks of
multipliers and ``compose_sd`` in blocks of z patterns (each block's
support rows taken in steps), so no temporary exceeds BLOCK_CELLS / 8
cells at any width the regime guards admit; a table that fits is one
block.
"""

import numpy as np

from .errors import RegimeTooLarge
from .gf2 import _powers, _select_xor

BACKEND = "numpy"

# Widest field the exhaustive kernels enumerate: the product table
# grows as 4^w.
MAX_WIDTH = 12

# Memory budget of one kernel call, in 8-byte cells (32 MiB).
BLOCK_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# GF(2^w) multiplication table


def mul_table(w: int) -> np.ndarray:
    """Dense (2^w, 2^w) int32 table of field products a*x: the basis
    x^k * x (k < w) selected from a sliding window of the powers x^i mod
    f, then each row a as the XOR of the basis rows at a's set bits.
    Limited to w <= MAX_WIDTH, all the exhaustive regime needs."""
    if w > MAX_WIDTH:
        raise RegimeTooLarge(f"product table limited to 1 <= w <= {MAX_WIDTH}")
    powers = np.array(_powers(1, w, 2 * w - 1, 0), np.int32)  # FormatError for w < 1
    basis = _select_xor(np.lib.stride_tricks.sliding_window_view(powers, w), 1 << w)  # [k, x] = x^k * x
    return _select_xor(basis[None], 1 << w)[0]


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
# Pairwise-independence census: output differences per multiplier


def census_max_dev(prod, w, m):
    n = 1 << w
    half = n >> 1
    pairs = n * (n - 1) >> 1
    cells = np.arange(pairs) << m  # 2^m difference cells per unordered pair
    counts = np.zeros(pairs << m, np.int64)
    ab = _block(n, pairs)
    for a in range(0, n, ab):
        out = prod[a:a + ab] >> (w - m)  # (a, x)
        # the pairs (x, x + d mod n): every x at each offset 0 < d < n/2, and x < n/2 at d = n/2
        ahead = np.lib.stride_tricks.sliding_window_view(np.tile(out, 2), n, axis=1)[:, 1:half]  # (a, d - 1, x)
        diff = np.concatenate([(out[:, None] ^ ahead).reshape(len(out), -1), out[:, :half] ^ out[:, half:]], axis=1)
        counts += np.bincount((cells + diff).ravel(), minlength=counts.shape[0])
    return int(np.abs((counts << (w - m)) - ((n * n) >> (2 * m))).max())  # 2^(w-m) masks per count


# ---------------------------------------------------------------------------
# Exact SD for the q_e-query transcript game


def cea_sd(tag, key, pxz, t_bits, ell_bits, q_e):
    na, nx = tag.shape
    two_l = 1 << ell_bits
    nleft = (na << t_bits) ** (1 + q_e)
    nright = (na << ell_bits) ** (1 + q_e)
    br = _block(nright, nx, two_l)
    bl = _block(nleft, max(nx, br))
    # each z pattern's samples with mass; one with mass on all takes the columns uncopied
    support = [(slice(None) if pz.all() else np.flatnonzero(pz), pz) for pz in pxz.T]
    keys = 1 if ell_bits == 1 else two_l  # at ell = 1 key 1's rows are key 0's negated
    total = 0.0
    for r in range(0, nright, br):
        right = _khatri_rao_rows(key, ell_bits, 1 + q_e, np.arange(r, min(r + br, nright)))
        right = right.reshape(-1, two_l, nx).astype(np.float64)
        right -= right.mean(axis=1, keepdims=True)  # centred over the challenge key
        right = right[:, :keys].reshape(-1, nx)
        for l in range(0, nleft, bl):
            left = _khatri_rao_rows(tag, t_bits, 1 + q_e, np.arange(l, min(l + bl, nleft)))
            for c, pz in support:
                joint = (left[:, c] * pz[c]) @ right[:, c].T
                total += np.abs(joint, out=joint).sum()
    return two_l // keys * 0.5 * total / na ** (2 + 2 * q_e)


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
            own = mass = 0.0
            for x, y, zv, p, ka, cell in held or map(step, steps):
                g = tag[a, x]
                m = cand[y, a, g]
                view = zv + g
                mass += np.bincount(view, weights=p, minlength=nview)
                agree = (m >= 0) & (key[:, m] == ka)
                own += np.bincount((cell + (view << ell_bits)).ravel(), weights=(agree * p).ravel(),
                                   minlength=(na * nview) << ell_bits)
            own = own.reshape(na, nview, -1)
            overlap += np.minimum(own, mass[:, None] / (1 << ell_bits), out=own).sum()
    return ptr.sum() - overlap / (na * na)


def challenge_sd(tag, key, pxz, t_bits, ell_bits):
    """Exact SD of (Z, S, h_S(X), S', h'_{S'}(X)) against the uniform-key
    reference: the transcript distance with no oracle queries."""
    return cea_sd(tag, key, pxz, t_bits, ell_bits, 0)
