"""Hot numeric kernels with two interchangeable backends.

Every kernel exists twice: a loop form compiled with numba ``@njit``,
and a vectorized pure-numpy form.  The numba form is active when numba
imports (it is the optional ``numba`` extra), the numpy form otherwise.
``BACKEND`` records the active choice; ``IMPLEMENTATIONS`` exposes
every form for comparison and benchmarking.

The exact statistical-distance kernels exploit one structural fact
about the affine hash family h_{a,b}(x) = msb_m(a*x XOR b): the b part
is an additive output mask, uniform and independent of everything
else, so XOR-relabeling every output by msb(b) turns both the real and
the reference joint distribution into a product with a uniform,
independent b component.  Statistical distance is invariant under that
bijection, hence seeds are enumerated over their multiplier a alone.
The tests cross-check this against full (a, b) enumeration at tiny
widths.

The SD kernels take pre-shifted hash-output tables:

    tag[a, i] = msb_t(a * xcode_i)      (na, nx) int64
    key[a, i] = msb_ell(a * xcode_i)    (na, nx) int64

and accumulate per-seed-block sums touching only occupied cells.
The one-time challenge distance is the q_e = 0 transcript distance.
The census kernel, being itself the verification oracle for the hash
family, enumerates the full (a, b) seed space with no shortcut.
"""

import numpy as np

from .gf2 import reduction_low

try:
    from numba import njit as _njit
except ImportError:  # numba is an optional extra
    _njit = None

BACKEND = "numpy" if _njit is None else "numba"


# ---------------------------------------------------------------------------
# GF(2^w) multiplication table


def _mul_table_loop(w, low):
    n = 1 << w
    top = 1 << (w - 1)
    mask = n - 1
    out = np.zeros((n, n), np.int32)
    for a in range(n):
        for x in range(n):
            acc = 0
            aa = a
            xx = x
            while xx:
                if xx & 1:
                    acc ^= aa
                xx >>= 1
                carry = aa & top
                aa = (aa << 1) & mask
                if carry:
                    aa ^= low
            out[a, x] = acc
    return out


def _mul_table_numpy(w, low):
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


def mul_table(w: int) -> np.ndarray:
    """Dense (2^w, 2^w) table of field products a*x.

    Limited to w <= 12; the exhaustive-enumeration regime never needs
    more, and the table grows as 4^w.
    """
    if not 1 <= w <= 12:
        raise ValueError("product table limited to 1 <= w <= 12")
    low = reduction_low(w)
    return _MUL_TABLE_IMPL(w, low)


# ---------------------------------------------------------------------------
# Pairwise-independence census: full (a, b) seed enumeration


def _census_max_dev_loop(prod, w, m):
    n = 1 << w
    nm = 1 << m
    shift = w - m
    expected = (n * n) >> (2 * m)
    local = np.zeros(nm * nm, np.int64)
    worst = 0
    for x1 in range(n):
        for x2 in range(n):
            if x1 == x2:
                continue
            for a in range(n):
                p1 = prod[a, x1]
                p2 = prod[a, x2]
                for b in range(n):
                    u = (p1 ^ b) >> shift
                    v = (p2 ^ b) >> shift
                    local[(u << m) + v] += 1
            for j in range(nm * nm):
                d = local[j] - expected
                if d < 0:
                    d = -d
                if d > worst:
                    worst = d
                local[j] = 0
    return worst


def _census_max_dev_numpy(prod, w, m):
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


def _cea_sd_loop(tag, key, pxz, t_bits, ell_bits, q_e):
    na, nx = tag.shape
    nz = pxz.shape[1]
    two_l = 1 << ell_bits
    nrow = 1 << t_bits
    qblock = nrow * two_l
    nseed = 2 + 2 * q_e
    ntuple = na**nseed
    inv_l = 1.0 / two_l
    nrest = nrow * qblock**q_e
    acc = np.zeros(nrest * two_l)
    row = np.zeros(nrest)
    gcnt = np.zeros(nrest, np.int64)
    cells = np.empty(nx, np.int64)
    rows = np.empty(nx, np.int64)
    seeds = np.empty(nseed, np.int64)
    total = 0.0
    for st in range(ntuple):
        v = st
        for j in range(nseed):
            seeds[j] = v % na
            v //= na
        for z in range(nz):
            ncell = 0
            nrowt = 0
            for i in range(nx):
                p = pxz[i, z]
                if p <= 0.0:
                    continue
                rest = 0
                for j in range(q_e):
                    gq = tag[seeds[2 + 2 * j], i]
                    kq = key[seeds[3 + 2 * j], i]
                    rest = rest * qblock + (gq << ell_bits) + kq
                rest = rest * nrow + tag[seeds[0], i]
                code = (rest << ell_bits) + key[seeds[1], i]
                if acc[code] == 0.0:
                    cells[ncell] = code
                    ncell += 1
                    gcnt[rest] += 1
                acc[code] += p
                if row[rest] == 0.0:
                    rows[nrowt] = rest
                    nrowt += 1
                row[rest] += p
            sub = 0.0
            for j in range(ncell):
                code = cells[j]
                rest = code >> ell_bits
                sub += abs(acc[code] - row[rest] * inv_l)
                acc[code] = 0.0
            for j in range(nrowt):
                rest = rows[j]
                sub += (two_l - gcnt[rest]) * row[rest] * inv_l
                row[rest] = 0.0
                gcnt[rest] = 0
            total += sub
    return 0.5 * total / ntuple


def _cea_sd_numpy(tag, key, pxz, t_bits, ell_bits, q_e):
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


def _compose_sd_loop(tag, key, xcol, ycol, zcol, ptr, cand, t_bits, ell_bits, nz):
    # cand[y, a, g] = column of the unique tag-matching list entry,
    # -1 when none matches, -2 when several do.
    na = tag.shape[0]
    nsup = xcol.shape[0]
    two_l = 1 << ell_bits
    nrow = 1 << t_bits
    nrows_all = nz * nrow
    kb_vals = two_l + 1
    inv_l = 1.0 / two_l
    acc = np.zeros(nrows_all * two_l * kb_vals)
    row = np.zeros(nrows_all)
    dcnt = np.zeros(nrows_all, np.int64)
    cells = np.empty(nsup, np.int64)
    rows = np.empty(nsup, np.int64)
    diag = np.empty(nsup, np.bool_)
    total = 0.0
    for a in range(na):
        for a2 in range(na):
            ncell = 0
            nrowt = 0
            for e in range(nsup):
                p = ptr[e]
                g = tag[a, xcol[e]]
                m = cand[ycol[e], a, g]
                ka = key[a2, xcol[e]]
                kb = two_l if m < 0 else key[a2, m]
                rc = zcol[e] * nrow + g
                code = (rc * two_l + ka) * kb_vals + kb
                if acc[code] == 0.0:
                    cells[ncell] = code
                    diag[ncell] = ka == kb
                    ncell += 1
                    if ka == kb:
                        dcnt[rc] += 1
                acc[code] += p
                if row[rc] == 0.0:
                    rows[nrowt] = rc
                    nrowt += 1
                row[rc] += p
            sub = 0.0
            for j in range(ncell):
                code = cells[j]
                rc = code // (two_l * kb_vals)
                ref = row[rc] * inv_l if diag[j] else 0.0
                sub += abs(acc[code] - ref)
                acc[code] = 0.0
            for j in range(nrowt):
                rc = rows[j]
                sub += (two_l - dcnt[rc]) * row[rc] * inv_l
                row[rc] = 0.0
                dcnt[rc] = 0
            total += sub
    return 0.5 * total / (na * na)


def _compose_sd_numpy(tag, key, xcol, ycol, zcol, ptr, cand, t_bits, ell_bits, nz):
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


# ---------------------------------------------------------------------------
# backend selection

IMPLEMENTATIONS = {
    "mul_table": {"numpy": _mul_table_numpy, "loop": _mul_table_loop},
    "census_max_dev": {"numpy": _census_max_dev_numpy, "loop": _census_max_dev_loop},
    "cea_sd": {"numpy": _cea_sd_numpy, "loop": _cea_sd_loop},
    "compose_sd": {"numpy": _compose_sd_numpy, "loop": _compose_sd_loop},
}
if _njit is not None:
    for _impls in IMPLEMENTATIONS.values():
        _impls["numba"] = _njit(cache=True)(_impls["loop"])

_MUL_TABLE_IMPL = IMPLEMENTATIONS["mul_table"][BACKEND]
census_max_dev = IMPLEMENTATIONS["census_max_dev"][BACKEND]
cea_sd = IMPLEMENTATIONS["cea_sd"][BACKEND]
compose_sd = IMPLEMENTATIONS["compose_sd"][BACKEND]


def challenge_sd(tag, key, pxz, t_bits, ell_bits):
    """Exact SD of (Z, S, h_S(X), S', h'_{S'}(X)) against the uniform-key
    reference: the transcript distance with no oracle queries."""
    return cea_sd(tag, key, pxz, t_bits, ell_bits, 0)
