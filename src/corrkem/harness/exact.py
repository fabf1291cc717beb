"""Exact joint-distribution enumeration for the security bounds.

Everything here computes true statistical distances by summing over
the full probability space of a micro instance: the n-fold sample
support times every hash seed.  The affine family's additive seed
component is marginalized out inside the kernels (an exact
SD-preserving reduction, see :mod:`corrkem._kernels`);
:func:`naive_cea_sd` and :func:`naive_composability_sd` keep the
unreduced enumeration as oracles for the tests.  The one-time
challenge distance is the q_e = 0 transcript distance throughout.

Work is bounded by the published regime guard

    |support(X^n)| * (2^w)^(2 + 2*q_e) <= 2^24

and RegimeTooLarge is raised beyond it.
"""

from itertools import product as _iterprod

import numpy as np

from .._kernels import cea_sd, challenge_sd, compose_sd, mul_table
from ..errors import RegimeTooLarge
from ..ikem import IkemParams, enumerate_typical, hash_width
from ..source import Distribution, JointSource, product_source
from ..uhf import encode_flat, encode_symbols

WORK_LIMIT = 1 << 24
JOINT_CELL_LIMIT = 1 << 22
KERNEL_MAX_WIDTH = 12


def lhl_bound(t: int, ell: int, h_xz: float) -> float:
    """Leftover-hash bound after leaking a t-bit tag: half sqrt of
    2^(t + ell - H(X|Z))."""
    return 0.5 * np.sqrt(2.0 ** (t + ell - h_xz))


def _iid_xz(source: JointSource, n: int):
    """Support codes and joint table P(x-code, z-pattern) for n symbols."""
    nx, _, nz = source.alphabet_sizes
    xz = JointSource((nx, 1, nz), source.pmf.sum(axis=1, keepdims=True))
    pxz = product_source(xz, n).pmf[:, 0, :]
    return encode_flat(np.arange(pxz.shape[0]), n, nx), pxz


def _guard_width(w: int) -> None:
    if w > KERNEL_MAX_WIDTH:
        raise RegimeTooLarge(
            f"hash width {w} exceeds the exhaustive regime ({KERNEL_MAX_WIDTH});"
            " use micro params"
        )


def _challenge_tables(source: JointSource, params: IkemParams, q_e: int = 0):
    w = hash_width(source, params)
    _guard_width(w)
    codes, pxz = _iid_xz(source, params.n)
    keep = pxz.sum(axis=1) > 0.0
    codes = codes[keep]
    pxz = pxz[keep]
    na = 1 << w
    work = codes.shape[0] * na ** (2 + 2 * q_e)
    if work > WORK_LIMIT:
        raise RegimeTooLarge(f"enumeration work {work} exceeds {WORK_LIMIT}; use micro params")
    table = mul_table(w)
    prod = table[:, codes].astype(np.int64)
    tag = prod >> (w - params.t)
    key = prod >> (w - params.ell)
    return tag, key, pxz


def exact_challenge_sd(source: JointSource, params: IkemParams) -> tuple[float, int]:
    """Exact SD((Z, C*, K*); (Z, C*, U_ell)) and the number of
    enumerated (seed-pair, sample, z) terms."""
    tag, key, pxz = _challenge_tables(source, params)
    na = tag.shape[0]
    sd = float(challenge_sd(tag, key, pxz, params.t, params.ell))
    return sd, na * na * pxz.shape[0] * pxz.shape[1]


def cea_transcript_sd(source: JointSource, params: IkemParams, q_e: int) -> tuple[float, int]:
    """Exact SD of the q_e-query transcript tuple against the
    uniform-challenge-key reference."""
    tag, key, pxz = _challenge_tables(source, params, q_e)
    na = tag.shape[0]
    sd = float(cea_sd(tag, key, pxz, params.t, params.ell, q_e))
    return sd, na ** (2 + 2 * q_e) * pxz.shape[0] * pxz.shape[1]


def cea_transcript_distribution(source: JointSource, params: IkemParams, q_e: int):
    """Joint of (Z, C*, K*, V^(q_e)) and its reference, as a pair of
    Distributions; q_e = 0 is the one-time challenge tuple.

    Seeds appear through their multiplier component only; the additive
    component is exactly marginal (see module docstring).  Flattened
    index order: (z, a_tag*, g*, a_key*, k*, then per query
    a_tag_j, g_j, a_key_j, k_j).
    """
    tag, key, pxz = _challenge_tables(source, params, q_e)
    na = tag.shape[0]
    nz = pxz.shape[1]
    shape = (nz,) + (na, 1 << params.t, na, 1 << params.ell) * (1 + q_e)
    _guard_cells(shape)
    joint = np.zeros(shape)
    a_idx = np.arange(na, dtype=np.int64)
    grids = np.meshgrid(*([a_idx] * (2 + 2 * q_e)), indexing="ij", sparse=True)
    for i in range(tag.shape[1]):
        index: list = []
        for j in range(1 + q_e):
            at, ak = grids[2 * j], grids[2 * j + 1]
            index += [at, tag[:, i][at], ak, key[:, i][ak]]
        for z in range(nz):
            p = pxz[i, z]
            if p <= 0.0:
                continue
            joint[tuple([z] + index)] += p
    joint /= na ** (2 + 2 * q_e)
    return _reference_pair(joint, k_axis=4, ell=params.ell)


def _guard_cells(shape) -> None:
    cells = int(np.prod(shape))
    if cells > JOINT_CELL_LIMIT:
        raise RegimeTooLarge(f"joint table of {cells} cells exceeds {JOINT_CELL_LIMIT}")


def _reference_pair(joint: np.ndarray, k_axis: int, ell: int):
    ref = joint.sum(axis=k_axis, keepdims=True) / (1 << ell)
    ref = np.broadcast_to(ref, joint.shape).copy()
    true_flat = joint.reshape(-1)
    ref_flat = ref.reshape(-1)
    return (
        Distribution(true_flat.shape[0], true_flat),
        Distribution(ref_flat.shape[0], ref_flat),
    )


# ---------------------------------------------------------------------------
# Composability: SD((Z, C*, K_A, K_B); (Z, C*, U, U)) with one uniform
# variable duplicated (the reference never takes the failure symbol)


def composability_sd(source: JointSource, params: IkemParams) -> tuple[float, int]:
    w = hash_width(source, params)
    _guard_width(w)
    nx, ny, nz1 = source.alphabet_sizes
    n = params.n
    pxyz = product_source(source, n).pmf

    xf, yf, zf = np.nonzero(pxyz > 0.0)
    ptr = pxyz[xf, yf, zf]
    na = 1 << w
    if xf.shape[0] * na * na > WORK_LIMIT:
        raise RegimeTooLarge("composability enumeration exceeds the work limit")

    # candidate lists per distinct receiver pattern
    y_present = np.unique(yf)
    col_of: dict[int, int] = {}
    cols: list[int] = []

    def column(code: int) -> int:
        got = col_of.get(code)
        if got is None:
            got = len(cols)
            col_of[code] = got
            cols.append(code)
        return got

    xcodes_sup = encode_flat(xf, n, nx)
    xcol = np.array([column(int(c)) for c in xcodes_sup], dtype=np.int64)
    cand_lists = {}
    for yflat in y_present:
        y_vec = np.array(np.unravel_index(yflat, (ny,) * n))
        entries = []
        for cand in enumerate_typical(source, y_vec, params.nu):
            code, _ = encode_symbols(cand, nx)
            entries.append(column(code))
        cand_lists[int(yflat)] = entries

    table = mul_table(w)
    colcodes = np.array(cols, dtype=np.int64)
    prod = table[:, colcodes].astype(np.int64)
    tag = prod >> (w - params.t)
    key = prod >> (w - params.ell)

    ymap = {int(yflat): i for i, yflat in enumerate(y_present)}
    ycol = np.array([ymap[int(v)] for v in yf], dtype=np.int64)
    cand = np.full((len(y_present), na, 1 << params.t), -1, dtype=np.int64)
    for yflat, entries in cand_lists.items():
        row = ymap[yflat]
        for col in entries:
            g_per_a = tag[:, col]
            for a in range(na):
                slot = cand[row, a, g_per_a[a]]
                cand[row, a, g_per_a[a]] = col if slot == -1 else -2

    sd = float(
        compose_sd(tag, key, xcol, ycol, zf.astype(np.int64), ptr, cand, params.t, params.ell, nz1**n)
    )
    return sd, na * na * xf.shape[0]


# ---------------------------------------------------------------------------
# Naive full-seed oracles (tiny instances only; used by the test suite)


def _add(table: dict, cell, p: float) -> None:
    table[cell] = table.get(cell, 0.0) + p


def _naive_sd(true: dict, marg: dict, two_l: int, offdiag: dict | None = None) -> float:
    """Half the L1 distance between ``true`` (mass per view + (k,)) and
    the reference spreading each view's mass ``marg[view]`` uniformly
    over the 2^ell keys k.  ``offdiag`` holds per-view true mass on
    cells the reference never covers."""
    sd = 0.0
    for view, mass in marg.items():
        u = mass / two_l
        acc = offdiag.get(view, 0.0) if offdiag else 0.0
        hit = 0
        for k in range(two_l):
            val = true.get(view + (k,))
            if val is not None:
                acc += abs(val - u)
                hit += 1
        acc += (two_l - hit) * u
        sd += acc
    return 0.5 * sd


def naive_challenge_sd(source: JointSource, params: IkemParams) -> float:
    """SD of the challenge tuple by enumerating full (a, b) seeds of
    both families: the q_e = 0 transcript.  Keep w <= 3."""
    return naive_cea_sd(source, params, 0)


def naive_cea_sd(source: JointSource, params: IkemParams, q_e: int) -> float:
    """Transcript SD by enumerating full (a, b) seeds of every family
    instance: challenge pair plus q_e oracle pairs.  Cost
    (2^w)^(4 + 4*q_e) * support; keep w <= 2 for q_e = 1."""
    from ..uhf import UhfSeed, UhfSpec, hash_value

    w = hash_width(source, params)
    if (1 << (4 * (1 + q_e) * w)) > WORK_LIMIT:
        raise RegimeTooLarge("naive enumeration is for tiny widths only")
    codes, pxz = _iid_xz(source, params.n)
    tspec = UhfSpec(w, params.t)
    kspec = UhfSpec(w, params.ell)
    na = 1 << w
    npairs = 2 * (1 + q_e)
    seed_p = 1.0 / na ** (2 * npairs)
    true: dict = {}
    marg: dict = {}
    for seeds in _iterprod(range(na * na), repeat=npairs):
        pairs = [UhfSeed(s % na, s // na) for s in seeds]
        tag_seed, key_seed = pairs[0], pairs[1]
        for i, code in enumerate(codes):
            code = int(code)
            outs = [hash_value(tspec, tag_seed, code)]
            for j in range(q_e):
                outs.append(hash_value(tspec, pairs[2 + 2 * j], code))
                outs.append(hash_value(kspec, pairs[3 + 2 * j], code))
            k_star = hash_value(kspec, key_seed, code)
            for z in range(pxz.shape[1]):
                p = pxz[i, z]
                if p <= 0.0:
                    continue
                view = (z, seeds, tuple(outs))
                _add(true, view + (k_star,), p * seed_p)
                _add(marg, view, p * seed_p)
    return _naive_sd(true, marg, 1 << params.ell)


def naive_composability_sd(source: JointSource, params: IkemParams) -> float:
    """Four-tuple SD via full seeds and the real decapsulation path."""
    from ..ikem import BOTTOM, IkemCiphertext, decap
    from ..uhf import UhfSeed, UhfSpec, hash_value

    w = hash_width(source, params)
    if (1 << (4 * w)) > WORK_LIMIT:
        raise RegimeTooLarge("naive enumeration is for tiny widths only")
    n = params.n
    nx, ny, _ = source.alphabet_sizes
    pxyz = product_source(source, n).pmf
    tspec = UhfSpec(w, params.t)
    kspec = UhfSpec(w, params.ell)
    na = 1 << w
    seed_p = 1.0 / na**4
    two_l = 1 << params.ell

    # the reference puts U on the diagonal K_A = K_B only
    diag: dict = {}
    marg: dict = {}
    offdiag: dict = {}
    xf, yflat_arr, zf = np.nonzero(pxyz > 0.0)
    for a, b, a2, b2 in _iterprod(range(na), repeat=4):
        s = UhfSeed(a, b)
        s2 = UhfSeed(a2, b2)
        for xi, yi, zi in zip(xf, yflat_arr, zf):
            p = pxyz[xi, yi, zi] * seed_p
            code, _ = encode_symbols(np.unravel_index(xi, (nx,) * n), nx)
            g = hash_value(tspec, s, code)
            ka = hash_value(kspec, s2, code)
            ctxt = IkemCiphertext(g, s2, s)
            got = decap(params, source, np.array(np.unravel_index(yi, (ny,) * n)), ctxt)
            view = (int(zi), a, b, g, a2, b2)
            if got is not BOTTOM and got.bits == ka:
                _add(diag, view + (ka,), p)
            else:
                _add(offdiag, view, p)
            _add(marg, view, p)
    return _naive_sd(diag, marg, two_l, offdiag)
