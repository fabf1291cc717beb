"""Exact joint-distribution enumeration for the security bounds.

Everything here computes true statistical distances by summing over
the full probability space of a micro instance: the n-fold sample
support times every hash seed.  The affine family's additive seed
component is marginalized out inside the kernels (an exact
SD-preserving reduction, see :mod:`corrkem._kernels`);
:func:`naive_cea_sd` and :func:`naive_composability_sd` keep the
unreduced enumeration as oracles for the tests.  The one-time
challenge distance is the q_e = 0 transcript distance throughout.

Work is bounded by the published regime guard: both the enumerated
terms and the cells of the (z, a, g, a', k) table the kernel fills,

    |support(X^n)| * (2^w)^(2 + 2*q_e)              <= 2^24
    |Z^n| * (2^w * 2^w * 2^(t + ell))^(1 + q_e)     <= 2^24,

with q_e = 0 for composability, whose lists, all taken in one walk,
share ikem.MAX_CANDIDATES; RegimeTooLarge is raised beyond them, once at
one sample and one z pattern (every w > 12) before any n-fold table exists.
Composability's int32 table ``cand`` of tag-matching list entries has
2^w * 2^t cells per receiver pattern in the support (every listed
pattern is), so with t <= w its cells are at most the terms and
within WORK_LIMIT.
"""

from functools import reduce
from itertools import product as _iterprod

import numpy as np

from .._kernels import cea_sd, challenge_sd, compose_sd, mul_table
from ..errors import RegimeTooLarge
# enumerate_typical and encode_symbols stay bound here: perfbench's tracer patches both names
from ..ikem import IkemParams, _listed, enumerate_typical, hash_specs, hash_width  # noqa: F401
from ..source import JointSource, product_source
from ..uhf import encode_flat, encode_symbols

WORK_LIMIT = 1 << 24


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


def _hash_tables(w: int, codes: np.ndarray, t: int, ell: int):
    """tag[a, i] = msb_t(a * codes[i]) and key[a, i] = msb_ell(a * codes[i])
    for every multiplier a, as (2^w, len(codes)) int64 tables."""
    prod = mul_table(w)[:, codes].astype(np.int64)
    return prod >> (w - t), prod >> (w - ell)


def _check_work(support: int, nz: int, w: int, params: IkemParams, q_e: int) -> None:
    """Refuse past WORK_LIMIT enumerated terms or (z, a, g, a', k)^(1+q_e) cells."""
    terms = support * (1 << w) ** (2 + 2 * q_e)
    cells = nz * (1 << (2 * w + params.t + params.ell)) ** (1 + q_e)
    if max(terms, cells) > WORK_LIMIT:
        raise RegimeTooLarge(
            f"enumeration of {terms} terms over {cells} cells exceeds {WORK_LIMIT};"
            " use micro params"
        )


def _challenge_tables(source: JointSource, params: IkemParams, q_e: int = 0):
    w = hash_width(source, params)
    _check_work(1, 1, w, params, q_e)  # before the n-fold table
    codes, pxz = _iid_xz(source, params.n)
    keep = pxz.sum(axis=1) > 0.0
    _check_work(int(keep.sum()), pxz.shape[1], w, params, q_e)
    return (*_hash_tables(w, codes[keep], params.t, params.ell), pxz[keep])


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


# ---------------------------------------------------------------------------
# Composability: SD((Z, C*, K_A, K_B); (Z, C*, U, U)) with one uniform
# variable duplicated (the reference never takes the failure symbol)


def composability_sd(source: JointSource, params: IkemParams) -> tuple[float, int]:
    w = hash_width(source, params)
    _check_work(1, 1, w, params, 0)  # before the n-fold table
    nx, ny, nz1 = source.alphabet_sizes
    n, t = params.n, params.t
    pxyz = product_source(source, n).pmf

    xf, yf, zf = np.nonzero(pxyz > 0.0)
    ptr = pxyz[xf, yf, zf]
    na = 1 << w
    _check_work(xf.shape[0], nz1**n, w, params, 0)

    # every receiver pattern's list from one walk over (x, y) pair symbols
    # x*|Y| + y, which cost -log2 P(x | y) and +inf where P(y) = 0
    pair = np.nan_to_num(source.surprisal_table.ravel(), nan=np.inf)
    lx, ly = np.divmod(_listed(np.broadcast_to(pair, (n, pair.size)), params.nu).T, ny)
    # one column per distinct sample and one row per receiver pattern; the
    # flat index folds f * |X| + x, as no n-axis shape passes numpy's 64 axes
    cols, xcol = np.unique(np.concatenate([xf, reduce(lambda f, d: f * nx + d, lx)]), return_inverse=True)
    ys, ycol = np.unique(np.concatenate([yf, reduce(lambda f, d: f * ny + d, ly)]), return_inverse=True)
    tag, key = _hash_tables(w, encode_flat(cols, n, nx), t, params.ell)
    (xcol, list_col), (ycol, list_row) = np.split(xcol, [xf.size]), np.split(ycol, [yf.size])
    # cand[y, a, g]: y's one list entry with tag g under a; -1 for none or several
    cand = np.full((na, len(ys) << t), -1, dtype=np.int32)  # columns < support <= WORK_LIMIT
    for a, row in enumerate(cand):
        slots = (list_row << t) + tag[a, list_col]
        row[slots] = list_col
        row[np.bincount(slots, minlength=row.size) > 1] = -1
    cand = cand.reshape(na, len(ys), 1 << t).transpose(1, 0, 2)
    # z patterns interned to the support's: a view without mass adds nothing
    z_present, zcol = np.unique(zf, return_inverse=True)
    sd = float(compose_sd(tag, key, xcol, ycol, zcol, ptr, cand, t, params.ell, len(z_present)))
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
    from ..uhf import UhfSeed, hash_value

    tspec, kspec = hash_specs(source, params)
    w = tspec.input_bits
    if (1 << (4 * (1 + q_e) * w)) > WORK_LIMIT:
        raise RegimeTooLarge("naive enumeration is for tiny widths only")
    codes, pxz = _iid_xz(source, params.n)
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
    from ..uhf import UhfSeed, hash_value

    tspec, kspec = hash_specs(source, params)
    w = tspec.input_bits
    if (1 << (4 * w)) > WORK_LIMIT:
        raise RegimeTooLarge("naive enumeration is for tiny widths only")
    n = params.n
    nx, ny, _ = source.alphabet_sizes
    pxyz = product_source(source, n).pmf
    place = np.arange(n - 1, -1, -1)  # a flat index's digit i is index // base**place[i] % base
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
            code = encode_symbols(xi // nx**place % nx, nx)
            g = hash_value(tspec, s, code)
            ka = hash_value(kspec, s2, code)
            ctxt = IkemCiphertext(g, s2, s)
            got = decap(params, source, yi // ny**place % ny, ctxt)
            view = (int(zi), a, b, g, a2, b2)
            if got is not BOTTOM and got.bits == ka:
                _add(diag, view + (ka,), p)
            else:
                _add(offdiag, view, p)
            _add(marg, view, p)
    return _naive_sd(diag, marg, two_l, offdiag)
