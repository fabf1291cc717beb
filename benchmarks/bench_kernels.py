"""Benchmark the exact-enumeration kernels and decapsulation.

Run:  python3 benchmarks/bench_kernels.py
It imports corrkem from this checkout's src/, installed or not.
Times are the best of three calls after one warm-up.  The mul_table
rows are checked before they are timed: every product at w = 8, and
2^16 seeded pairs at w = 12, must equal the scalar gf2.mul.  The census
row is checked before it is timed: it must read 0 on the field table,
and on mul_table(4) with one entry's top bit flipped it must equal a
full (a, b) recount written here, which counts every output pair of
every ordered input pair over all 2^8 seeds.  Each cea_sd
result is checked before it is timed: it must lie in [0, 1] and agree
within 1e-12 with a dense reference that multiplies every sample
column and every challenge-key row in one block.  The z|x row is the
verify_micro ot w=8 shape: Z the top two bits of X, t = 1, ell = 2.
The mul_vector rows are the posterior games' bulk product a * code over
all |X|^n codes at the he-micro shape (w = 12, n = 3, |X| = 16) for a
chunk of 16 multipliers: at full width, and at the widths the posterior
adversaries hash, its top t = 1 and ell = 8 bits, and at w = 64 all
64 bits, the widest tag or key they take (ell = 64); each is checked
against the scalar gf2.mul's product, shifted; the
linear_table rows build the GF(2)-linear table at that shape and the
README demo's decap tag table (w = n = 280, |X| = 2, t = 1).  Before
any row, untimed, gf2.REDUCTION_LOWS must equal the published rule's
search (the oracle in tests/test_gf2.py) at every tabulated width, which
takes about 16 s.  The composability_sd rows are the whole exact check: one
verify_micro-sized instance (X near-uniform on 16 symbols, Y = X with
the low bit flipped at rate 0.03, Z its top bit, t = 1, ell = 2),
checked against a run in blocks of one z pattern and steps of one
support row, and 2^16 receiver patterns (Y uniform on 2^16 symbols,
X = Y mod 16, Z constant, t = ell = 4, nu = 0), where both parties
always hold the same key, so the distance must equal the challenge
distance.  One more instance is checked, untimed, against the
full-seed naive_composability_sd: a random dense 4x4x2 source at
nu = 3.0 and t = ell = 1, where 14 of the 16 (x, y) pairs are listed,
so most one-bit tag slots hold two list entries.  The he game row is
verify_micro's he check: run_he_game on the he-micro source with
BestGuessOtpHeAdversary, 200 trials, q_e = 0 and OTP; before it is
timed, its report must pass and its advantage must equal the
trial-by-trial judgement of tests/test_harness.py.  The decap rows
decapsulate one encapsulation on
satellite_source(0.05, 0.05, 0.3) with reliability_params(eps=0.25),
and the n=280 row one on the README demo session (X = Y one uniform
bit, derive_params(n=280, eps=0.5, sigma=2^-8, ell=256)); each result
is checked before it is timed, so a wrong decap or distance fails the
script instead of being timed.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # this checkout's corrkem; the test oracles

import numpy as np  # noqa: E402

from corrkem import (  # noqa: E402
    BOTTOM,
    IkemParams,
    JointSource,
    _kernels,
    decap,
    derive_params,
    encap,
    hash_width,
    make_table_source,
    reliability_params,
    sample_n,
    satellite_source,
    surprisal,
)
from corrkem._kernels import BACKEND, cea_sd, census_max_dev, compose_sd, mul_table  # noqa: E402
from corrkem.gf2 import REDUCTION_LOWS, linear_table, mul, mul_vector  # noqa: E402
from corrkem.harness import (  # noqa: E402
    BestGuessOtpHeAdversary,
    composability_sd,
    exact_challenge_sd,
    naive_composability_sd,
    run_he_game,
)
from corrkem.uhf import encode_flat  # noqa: E402
from conftest import he_micro_instance, leaky_uniform_source  # noqa: E402
from test_gf2 import search_low  # noqa: E402
from test_harness import _TrialByTrialHe  # noqa: E402


def _bench(fn, *args, repeat=3):
    fn(*args)  # warm-up
    best = min(_timed(fn, *args) for _ in range(repeat))
    return best


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _check_decap(label, src, params, triple, key, got):
    """encap's key, or BOTTOM for a sender sample outside the list."""
    outside = surprisal(src, triple.x, triple.y) > params.nu
    if got != key and not (got is BOTTOM and outside):
        raise SystemExit(f"{label}: decap returned {got!r}, encap's key was {key!r}")


def _dense_cea(tag, key, pxz, t_bits, ell_bits, q_e):
    """The transcript distance with no shortcut: per z, the absolute sum of
    (T * pz) @ Kc^T over every sample column and every key row, with T and
    K the (1 + q_e)-fold row-wise Khatri-Rao powers of the one-hot tag and
    key tables and Kc K centred over its last digit, the challenge key."""
    na, nx = tag.shape

    def power(table, bits):
        onehot = (table[:, None] == np.arange(1 << bits)[:, None]).reshape(-1, nx)
        out = onehot
        for _ in range(q_e):
            out = (out[:, None] & onehot).reshape(-1, nx)
        return out.astype(np.float64)

    right = power(key, ell_bits).reshape(-1, 1 << ell_bits, nx)
    right = (right - right.mean(axis=1, keepdims=True)).reshape(-1, nx)
    left = power(tag, t_bits)
    total = sum(np.abs((left * pz) @ right.T).sum() for pz in pxz.T)
    return 0.5 * total / na ** (2 + 2 * q_e)


def _check_cea(label, tag, key, pxz, t_bits, ell_bits, q_e):
    """The distance lies in [0, 1] and equals the dense reference's."""
    got = cea_sd(tag, key, pxz, t_bits, ell_bits, q_e)
    want = _dense_cea(tag, key, pxz, t_bits, ell_bits, q_e)
    if not (0.0 <= got <= 1.0 and abs(got - want) <= 1e-12):
        raise SystemExit(f"{label}: distance {got!r}, dense reference {want!r}")


def _recount_census(prod, w, m):
    """The census with no shortcut: per ordered input pair x1 != x2, the
    count of every output pair over all (a, b) seeds, against n^2 / 4^m."""
    n, nm = 1 << w, 1 << m
    a, b = np.divmod(np.arange(n * n), n)
    out = (prod[a] ^ b[:, None]) >> (w - m)  # (seed, x)
    pair = np.arange(n * n).reshape(n, n) * nm
    cells = (pair + out[:, :, None]) * nm + out[:, None, :]  # (seed, x1, x2)
    counts = np.bincount(cells.ravel(), minlength=n * n * nm * nm).reshape(n, n, -1)
    dev = np.abs(counts - n * n // (nm * nm))
    dev[np.arange(n), np.arange(n)] = 0  # x1 == x2 is not a pair
    return int(dev.max())


def _check_census(label, prod, w, m, want):
    """The census of `prod` equals `want`."""
    got = census_max_dev(prod, w, m)
    if got != want:
        raise SystemExit(f"{label}: census {got}, expected {want}")


def _check_compose(label, src, params, reference):
    """The distance lies in [0, 1] and equals the reference's."""
    got, _ = composability_sd(src, params)
    want = reference()
    if not (0.0 <= got <= 1.0 and abs(got - want) <= 1e-12):
        raise SystemExit(f"{label}: distance {got!r}, reference {want!r}")


def _check_reduction_table():
    """Every tabulated polynomial is the one the rule's search finds."""
    for w, low in enumerate(REDUCTION_LOWS, 1):
        if low != search_low(w):
            raise SystemExit(f"REDUCTION_LOWS[{w - 1}] = {low}, the rule's search gives {search_low(w)}")
    print(f"reduction polynomials: the table equals the search at w = 1..{len(REDUCTION_LOWS)}")


def _check_mul_table(label, w, pairs=None):
    """mul_table(w) is int32 and each of its products a * x, or `pairs`
    seeded pairs of them, equals the scalar gf2.mul."""
    table, n = mul_table(w), 1 << w
    a, x = np.divmod(np.arange(n * n), n) if pairs is None else np.random.default_rng(w).integers(0, n, (2, pairs))
    if table.dtype != np.int32 or table[a, x].tolist() != [mul(*ax, w) for ax in zip(a.tolist(), x.tolist())]:
        raise SystemExit(f"{label}: products differ from the scalar gf2.mul")


def _check_mul_vector(label, multipliers, n, nx, w, out_bits):
    """Row k holds msb_out(multipliers[k] * code) for every code in flat
    order: the scalar gf2.mul's product, shifted."""
    codes = encode_flat(np.arange(nx**n), n, nx).tolist()
    want = [[mul(a, code, w) >> (w - out_bits) for code in codes] for a in multipliers]
    if mul_vector(multipliers, n, nx, w, out_bits).tolist() != want:
        raise SystemExit(f"{label}: products differ from the scalar gf2.mul")


def _check_he_game(label, src, params, trials, seed):
    """The report passes, and its advantage equals the trial-by-trial
    judgement's."""
    got = run_he_game(src, params, BestGuessOtpHeAdversary(src, params), 0, trials, seed)
    want = run_he_game(src, params, _TrialByTrialHe(src, params), 0, trials, seed)
    if not got.passed or got.advantage_estimate != want.advantage_estimate:
        raise SystemExit(f"{label}: {got}, trial-by-trial advantage {want.advantage_estimate!r}")


def _split_compose(src, params):
    """composability_sd in blocks of one z pattern and steps of one row."""
    budget = _kernels.BLOCK_CELLS
    _kernels.BLOCK_CELLS = 8 << hash_width(src, params)
    try:
        return composability_sd(src, params)[0]
    finally:
        _kernels.BLOCK_CELLS = budget


def main():
    print(f"backend: {BACKEND}")
    _check_reduction_table()
    rng = np.random.default_rng(0)

    table = mul_table(8)

    cases = {}
    _check_mul_table("mul_table w=8", 8)
    cases["mul_table w=8"] = (mul_table, (8,))
    _check_mul_table("mul_table w=12", 12, 1 << 16)
    cases["mul_table w=12"] = (mul_table, (12,))
    cases["census w=6 m=3"] = (census_max_dev, (mul_table(6), 6, 3))
    _check_census("census w=6 m=3", *cases["census w=6 m=3"][1], 0)
    planted = mul_table(4)
    planted[5, 9] ^= 0b1000
    _check_census("census planted w=4 m=2", planted, 4, 2, _recount_census(planted, 4, 2))

    nx = 256
    pxz = rng.random((nx, 4))
    pxz /= pxz.sum()
    prod8 = table[:, np.arange(nx)].astype(np.int64)
    tag = prod8 >> (8 - 2)
    key = prod8 >> (8 - 2)
    cases["cea_sd w=8 q=0"] = (cea_sd, (tag, key, pxz, 2, 2, 0))
    leak = np.zeros((nx, 4))
    leak[np.arange(nx), np.arange(nx) >> 6] = pxz[:, 0] / pxz[:, 0].sum()
    cases["cea_sd w=8 q=0 z|x"] = (cea_sd, (prod8 >> 7, prod8 >> 6, leak, 1, 2, 0))

    prod4 = mul_table(4).astype(np.int64)
    pxz4 = rng.random((16, 2))
    pxz4 /= pxz4.sum()
    cases["cea_sd w=4 q=1"] = (cea_sd, (prod4 >> 3, prod4 >> 3, pxz4, 1, 1, 1))
    for label in ("cea_sd w=8 q=0", "cea_sd w=8 q=0 z|x", "cea_sd w=4 q=1"):
        _check_cea(label, *cases[label][1])

    sup = 256
    xcol = rng.integers(0, 16, sup).astype(np.int64)
    ycol = rng.integers(0, 16, sup).astype(np.int64)
    zcol = rng.integers(0, 2, sup).astype(np.int64)
    ptr = rng.random(sup)
    ptr /= ptr.sum()
    cand = rng.integers(-1, 16, (16, 16, 2)).astype(np.int64)
    cases["compose_sd w=4"] = (compose_sd, (prod4 >> 3, prod4 >> 3, xcol, ycol, zcol, ptr, cand, 1, 1, 2))

    micro = leaky_uniform_source(rng, 4, 1, 0.03)
    micro_params = derive_params(micro, 1, 0.5, 0.6, 0, ell_target=2)
    _check_compose("composability w=4", micro, micro_params, lambda: _split_compose(micro, micro_params))
    cases["composability w=4"] = (composability_sd, (micro, micro_params))
    dense = np.random.default_rng(0).random((4, 4, 2))
    dense = JointSource((4, 4, 2), dense / dense.sum())
    dense_params = IkemParams(1, 1, 1, 3.0, 0.5, 0.25, 0, "dense")
    _check_compose("composability dense", dense, dense_params, lambda: naive_composability_sd(dense, dense_params))
    pmf = np.zeros((16, 1 << 16, 1))
    pmf[np.arange(1 << 16) % 16, np.arange(1 << 16), 0] = 2.0**-16
    patterns = JointSource((16, 1 << 16, 1), pmf)
    pattern_params = IkemParams(1, 4, 4, 0.0, 0.5, 0.25, 0, "patterns")
    _check_compose("composability 2^16 y", patterns, pattern_params,
                   lambda: exact_challenge_sd(patterns, pattern_params)[0])
    cases["composability 2^16 y"] = (composability_sd, (patterns, pattern_params))

    multipliers = rng.integers(1, 1 << 12, 16).tolist()
    for label, out_bits in (("mul_vector 16 w=12 n=3", 12), ("mul_vector t=1", 1), ("mul_vector ell=8", 8)):
        _check_mul_vector(label, multipliers, 3, 16, 12, out_bits)
        cases[label] = (mul_vector, (multipliers, 3, 16, 12, out_bits))
    wide = np.random.default_rng(64).integers(1, 1 << 64, 16, np.uint64).tolist()
    _check_mul_vector("mul_vector ell=64", wide, 3, 16, 64, 64)
    cases["mul_vector ell=64"] = (mul_vector, (wide, 3, 16, 64, 64))
    cases["linear_table w=12 n=3"] = (linear_table, (int(rng.integers(1, 1 << 12)), 12, 12, 3, 16))
    cases["linear_table w=280 t=1"] = (linear_table, (int.from_bytes(rng.bytes(35), "big"), 280, 1, 280, 2))

    he_src, he_params = he_micro_instance()
    _check_he_game("he game 200", he_src, he_params, 200, 1)
    cases["he game 200"] = (run_he_game, (he_src, he_params, BestGuessOtpHeAdversary(he_src, he_params), 0, 200, 1))

    sat = satellite_source(0.05, 0.05, 0.3)
    sessions = [(sat, reliability_params(sat, n=n, eps=0.25, ell=8)) for n in (8, 12, 16, 24, 32)]
    demo = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    sessions.append((demo, derive_params(demo, 280, 0.5, 2.0**-8, 0, ell_target=256)))
    for src, params in sessions:
        n = params.n
        triple = sample_n(src, n, seed=n)
        ctxt, key = encap(params, src, triple.x, np.random.default_rng(n))
        args = (params, src, triple.y, ctxt)
        _check_decap(f"decap n={n}", src, params, triple, key, decap(*args))
        cases[f"decap n={n}"] = (decap, args)

    header = f"{'kernel':<22} {'time':>11}"
    print(header)
    print("-" * len(header))
    for label, (fn, args) in cases.items():
        print(f"{label:<22} {_bench(fn, *args) * 1e3:>9.3f}ms")


if __name__ == "__main__":
    main()
