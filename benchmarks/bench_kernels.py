"""Benchmark the exact-enumeration kernels and decapsulation.

Run:  python3 benchmarks/bench_kernels.py
Times are the best of three calls after one warm-up.  Each cea_sd
result is checked before it is timed: it must lie in [0, 1] and agree
within 1e-12 with a run whose key operand is split into two blocks.
The mul_vector row is the posterior games' bulk product a * code over
all |X|^n codes at the he-micro shape (w = 12, n = 3, |X| = 16); the
linear_table rows build the GF(2)-linear table at that shape and the
README demo's decap tag table (w = n = 280, |X| = 2, t = 1).  The
reduction_low row is the uncached field search at the README demo
width.  The decap rows decapsulate one encapsulation on
satellite_source(0.05, 0.05, 0.3) with reliability_params(eps=0.25),
and the n=280 row one on the README demo session (X = Y one uniform
bit, derive_params(n=280, eps=0.5, sigma=2^-8, ell=256)); each result
is checked before it is timed, so a wrong decap or distance fails the
script instead of being timed.
"""

import time

import numpy as np

from corrkem import (
    BOTTOM,
    _kernels,
    decap,
    derive_params,
    encap,
    make_table_source,
    reliability_params,
    sample_n,
    satellite_source,
    surprisal,
)
from corrkem._kernels import BACKEND, cea_sd, census_max_dev, compose_sd, mul_table
from corrkem.gf2 import linear_table, mul_vector, reduction_low


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


def _check_cea(label, tag, key, pxz, t_bits, ell_bits, q_e):
    """The distance lies in [0, 1] and does not depend on the key blocks."""
    got = cea_sd(tag, key, pxz, t_bits, ell_bits, q_e)
    two_l = 1 << ell_bits
    groups = (tag.shape[0] << ell_bits) ** (1 + q_e) // two_l
    budget = _kernels.BLOCK_CELLS
    _kernels.BLOCK_CELLS = 8 * tag.shape[1] * -(-groups // 2) * two_l  # two key blocks
    try:
        split = cea_sd(tag, key, pxz, t_bits, ell_bits, q_e)
    finally:
        _kernels.BLOCK_CELLS = budget
    if not (0.0 <= got <= 1.0 and abs(got - split) <= 1e-12):
        raise SystemExit(f"{label}: distance {got!r}, {split!r} with two key blocks")


def main():
    print(f"backend: {BACKEND}")
    rng = np.random.default_rng(0)

    table = mul_table(8)

    cases = {}
    cases["mul_table w=8"] = (mul_table, (8,))
    cases["census w=6 m=3"] = (census_max_dev, (mul_table(6), 6, 3))

    nx = 256
    pxz = rng.random((nx, 4))
    pxz /= pxz.sum()
    prod8 = table[:, np.arange(nx)].astype(np.int64)
    tag = prod8 >> (8 - 2)
    key = prod8 >> (8 - 2)
    cases["cea_sd w=8 q=0"] = (cea_sd, (tag, key, pxz, 2, 2, 0))

    prod4 = mul_table(4).astype(np.int64)
    pxz4 = rng.random((16, 2))
    pxz4 /= pxz4.sum()
    cases["cea_sd w=4 q=1"] = (cea_sd, (prod4 >> 3, prod4 >> 3, pxz4, 1, 1, 1))
    for label in ("cea_sd w=8 q=0", "cea_sd w=4 q=1"):
        _check_cea(label, *cases[label][1])

    sup = 256
    xcol = rng.integers(0, 16, sup).astype(np.int64)
    ycol = rng.integers(0, 16, sup).astype(np.int64)
    zcol = rng.integers(0, 2, sup).astype(np.int64)
    ptr = rng.random(sup)
    ptr /= ptr.sum()
    cand = rng.integers(-1, 16, (16, 16, 2)).astype(np.int64)
    cases["compose_sd w=4"] = (compose_sd, (prod4 >> 3, prod4 >> 3, xcol, ycol, zcol, ptr, cand, 1, 1, 2))

    cases["mul_vector w=12 n=3"] = (mul_vector, (int(rng.integers(1, 1 << 12)), 3, 16, 12))
    cases["linear_table w=12 n=3"] = (linear_table, (int(rng.integers(1, 1 << 12)), 12, 12, 3, 16))
    cases["linear_table w=280 t=1"] = (linear_table, (int.from_bytes(rng.bytes(35), "big"), 280, 1, 280, 2))
    cases["reduction_low w=280"] = (reduction_low.__wrapped__, (280,))

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
