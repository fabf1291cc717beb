"""Benchmark the hot kernels: numba @njit against the numpy fallback.

Run:  python3 benchmarks/bench_kernels.py
Times are the best of three calls after one warm-up.  The numba column
shows "-" when numba is not installed (it is the optional ``numba``
extra).
"""

import time

import numpy as np

from corrkem._kernels import BACKEND, IMPLEMENTATIONS
from corrkem.gf2 import reduction_low


def _bench(fn, *args, repeat=3):
    fn(*args)  # warm-up (and jit compile)
    best = min(_timed(fn, *args) for _ in range(repeat))
    return best


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def main():
    print(f"active backend: {BACKEND}")
    rng = np.random.default_rng(0)

    w = 8
    low = reduction_low(w)
    table = IMPLEMENTATIONS["mul_table"]["numpy"](w, low)

    cases = {}
    cases["mul_table w=8"] = ("mul_table", (w, low))
    table6 = IMPLEMENTATIONS["mul_table"]["numpy"](6, reduction_low(6))
    cases["census w=6 m=3"] = ("census_max_dev", (table6, 6, 3))

    nx = 256
    pxz = rng.random((nx, 4))
    pxz /= pxz.sum()
    prod8 = table[:, np.arange(nx)].astype(np.int64)
    tag = prod8 >> (8 - 2)
    key = prod8 >> (8 - 2)
    cases["cea_sd w=8 q=0"] = ("cea_sd", (tag, key, pxz, 2, 2, 0))

    table4 = IMPLEMENTATIONS["mul_table"]["numpy"](4, reduction_low(4))
    prod4 = table4.astype(np.int64)
    pxz4 = rng.random((16, 2))
    pxz4 /= pxz4.sum()
    cases["cea_sd w=4 q=1"] = ("cea_sd", (prod4 >> 3, prod4 >> 3, pxz4, 1, 1, 1))

    sup = 256
    xcol = rng.integers(0, 16, sup).astype(np.int64)
    ycol = rng.integers(0, 16, sup).astype(np.int64)
    zcol = rng.integers(0, 2, sup).astype(np.int64)
    ptr = rng.random(sup)
    ptr /= ptr.sum()
    cand = rng.integers(-1, 16, (16, 16, 2)).astype(np.int64)
    cases["compose_sd w=4"] = ("compose_sd", (prod4 >> 3, prod4 >> 3, xcol, ycol, zcol, ptr, cand, 1, 1, 2))

    header = f"{'kernel':<20} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, (name, args) in cases.items():
        impls = IMPLEMENTATIONS[name]
        t_np = _bench(impls["numpy"], *args)
        if "numba" in impls:
            t_nb = _bench(impls["numba"], *args)
            print(f"{label:<20} {t_np * 1e3:>8.2f}ms {t_nb * 1e3:>8.2f}ms {t_np / t_nb:>7.1f}x")
        else:
            print(f"{label:<20} {t_np * 1e3:>8.2f}ms {'-':>10} {'-':>8}")


if __name__ == "__main__":
    main()
