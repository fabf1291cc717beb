"""Hash family: exact pairwise independence, linearity, extraction."""

import time
import tracemalloc

import numpy as np
import pytest

from corrkem import _kernels, uhf
from corrkem import UhfSeed, UhfSpec, hash_value, pairwise_independence_census, sample_seed
from corrkem._kernels import cea_sd, census_max_dev, mul_table
from corrkem.errors import FormatError, RegimeTooLarge
from corrkem.uhf import (
    encode_flat,
    encode_symbols,
    seed_from_bytes,
    seed_to_bytes,
    symbol_bits,
)


def test_annihilating_multiplier_returns_masked_b():
    spec = UhfSpec(6, 2)
    seed = UhfSeed(0, 0b101101)
    for x in range(1 << 6):
        assert hash_value(spec, seed, x) == 0b101101 >> 4


def test_hand_example_w4():
    # product 0b0011 from the gf2 hand example, m=2 keeps the top bits
    spec = UhfSpec(4, 2)
    assert hash_value(spec, UhfSeed(0b0010, 0), 0b1000) == 0b00
    assert hash_value(spec, UhfSeed(0b0010, 0b1100), 0b1000) == 0b11


def test_hash_deterministic_and_validates():
    spec = UhfSpec(8, 3)
    seed = UhfSeed(0x5A, 0xC3)
    assert hash_value(spec, seed, 0x7E) == hash_value(spec, seed, 0x7E)
    with pytest.raises(FormatError, match="input must be 8 bits"):
        hash_value(spec, seed, 0x100)
    with pytest.raises(FormatError, match="seed parts must be input_bits wide"):
        hash_value(spec, UhfSeed(0x100, 0), 1)


def test_spec_past_the_width_cap_is_refused_before_the_field_search():
    # the GF(2^w) field search grows without bound in w (seconds at 2048
    # bits): a 4096-bit spec is refused where it is built, with the
    # message every session check shares
    start = time.perf_counter()
    with pytest.raises(RegimeTooLarge, match="hash width 4096 exceeds 512 bits"):
        hash_value(UhfSpec(4096, 8), UhfSeed(1, 0), 1)
    assert time.perf_counter() - start < 0.1
    assert UhfSpec(512, 8).input_bits == 512


def test_sample_seed_deterministic():
    spec = UhfSpec(16, 4)
    s1 = sample_seed(spec, np.random.default_rng(9))
    s2 = sample_seed(spec, np.random.default_rng(9))
    assert s1 == s2


def test_sample_seed_uniformity():
    # each a-value frequency within 5 standard errors of 2^-8
    spec = UhfSpec(8, 2)
    rng = np.random.default_rng(17)
    draws = 1_000_000
    counts = np.zeros(256, dtype=np.int64)
    for _ in range(draws):
        counts[sample_seed(spec, rng).a] += 1
    p = 1 / 256
    se = np.sqrt(draws * p * (1 - p))
    assert np.abs(counts - draws * p).max() <= 5 * se


def test_successive_seeds_differ():
    spec = UhfSpec(32, 8)
    rng = np.random.default_rng(2)
    seeds = [sample_seed(spec, rng) for _ in range(64)]
    assert len(set(seeds)) == 64


def test_linearity_in_b():
    spec = UhfSpec(10, 4)
    rng = np.random.default_rng(3)
    shift = spec.input_bits - spec.output_bits
    for _ in range(300):
        a = int(rng.integers(0, 1 << 10))
        b1 = int(rng.integers(0, 1 << 10))
        b2 = int(rng.integers(0, 1 << 10))
        x = int(rng.integers(0, 1 << 10))
        lhs = hash_value(spec, UhfSeed(a, b1), x) ^ hash_value(spec, UhfSeed(a, b2), x)
        assert lhs == (b1 ^ b2) >> shift


@pytest.mark.parametrize("w,m", [(3, 1), (4, 2), (4, 4), (5, 3)])
def test_census_exactly_zero(w, m):
    assert pairwise_independence_census(UhfSpec(w, m)) == 0.0


@pytest.mark.parametrize("w,m", [(3, 1), (4, 2)])
def test_census_closed_form_on_zero_table(w, m):
    # every product is 0, so both outputs equal msb_m(b): each diagonal
    # cell holds n^2/2^m of the n^2 seeds where n^2/4^m are expected
    n = 1 << w
    prod = np.zeros((n, n), np.int32)
    assert census_max_dev(prod, w, m) == n * n * ((1 << m) - 1) // 4**m


def _census_by_pairs(prod, w, m):
    # one bincount of the (h(x1), h(x2)) pairs over all (a, b) seeds
    # per ordered input pair x1 != x2
    n, nm = 1 << w, 1 << m
    a, b = np.divmod(np.arange(n * n), n)
    worst = 0
    for x1 in range(n):
        for x2 in range(n):
            if x1 != x2:
                h1 = (prod[a, x1] ^ b) >> (w - m)
                h2 = (prod[a, x2] ^ b) >> (w - m)
                counts = np.bincount(h1 * nm + h2, minlength=nm * nm)
                worst = max(worst, int(np.abs(counts - n * n // nm**2).max()))
    return worst


@pytest.mark.parametrize("m", [1, 2, 4])
def test_census_counts_a_planted_fault(monkeypatch, m):
    prod = mul_table(4).copy()
    prod[5, 9] ^= 0b1001
    dev = census_max_dev(prod, 4, m)
    assert dev == _census_by_pairs(prod, 4, m)
    assert dev > 0
    monkeypatch.setattr(_kernels, "BLOCK_CELLS", 8 * 64)
    assert census_max_dev(prod, 4, m) == dev


@pytest.mark.parametrize("budget", [None, 8 * 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("w,m", [(3, 1), (4, 2), (4, 4), (5, 3)])
def test_census_matches_full_recount_on_random_tables(monkeypatch, w, m, seed, budget):
    # msb_m(u ^ b) = msb_m(u) ^ msb_m(b) for any table, so a table that is
    # not a field still gives the full (a, b) recount's integer; a budget
    # of 8 * 64 cells leaves one multiplier per block
    prod = np.random.default_rng(seed).integers(0, 1 << w, (1 << w, 1 << w))
    if budget:
        monkeypatch.setattr(_kernels, "BLOCK_CELLS", budget)
    assert census_max_dev(prod, w, m) == _census_by_pairs(prod, w, m)


@pytest.mark.parametrize("w,m", [(8, 1), (6, 3)])
def test_census_memory_within_budget_at_the_widest_specs(w, m):
    # the widest admitted specs: a 2^(w+m)-square Gram matrix of 2^18 cells
    tracemalloc.start()
    try:
        assert pairwise_independence_census(UhfSpec(w, m)) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _kernels.BLOCK_CELLS


def test_census_regime_guard(monkeypatch):
    # past w + m = 9 the census is refused; a w = 12 census would count
    # 2^36 (multiplier, input pair) cells, so the census itself is
    # stubbed: without the guard the test fails at once
    def census(*args):
        raise AssertionError("census ran past the regime guard")

    monkeypatch.setattr(uhf, "census_max_dev", census)
    for w, m in [(12, 1), (9, 1), (7, 3), (13, 4)]:
        start = time.perf_counter()
        with pytest.raises(RegimeTooLarge):
            pairwise_independence_census(UhfSpec(w, m))
        assert time.perf_counter() - start < 1.0


def extractor_sd(spec: UhfSpec, probs) -> float:
    """Exact SD((S, h_S(X)); (S, U_m)) for X with pmf probs over all 2^w
    inputs: the transcript distance with no tag (t = 0) and no queries.
    With the leftover-hash bound this is the seeded-extractor check
    SD <= 0.5 * sqrt(2^(m - Hmin))."""
    w, m = spec.input_bits, spec.output_bits
    xs = np.nonzero(probs > 0.0)[0]
    key = mul_table(w)[:, xs].astype(np.int64) >> (w - m)
    return float(cea_sd(np.zeros_like(key), key, probs[xs][:, None], 0, m, 0))


def _naive_extractor_sd(spec: UhfSpec, probs) -> float:
    # exhaustive (a, b, x) joint; oracle for the kernel-backed version
    w, m = spec.input_bits, spec.output_bits
    n = 1 << w
    joint = {}
    for a in range(n):
        for b in range(n):
            for x in range(n):
                p = probs[x] / (n * n)
                if p == 0.0:
                    continue
                k = hash_value(spec, UhfSeed(a, b), x)
                joint[(a, b, k)] = joint.get((a, b, k), 0.0) + p
    sd = 0.0
    for a in range(n):
        for b in range(n):
            for k in range(1 << m):
                sd += abs(joint.get((a, b, k), 0.0) - 1 / (n * n * (1 << m)))
    return 0.5 * sd


def test_extractor_sd_matches_naive_oracle():
    rng = np.random.default_rng(5)
    for w, m in [(3, 1), (4, 2)]:
        spec = UhfSpec(w, m)
        probs = rng.random(1 << w)
        probs /= probs.sum()
        fast = extractor_sd(spec, probs)
        slow = _naive_extractor_sd(spec, probs)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_extractor_bound_with_known_min_entropy():
    # sources with H_min = d exactly: uniform over 2^d of the 2^w inputs
    rng = np.random.default_rng(6)
    for w in (4, 6, 8):
        for d in range(1, w + 1):
            support = rng.choice(1 << w, size=1 << d, replace=False)
            probs = np.zeros(1 << w)
            probs[support] = 1.0 / (1 << d)
            for m in (1, min(3, w)):
                sd = extractor_sd(UhfSpec(w, m), probs)
                assert sd <= 0.5 * np.sqrt(2.0 ** (m - d)) + 1e-12


def test_seed_serialization_roundtrip():
    spec = UhfSpec(12, 5)
    seed = UhfSeed(0xABC, 0x123)
    raw = seed_to_bytes(spec, seed)
    assert len(raw) == 4  # two 2-byte halves
    assert seed_from_bytes(spec, raw) == seed
    with pytest.raises(FormatError, match="seed serialization must be 4 bytes"):
        seed_from_bytes(spec, raw + b"\x00")


def test_encode_symbols_big_endian():
    assert encode_symbols([1, 2, 0], 5) == (1 << 6) | (2 << 3)  # 3-bit symbols
    assert encode_symbols(np.array([1, 2, 0]), 5) == (1 << 6) | (2 << 3)
    assert encode_symbols([], 5) == 0
    assert symbol_bits(1) == 0
    assert symbol_bits(2) == 1
    assert symbol_bits(5) == 3
    for bad in (-1, 5):  # the first symbol outside the alphabet is named
        with pytest.raises(FormatError, match=f"symbol {bad} "):
            encode_symbols([0, 4, bad, 7], 5)


@pytest.mark.parametrize("nx,n", [(1, 100), (1, 3), (2, 10), (3, 5), (5, 4), (16, 3)])
def test_encode_flat_matches_encode_symbols(nx, n):
    size = nx**n
    rng = np.random.default_rng(nx * 100 + n)
    subset = rng.integers(0, size, 50)  # unsorted, with repeats
    for flat in (np.arange(size), subset):
        # row-major digits; np.unravel_index stops at 64 dimensions
        rows = np.array([flat // nx ** (n - 1 - i) % nx for i in range(n)]).T
        expected = [encode_symbols(row, nx) for row in rows]
        assert encode_flat(flat, n, nx).tolist() == expected
