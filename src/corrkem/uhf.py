"""Strongly universal hash family over w-bit strings.

The family is affine over GF(2^w):

    h_{a,b}(x) = msb_m( (a * x) XOR b )

with the field product taken modulo the published per-width reduction
polynomial (see :mod:`corrkem.gf2`) and msb_m keeping the m most
significant of the w bits.  For any two distinct inputs the map
(a, b) -> (a*x ^ b, a*x' ^ b) is a bijection of the seed space, so the
truncated output pair is exactly uniform: pairwise independence holds
with zero deviation, which :func:`pairwise_independence_census`
verifies by brute force.

Seeds serialize as a then b, each ceil(w/8) bytes big-endian with the
high bits zero-padded.
"""

from dataclasses import dataclass

import numpy as np

from . import gf2
from ._kernels import cea_sd, census_max_dev, mul_table
from .errors import DimensionMismatch, LengthMismatch, RegimeTooLarge

CENSUS_MAX_WIDTH = 12


@dataclass(frozen=True)
class UhfSpec:
    """Input and output widths of one family member."""

    input_bits: int
    output_bits: int

    def __post_init__(self):
        if self.input_bits < 1:
            raise DimensionMismatch("input_bits must be >= 1")
        if not 1 <= self.output_bits <= self.input_bits:
            raise DimensionMismatch("need 1 <= output_bits <= input_bits")

    @property
    def seed_bytes(self) -> int:
        return (self.input_bits + 7) // 8


@dataclass(frozen=True)
class UhfSeed:
    """The (a, b) pair: field multiplier and additive mask."""

    a: int
    b: int

    def validate(self, spec: UhfSpec) -> None:
        limit = 1 << spec.input_bits
        if not (0 <= self.a < limit and 0 <= self.b < limit):
            raise LengthMismatch("seed parts must be input_bits wide")


def sample_seed(spec: UhfSpec, rng: np.random.Generator) -> UhfSeed:
    """Uniform seed, deterministic in the generator state."""
    return UhfSeed(rand_bits(rng, spec.input_bits), rand_bits(rng, spec.input_bits))


def rand_bits(rng: np.random.Generator, w: int) -> int:
    """Uniform w-bit integer drawn from 64-bit generator words."""
    value = 0
    for _ in range((w + 63) // 64):
        value = (value << 64) | int(rng.integers(0, 1 << 64, dtype=np.uint64))
    return value & ((1 << w) - 1)


def hash_value(spec: UhfSpec, seed: UhfSeed, x: int) -> int:
    """Top output_bits of (a*x) XOR b."""
    if not 0 <= x < (1 << spec.input_bits):
        raise LengthMismatch(f"input must be {spec.input_bits} bits")
    seed.validate(spec)
    return (gf2.mul(seed.a, x, spec.input_bits) ^ seed.b) >> (spec.input_bits - spec.output_bits)


def seed_to_bytes(spec: UhfSpec, seed: UhfSeed) -> bytes:
    seed.validate(spec)
    nb = spec.seed_bytes
    return seed.a.to_bytes(nb, "big") + seed.b.to_bytes(nb, "big")


def seed_from_bytes(spec: UhfSpec, raw: bytes) -> UhfSeed:
    nb = spec.seed_bytes
    if len(raw) != 2 * nb:
        raise LengthMismatch(f"seed serialization must be {2 * nb} bytes")
    seed = UhfSeed(int.from_bytes(raw[:nb], "big"), int.from_bytes(raw[nb:], "big"))
    seed.validate(spec)
    return seed


def encode_symbols(symbols, alphabet_size: int) -> tuple[int, int]:
    """Pack a symbol vector into one integer.

    Each symbol takes ceil(log2(alphabet_size)) bits, first symbol most
    significant.  Returns (code, total_bits); injective for fixed
    length and alphabet.
    """
    bits = symbol_bits(alphabet_size)
    code = 0
    count = 0
    for s in symbols:
        s = int(s)
        if not 0 <= s < alphabet_size:
            raise LengthMismatch(f"symbol {s} outside alphabet of {alphabet_size}")
        code = (code << bits) | s
        count += 1
    return code, bits * count


def encode_flat(flat, n: int, alphabet_size: int) -> np.ndarray:
    """:func:`encode_symbols` of each row-major flat index into the
    n-fold alphabet, vectorized."""
    bits = symbol_bits(alphabet_size)
    code = np.zeros(np.shape(flat), dtype=np.int64)
    for digit in np.unravel_index(flat, (alphabet_size,) * n):
        code = (code << bits) | digit
    return code


def symbol_bits(alphabet_size: int) -> int:
    if alphabet_size < 1:
        raise DimensionMismatch("alphabet_size must be >= 1")
    return (alphabet_size - 1).bit_length()


def pairwise_independence_census(spec: UhfSpec) -> float:
    """Max deviation of pair frequencies from 2^-2m over the full seed
    space, all ordered input pairs, and all output pairs.

    Exhaustive: 2^2w seeds times 2^2w input pairs, so w <= 12.  For
    this family the return value is exactly 0.0.
    """
    w, m = spec.input_bits, spec.output_bits
    if w > CENSUS_MAX_WIDTH:
        raise RegimeTooLarge(f"census needs w <= {CENSUS_MAX_WIDTH}, got {w}")
    prod = mul_table(w)
    worst = census_max_dev(prod, w, m)
    return float(worst) / float((1 << w) ** 2)


def extractor_sd(spec: UhfSpec, probs: np.ndarray) -> float:
    """Exact SD((S, h_S(X)); (S, U_m)) for X with the given pmf.

    probs[i] is the probability of input value i (length 2^w, zeros
    allowed).  Exhaustive in the seed space, so w <= 12.  Together with
    the leftover-hash bound this realizes the seeded-extractor check:
    SD <= 0.5 * sqrt(2^(m - Hmin)).
    """
    w, m = spec.input_bits, spec.output_bits
    if w > CENSUS_MAX_WIDTH:
        raise RegimeTooLarge(f"extractor enumeration needs w <= {CENSUS_MAX_WIDTH}")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (1 << w,):
        raise DimensionMismatch("probs must cover all 2^w inputs")
    table = mul_table(w)
    xs = np.nonzero(probs > 0.0)[0]
    key = (table[:, xs].astype(np.int64)) >> (w - m)
    tag = np.zeros_like(key)  # no tag leaked: t = 0
    pxz = probs[xs][:, None]
    return float(cea_sd(tag, key, pxz, 0, m, 0))
