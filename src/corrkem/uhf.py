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
from functools import reduce

import numpy as np

from . import gf2
from ._kernels import BLOCK_CELLS, census_max_dev, mul_table
from .errors import DimensionMismatch, LengthMismatch, RegimeTooLarge


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


def encode_symbols(symbols, alphabet_size: int) -> int:
    """Pack a symbol vector into one integer.

    Each symbol takes ceil(log2(alphabet_size)) bits, first symbol most
    significant; injective for fixed length and alphabet.
    """
    bits = symbol_bits(alphabet_size)
    code = 0
    for s in np.asarray(symbols, dtype=np.int64).tolist():  # Python ints: no numpy scalars
        if not 0 <= s < alphabet_size:
            raise LengthMismatch(f"symbol {s} outside alphabet of {alphabet_size}")
        code = (code << bits) | s
    return code


def encode_flat(flat, n: int, alphabet_size: int) -> np.ndarray:
    """:func:`encode_symbols` of each row-major flat index into the
    n-fold alphabet: a lookup in the table of all |X|^n codes."""
    bits = symbol_bits(alphabet_size)
    digits = [np.arange(alphabet_size, dtype=np.int64) << bits * i for i in reversed(range(n))]
    return reduce(lambda c, d: np.bitwise_or.outer(c, d).ravel(), digits)[flat]


def symbol_bits(alphabet_size: int) -> int:
    if alphabet_size < 1:
        raise DimensionMismatch("alphabet_size must be >= 1")
    return (alphabet_size - 1).bit_length()


def pairwise_independence_census(spec: UhfSpec) -> float:
    """Max deviation of pair frequencies from 2^-2m over the full seed
    space, all ordered input pairs, and all output pairs.

    Exhaustive over all 2^2w seeds, into one 2^(w+m)-square Gram matrix
    of (input, output) pairs that must fit one kernel block:
    4^(w+m) <= BLOCK_CELLS / 8, i.e. w + m <= 9, else RegimeTooLarge.
    For this family the return value is exactly 0.0.
    """
    w, m = spec.input_bits, spec.output_bits
    if 4 ** (w + m) > BLOCK_CELLS // 8:
        raise RegimeTooLarge(f"census Gram matrix of 4^{w + m} cells exceeds one kernel block")
    return census_max_dev(mul_table(w), w, m) / float((1 << w) ** 2)

