"""Strongly universal hash family over w-bit strings.

The family is affine over GF(2^w):

    h_{a,b}(x) = msb_m( (a * x) XOR b )

with the field product taken modulo the published per-width reduction
polynomial (see :mod:`corrkem.gf2`) and msb_m keeping the m most
significant of the w bits.  For any two distinct inputs the map
(a, b) -> (a*x ^ b, a*x' ^ b) is a bijection of the seed space, so the
truncated output pair is exactly uniform: pairwise independence holds
with zero deviation, which :func:`pairwise_independence_census`
verifies by brute force over every multiplier and input pair.

Seeds serialize as a then b, each ceil(w/8) bytes big-endian with the
high bits zero-padded.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import gf2
from ._kernels import census_max_dev, mul_table
from .errors import FormatError, RegimeTooLarge
from .source import check_symbols

# Widest hash input a spec may have: GF(2^w) fields are searched on
# first use, and the search grows without bound in w; up to 512 bits
# the slowest width takes under a second.
MAX_HASH_WIDTH = 512


@dataclass(frozen=True)
class UhfSpec:
    """Input and output widths of one family member."""

    input_bits: int
    output_bits: int

    def __post_init__(self):
        if self.input_bits < 1:
            raise FormatError("input_bits must be >= 1")
        if self.input_bits > MAX_HASH_WIDTH:
            raise RegimeTooLarge(f"hash width {self.input_bits} exceeds {MAX_HASH_WIDTH} bits")
        if not 1 <= self.output_bits <= self.input_bits:
            raise FormatError("need 1 <= output_bits <= input_bits")

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
            raise FormatError("seed parts must be input_bits wide")


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
        raise FormatError(f"input must be {spec.input_bits} bits")
    seed.validate(spec)
    return (gf2.mul(seed.a, x, spec.input_bits) ^ seed.b) >> (spec.input_bits - spec.output_bits)


def seed_to_bytes(spec: UhfSpec, seed: UhfSeed) -> bytes:
    seed.validate(spec)
    nb = spec.seed_bytes
    return seed.a.to_bytes(nb, "big") + seed.b.to_bytes(nb, "big")


def seed_from_bytes(spec: UhfSpec, raw: bytes) -> UhfSeed:
    nb = spec.seed_bytes
    if len(raw) != 2 * nb:
        raise FormatError(f"seed serialization must be {2 * nb} bytes")
    seed = UhfSeed(int.from_bytes(raw[:nb], "big"), int.from_bytes(raw[nb:], "big"))
    seed.validate(spec)
    return seed


def encode_symbols(symbols, alphabet_size: int, n: int | None = None) -> int:
    """Pack a symbol vector into one integer.

    Each symbol takes ceil(log2(alphabet_size)) bits, first symbol most
    significant; injective for fixed length and alphabet.  The vector
    must pass :func:`corrkem.source.check_symbols` (of length n, if given).
    """
    bits = symbol_bits(alphabet_size)
    code = 0
    for s in check_symbols(symbols, alphabet_size, n).tolist():  # Python ints: no numpy scalars
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
        raise FormatError("alphabet_size must be >= 1")
    return (alphabet_size - 1).bit_length()


def pairwise_independence_census(spec: UhfSpec) -> float:
    """Max deviation of pair frequencies from 2^-2m over the full seed
    space, all ordered input pairs, and all output pairs.

    Enumerates every multiplier and input pair and counts the masks b
    (:func:`corrkem._kernels.census_max_dev`).  w + m <= 9, else
    RegimeTooLarge, so a spec counts at most 2^(3w) <= 2^24 (multiplier,
    input pair) cells.  For this family the return value is exactly 0.0.
    """
    w, m = spec.input_bits, spec.output_bits
    if w + m > 9:
        raise RegimeTooLarge(f"census limited to w + m <= 9, got {w + m}")
    return census_max_dev(mul_table(w), w, m) / float((1 << w) ** 2)
