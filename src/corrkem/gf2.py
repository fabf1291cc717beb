"""Carry-less (GF(2^w)) field arithmetic for the universal hash family.

Field elements are Python ints holding w-bit polynomials (bit i is the
coefficient of x^i).  Multiplication reduces modulo a fixed monic
irreducible polynomial x^w + low(w).

The reduction polynomial for each width follows one deterministic,
published rule so that independent implementations interoperate
bit-for-bit:

    low(w) = the smallest odd integer mask with an even popcount such
             that x^w + mask is irreducible over GF(2)   (w >= 2;
             low(1) = 1).

At the familiar widths the rule yields the conventional polynomials:

    w = 3    x^3 + x + 1                   (low = 0b0011)
    w = 4    x^4 + x + 1                   (low = 0b0011)
    w = 8    x^8 + x^4 + x^3 + x + 1       (low = 0b11011)
    w = 64   x^64 + x^4 + x^3 + x + 1      (low = 0b11011)
    w = 128  x^128 + x^7 + x^2 + x + 1     (low = 0x87)

``REDUCTION_LOWS`` is the rule's output for every width 1 <= w <= 512,
the widest field a session may use (``corrkem.uhf.MAX_HASH_WIDTH`` is
its length).  The tests keep the rule's search, which decides each
candidate with Ben-Or's irreducibility test, as the oracle for it.  A
wider field is refused.
"""

from functools import lru_cache, reduce

import numpy as np

from .errors import FormatError, RegimeTooLarge


def mul(a: int, b: int, w: int) -> int:
    """Multiply two w-bit field elements modulo x^w + low(w)."""
    low = reduction_low(w)
    top = 1 << (w - 1)
    mask = (1 << w) - 1
    res = 0
    while b:
        if b & 1:
            res ^= a
        b >>= 1
        carry = a & top
        a = (a << 1) & mask
        if carry:
            a ^= low
    return res


def mul_vector(a, n: int, alphabet_size: int, w: int) -> np.ndarray:
    """Field products a[k] * code for each multiplier a[k] and every
    n-symbol vector, as (len(a), |X|^n) int64, each row in row-major
    flat order (first symbol most significant).

    :func:`linear_table` at full output width for all multipliers at
    once: the per-symbol tables of :func:`_code_tables`, then the XOR
    outer chain over the symbols.  Needs 1 <= w <= 62, so that every
    product fits int64: the caller's check, as the posterior adversaries'
    check_z refuses a wider hash.
    """
    table = _code_tables(a, w, w, n, alphabet_size)[..., 0].view(np.int64)  # [i, s, k]
    # last symbol first, so each step's inner loop runs over the longer suffix
    return reduce(lambda c, d: (d[:, :, None] ^ c[:, None, :]).reshape(len(a), -1), table.transpose(0, 2, 1)[::-1])


def linear_table(a: int, w: int, out_bits: int, n: int, alphabet_size: int) -> np.ndarray:
    """T[i, s] = msb_out(a * (s << bits*(n-1-i))) as little-endian uint64
    limbs, shape (n, |X|, ceil(out_bits/64)), with bits = ceil(log2 |X|).

    The field product is GF(2)-linear in the packed code, so a * code
    of any n-symbol vector x is XOR_i T[i, x_i] (then truncated).
    """
    return _code_tables([a], w, out_bits, n, alphabet_size)[:, :, 0]


def _code_tables(a, w: int, out_bits: int, n: int, alphabet_size: int) -> np.ndarray:
    """:func:`linear_table` of each multiplier a[k], as T[i, s, k, limb]: the
    one owner of the packed-symbol layout.  Code bit j, bit j % bits of
    symbol n-1 - j // bits, has the product a[k] * x^j from :func:`_powers`,
    and :func:`_select_xor` XORs those per symbol value."""
    bits = (alphabet_size - 1).bit_length()
    products = limbs([p for x in a for p in _powers(x, w, n * bits, w - out_bits)], out_bits)  # [(k, j), limb]
    per_bit = products.reshape(len(a), n, bits, products.shape[1]).transpose(1, 2, 0, 3)[::-1]  # [i, j, k, limb]
    return _select_xor(per_bit, alphabet_size)


def _powers(a: int, w: int, count: int, shift: int) -> list[int]:
    """(a * x^j) >> shift for j < count, each one shift-and-reduce from
    the last."""
    poly = reduction_low(w) | 1 << w
    powers = []
    for _ in range(count):
        powers.append(a >> shift)
        a <<= 1
        if a >> w:
            a ^= poly
    return powers


def _select_xor(per_bit: np.ndarray, alphabet_size: int) -> np.ndarray:
    """T[i, s, ...] = XOR of per_bit[i, j, ...] over the set bits j of s,
    for s < alphabet_size, filled by doubling: the values below 2^(j+1)
    are those below 2^j, each XORed with per_bit[i, j]."""
    out = np.zeros(per_bit.shape[:1] + (1 << per_bit.shape[1],) + per_bit.shape[2:], per_bit.dtype)
    for j in range(per_bit.shape[1]):
        np.bitwise_xor(out[:, :1 << j], per_bit[:, j:j + 1], out=out[:, 1 << j:2 << j])
    return out[:, :alphabet_size]


def limbs(values, bits: int) -> np.ndarray:
    """bits-wide ints as rows of ceil(bits/64) little-endian uint64 limbs."""
    nl = (bits + 63) // 64
    if nl == 1:  # each value fits one limb: numpy converts the list directly
        return np.array(values, np.uint64).reshape(-1, 1)
    return np.frombuffer(b"".join(v.to_bytes(8 * nl, "little") for v in values), "<u8").reshape(-1, nl)


# low(w) by the rule above, at index w - 1.
REDUCTION_LOWS = (
       1,    3,    3,    3,    5,    3,    3,   27,    3,    9,    5,    9,   27,   33,    3,   43,  # w = 1-16
       9,    9,   39,    9,    5,    3,   33,   27,    9,   27,   39,    3,    5,    3,    9,  141,  # w = 17-32
      75,   27,    5,   53,   63,   99,   17,   57,    9,   39,   89,   33,   27,    3,   33,   45,  # w = 33-48
     113,   29,   75,    9,   71,  125,   71,  149,   17,   99,  123,    3,   39,  105,    3,   27,  # w = 49-64
      27,    9,   39,  163,  101,   43,   43,   95,   29,   71,   75,   53,  101,   95,   29,  175,  # w = 65-80
      17,  215,  149,   33,  263,  101,  163,   63,  105,   45,  237,  101,    5,   99,  119,  111,  # w = 81-96
      65,  153,   75,  101,  195,  105,  189,   27,   17,   99,  175,   83,   53,   83,  149,   57,  # w = 97-112
      45,   45,  175,   23,   39,  101,  257,   27,  291,   71,    5,  125,  175,  149,    3,  135,  # w = 113-128
      33,    9,  243,  119,  111,  163,   89,   45,  317,  365,  175,   83,  427,  243,   45,  149,  # w = 129-144
      99,   45,   63,  169,  763,   53,    9,   77,    3,  225,  177,  105,  101,  311,  123,   45,  # w = 145-160
      77,  231,  201,  495,  603,   99,   65,   95,  353,   77,   63,    3,  293,  125,   65,  189,  # w = 161-176
      45,  389,   23,    9,  195,  243,  401,  349,  267,  413,  225,  101,  101,  449,  187,  135,  # w = 177-192
     503,   29,  183,    9,  495,  105,  237,   45,   77,  209,  387,   53,  549,  175,  579,  461,  # w = 193-208
      45,  129,  619,  153,  101,   43,  105,  139,  113,  245,  245,  129,  311,   53,   53,  437,  # w = 209-224
     365,  245,  123,  263,  615,  189,  149,  245,  189,  459,  461,   33,  147,   39,   63,  297,  # w = 225-240
     377,  371,  291,  359,   83,  423,  533,  317,  147,  111,  149,  125,   63,  135,   45, 1061,  # w = 241-256
     189,  593,  507,  105,  209,  785,  639,  581,   45,   77,  329,  903,  195,   53,  287,  483,  # w = 257-272
     135,  237,  315,   75,  183,   33,   33,  549,  531,   77,  359,  353,  175,  507,  101,  469,  # w = 273-288
     245,   45,  123,  139,  603,  249,   53,  141,   33,  315,  175,   33,  359,   63,    3,   63,  # w = 289-304
     197,  139,  277,  903,  371,  291,  169,  657,  139,  359,  123,  363,  149,  353,  303,   27,  # w = 305-320
     165,  759,  123,   23,  343, 1035,  237,  267,  317,  111,  245,   71,    5,   39,  819,  147,  # w = 321-336
     231,   27,  175,  715,  287,  349,  987,  135,  277,  231,  245,  401,  101,  101,  329,  189,  # w = 337-352
     657,  811,   99,  231,  497,  363,  359,   45,  147,  411,  297,  513,  609,  353,  187,  141,  # w = 353-368
    1515,   45,  269,  365,  389,  353,   23,  417,  267,  593,  811, 1379,   39,  547,  547,  479,  # w = 369-384
      65,  917,  387,  153,  207,  315,   71,  411,  129,  389,  503,  125,  483,  197,  599,   45,  # w = 385-400
     187,   63,  801,  123,  853,  269,  423,   45,  169, 1049,  365,  165,  215,  315,  533,  549,  # w = 401-416
     315,  119,  639,  129,   53,  187,  543,  429,  123,  627,  359,  347,  573,  317,   43,  235,  # w = 417-432
     879,  231, 1131,  113,   71,  413,  269,   27,  129,  165,  399,  703,  209, 1699,  413,  189,  # w = 433-448
     639,  469,  821,  113, 2033,  323,  753,  207,  621,  543,  219,  547,  195,  609, 1429,  599,  # w = 449-464
     269,  969, 2115, 1375,  125,  317,    3,   63,  329,  697,  785,  159,  377,   83,  509,  221,  # w = 465-480
     663,  609,  219, 1495,  429,  249,  533,   27,  609,  673,  123,   83,  591, 1343,  177,  407,  # w = 481-496
    1699,  119,  717,  359,   53,  305,    9,   95,  797,  791,  245,  159,  393,   83, 1025,  293,  # w = 497-512
)


# A lookup needs no cache.  The wrapper stays because perfbench/tracing.py
# times reduction_low.__wrapped__(280), and the benchmark's files stay as
# they are until benchmark v2 (ROADMAP item 1b), which can drop both.
@lru_cache(maxsize=None)
def reduction_low(w: int) -> int:
    """Low terms of the degree-w reduction polynomial (x^w excluded)."""
    if w < 1:
        raise FormatError("field width must be >= 1")
    if w > len(REDUCTION_LOWS):
        raise RegimeTooLarge(f"field width {w} exceeds {len(REDUCTION_LOWS)} bits")
    return REDUCTION_LOWS[w - 1]
