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

The rule yields the conventional minimal-weight polynomials, e.g.

    w = 3   x^3 + x + 1                 (low = 0b0011)
    w = 4   x^4 + x + 1                 (low = 0b0011)
    w = 8   x^8 + x^4 + x^3 + x + 1     (low = 0b11011)
    w = 64  x^64 + x^4 + x^3 + x + 1    (low = 0b11011)

Every width w >= 2 is searched by this rule on first use, each candidate
decided by Ben-Or's irreducibility test, and cached; sessions bound the
width at ``corrkem.ikem.MAX_HASH_WIDTH`` = 512 bits, where the search
stays under a second.
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


def mul_vector(a: int, n: int, alphabet_size: int, w: int) -> np.ndarray:
    """Field products a * code for every n-symbol vector, as int64 in
    row-major flat order (first symbol most significant).

    The XOR outer chain over the rows of :func:`linear_table` at full
    output width; w is capped at 62 so every product fits int64.
    """
    if w > 62:
        raise RegimeTooLarge("mul_vector supports 1 <= w <= 62")
    table = linear_table(a, w, w, n, alphabet_size)[..., 0].view(np.int64)
    return reduce(lambda c, d: np.bitwise_xor.outer(c, d).ravel(), table)


def linear_table(a: int, w: int, out_bits: int, n: int, alphabet_size: int) -> np.ndarray:
    """T[i, s] = msb_out(a * (s << bits*(n-1-i))) as little-endian uint64
    limbs, shape (n, |X|, ceil(out_bits/64)), with bits = ceil(log2 |X|).

    The field product is GF(2)-linear in the packed code, so a * code
    of any n-symbol vector x is XOR_i T[i, x_i] (then truncated).  Built
    from the n*bits products a * x^j, each one shift-and-reduce from
    the last.
    """
    bits = (alphabet_size - 1).bit_length()
    poly, shift = reduction_low(w) | 1 << w, w - out_bits
    powers = []
    for _ in range(n * bits):
        powers.append(a >> shift)
        a <<= 1
        if a >> w:
            a ^= poly
    nlimbs = (out_bits + 63) // 64
    per_bit = limbs(powers, out_bits).reshape(n, bits, nlimbs)[::-1]  # [i, j]: bit j of symbol i
    table = np.zeros((n, alphabet_size, nlimbs), dtype=np.uint64)
    symbols = np.arange(alphabet_size)
    for j in range(bits):
        table[:, ((symbols >> j) & 1) == 1] ^= per_bit[:, j, None, :]
    return table


def limbs(values, bits: int) -> np.ndarray:
    """bits-wide ints as rows of ceil(bits/64) little-endian uint64 limbs."""
    words = [[(v >> shift) & 0xFFFF_FFFF_FFFF_FFFF for v in values] for shift in range(0, bits, 64)]
    return np.array(words, dtype=np.uint64).T


@lru_cache(maxsize=None)
def reduction_low(w: int) -> int:
    """Low terms of the degree-w reduction polynomial (x^w excluded)."""
    if w < 1:
        raise FormatError("field width must be >= 1")
    if w == 1:
        return 1
    mask = 3
    while True:
        # odd mask: x does not divide f; even popcount: (x+1) does not.
        if bin(mask).count("1") % 2 == 0 and _is_irreducible(w, mask):
            return mask
        mask += 2


def _sqr_mod(r: int, w: int, low: int) -> int:
    """Square a polynomial mod x^w + low.

    Squaring over GF(2) interleaves zero bits: the binary digits of r
    read in base 4.  Reduction exploits that low has very few terms.
    """
    r = int(format(r, "b"), 4)
    wmask = (1 << w) - 1
    while r >> w:
        hi = r >> w
        r &= wmask
        m = low
        while m:
            j = (m & -m).bit_length() - 1
            r ^= hi << j
            m &= m - 1
    return r


def _poly_gcd(a: int, b: int) -> int:
    while b:
        while a and a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


def _is_irreducible(w: int, low: int) -> bool:
    """Ben-Or's irreducibility test for f = x^w + low over GF(2).

    f is irreducible iff gcd(x^(2^i) - x, f) = 1 for every i <= w/2:
    otherwise f has a factor of degree dividing some such i.  Small
    factors, the common case, are found at small i.
    """
    f_full = (1 << w) | low
    r = 2  # the polynomial x
    for _ in range(w // 2):
        r = _sqr_mod(r, w, low)
        if _poly_gcd(f_full, r ^ 2) != 1:
            return False
    return True
