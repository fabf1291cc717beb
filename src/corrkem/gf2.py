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

Widths 1..64 are frozen in ``_LOW_TABLE``; larger widths are searched on
demand (and cached), so arbitrarily long inputs can be hashed.
"""

from functools import lru_cache, reduce

import numpy as np

# low(w) for w = 1..64, precomputed with the rule above.
_LOW_TABLE = {
    1: 1, 2: 3, 3: 3, 4: 3, 5: 5, 6: 3, 7: 3, 8: 27,
    9: 3, 10: 9, 11: 5, 12: 9, 13: 27, 14: 33, 15: 3, 16: 43,
    17: 9, 18: 9, 19: 39, 20: 9, 21: 5, 22: 3, 23: 33, 24: 27,
    25: 9, 26: 27, 27: 39, 28: 3, 29: 5, 30: 3, 31: 9, 32: 141,
    33: 75, 34: 27, 35: 5, 36: 53, 37: 63, 38: 99, 39: 17, 40: 57,
    41: 9, 42: 39, 43: 89, 44: 33, 45: 27, 46: 3, 47: 33, 48: 45,
    49: 113, 50: 29, 51: 75, 52: 9, 53: 71, 54: 125, 55: 71, 56: 149,
    57: 17, 58: 99, 59: 123, 60: 3, 61: 39, 62: 105, 63: 3, 64: 27,
}


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
    if not 1 <= w <= 62:
        raise ValueError("mul_vector supports 1 <= w <= 62")
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
    poly, shift = (1 << w) | reduction_low(w), w - out_bits
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
        raise ValueError("field width must be >= 1")
    got = _LOW_TABLE.get(w)
    if got is not None:
        return got
    mask = 3
    while True:
        # odd mask: x does not divide f; even popcount: (x+1) does not.
        if bin(mask).count("1") % 2 == 0 and _is_irreducible(w, mask):
            return mask
        mask += 2


@lru_cache(maxsize=16)
def _spread_masks(w: int):
    """Mask cascade spreading a w-bit value to alternating positions."""
    w2 = 1
    while w2 < w:
        w2 *= 2
    out = []
    shift = w2 // 2
    while shift >= 1:
        block = (1 << shift) - 1
        mask = 0
        pos = 0
        while pos < 2 * w2:
            mask |= block << pos
            pos += 2 * shift
        out.append((shift, mask))
        shift //= 2
    return tuple(out)


def _sqr_mod(r: int, w: int, low: int) -> int:
    """Square a polynomial mod x^w + low.

    Squaring over GF(2) just interleaves zero bits; reduction exploits
    that low has very few terms.
    """
    for shift, mask in _spread_masks(w):
        r = (r | (r << shift)) & mask
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


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(w: int, low: int) -> bool:
    """Rabin irreducibility test for f = x^w + low over GF(2).

    f is irreducible iff x^(2^w) = x (mod f) and, for every prime p
    dividing w, gcd(x^(2^(w/p)) - x, f) = 1.  Early gcd checks at
    i <= 4 cheaply reject candidates with small factors (an irreducible
    f of degree w > 4 always passes them).
    """
    if w == 1:
        return low == 1
    f_full = (1 << w) | low
    checkpoints = {w // p for p in _prime_divisors(w)}
    checkpoints |= {i for i in (1, 2, 3, 4) if i < w}
    r = 2  # the polynomial x
    for i in range(1, w + 1):
        r = _sqr_mod(r, w, low)
        if i in checkpoints and _poly_gcd(f_full, r ^ 2) != 1:
            return False
    return r == 2
