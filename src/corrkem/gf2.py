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

from .errors import FormatError


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
    once: the powers of each multiplier stacked into one array, the
    per-symbol select-and-XOR across the multipliers, then the XOR outer
    chain over the symbols.  Needs 1 <= w <= 62, so that every product
    fits int64: the caller's check, as the posterior adversaries' check_z
    refuses a wider hash.
    """
    bits = (alphabet_size - 1).bit_length()
    powers = np.ascontiguousarray(np.array([_powers(x, w, n * bits, 0) for x in a], np.uint64).T)  # [j, k]
    table = _select_xor(powers.reshape(n, bits, len(a))[::-1], alphabet_size).view(np.int64)  # [i, s, k]
    # last symbol first, so each step's inner loop runs over the longer suffix
    return reduce(lambda c, d: (d[:, :, None] ^ c[:, None, :]).reshape(len(a), -1), table.transpose(0, 2, 1)[::-1])


def linear_table(a: int, w: int, out_bits: int, n: int, alphabet_size: int) -> np.ndarray:
    """T[i, s] = msb_out(a * (s << bits*(n-1-i))) as little-endian uint64
    limbs, shape (n, |X|, ceil(out_bits/64)), with bits = ceil(log2 |X|).

    The field product is GF(2)-linear in the packed code, so a * code
    of any n-symbol vector x is XOR_i T[i, x_i] (then truncated).  The
    n*bits products a * x^j, each one shift-and-reduce from the last,
    are XORed per symbol value by one select-and-reduce.
    """
    bits = (alphabet_size - 1).bit_length()
    nlimbs = (out_bits + 63) // 64
    per_bit = limbs(_powers(a, w, n * bits, w - out_bits), out_bits).reshape(n, bits, nlimbs)[::-1]
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
    where per_bit[i, j] is the product for bit j of symbol i."""
    sel = ((np.arange(alphabet_size)[:, None] >> np.arange(per_bit.shape[1])) & 1).astype(np.uint64)  # [s, j]
    return np.bitwise_xor.reduce(per_bit[:, None] * sel[:, :, None], axis=2)


def limbs(values, bits: int) -> np.ndarray:
    """bits-wide ints as rows of ceil(bits/64) little-endian uint64 limbs."""
    nl = (bits + 63) // 64
    return np.frombuffer(b"".join(v.to_bytes(8 * nl, "little") for v in values), "<u8").reshape(-1, nl)


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
