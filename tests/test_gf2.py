"""Field arithmetic and the published reduction polynomials.

The reduction polynomials are checked against an independent oracle
kept here: the published rule, searched with Ben-Or's irreducibility
test.  ``benchmarks/bench_kernels.py`` runs it at every tabulated width.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkem import gf2
from corrkem._kernels import mul_table
from corrkem.errors import RegimeTooLarge
from corrkem.uhf import MAX_HASH_WIDTH, encode_symbols

# AES's field at w = 8, GCM's at w = 128 and NIST B-163's
PUBLISHED = {3: 0b0011, 4: 0b0011, 8: 0b11011, 64: 0b11011, 128: 0x87, 163: 0b11001001}

# low(w) for w = 1..64 as the rule gives them, and w = 280, the README
# demo width, whose polynomial fixes the walkthrough's wire bytes.
RULE = {
    1: 1, 2: 3, 3: 3, 4: 3, 5: 5, 6: 3, 7: 3, 8: 27,
    9: 3, 10: 9, 11: 5, 12: 9, 13: 27, 14: 33, 15: 3, 16: 43,
    17: 9, 18: 9, 19: 39, 20: 9, 21: 5, 22: 3, 23: 33, 24: 27,
    25: 9, 26: 27, 27: 39, 28: 3, 29: 5, 30: 3, 31: 9, 32: 141,
    33: 75, 34: 27, 35: 5, 36: 53, 37: 63, 38: 99, 39: 17, 40: 57,
    41: 9, 42: 39, 43: 89, 44: 33, 45: 27, 46: 3, 47: 33, 48: 45,
    49: 113, 50: 29, 51: 75, 52: 9, 53: 71, 54: 125, 55: 71, 56: 149,
    57: 17, 58: 99, 59: 123, 60: 3, 61: 39, 62: 105, 63: 3, 64: 27,
    280: 549,
}


# the table against the oracle: every w <= 64, GCM's 128, 256, the README demo
# width 280, 453 (among the slowest searches) and the widest field
CHECKED_WIDTHS = [*range(1, 65), 128, 256, 280, 453, 512]


def search_low(w: int) -> int:
    """low(w) by the published rule: the smallest odd mask with an even
    popcount such that x^w + mask is irreducible (low(1) = 1)."""
    if w == 1:
        return 1
    mask = 3
    while True:
        # odd mask: x does not divide f; even popcount: (x+1) does not.
        if bin(mask).count("1") % 2 == 0 and is_irreducible(w, mask):
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


def is_irreducible(w: int, low: int) -> bool:
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


def test_table_matches_the_search():
    assert len(gf2.REDUCTION_LOWS) == MAX_HASH_WIDTH == 512
    for w in CHECKED_WIDTHS:
        assert gf2.reduction_low(w) == search_low(w), w


def test_published_polynomials():
    for w, low in PUBLISHED.items():
        assert gf2.reduction_low(w) == low


def test_rule_pinned():
    for w, low in RULE.items():
        assert gf2.reduction_low(w) == low, w


def _brute_irreducible(w: int, low: int) -> bool:
    # trial division by every polynomial of degree 1..w//2
    f = (1 << w) | low
    for d in range(1, w // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _poly_gcd(f, g) == g:
                return False
    return True


@pytest.mark.parametrize("w", range(2, 17))
def test_reduction_polys_irreducible_by_trial_division(w):
    low = gf2.reduction_low(w)
    assert _brute_irreducible(w, low)
    # and no smaller valid mask works (the published rule is "smallest")
    for mask in range(3, low, 2):
        if bin(mask).count("1") % 2 == 0:
            assert not _brute_irreducible(w, mask)


def test_on_demand_width_beyond_table():
    low = gf2.reduction_low(80)
    assert is_irreducible(80, low)
    assert low % 2 == 1 and bin(low).count("1") % 2 == 0


def test_hand_multiplication_example():
    # x * x^3 = x^4 = x + 1 under x^4 + x + 1
    assert gf2.mul(0b0010, 0b1000, 4) == 0b0011


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([3, 4, 8, 13]),
    st.integers(min_value=0, max_value=2**13 - 1),
    st.integers(min_value=0, max_value=2**13 - 1),
    st.integers(min_value=0, max_value=2**13 - 1),
)
def test_field_axioms(w, a, b, c):
    mask = (1 << w) - 1
    a, b, c = a & mask, b & mask, c & mask
    assert gf2.mul(a, b, w) == gf2.mul(b, a, w)
    assert gf2.mul(a, gf2.mul(b, c, w), w) == gf2.mul(gf2.mul(a, b, w), c, w)
    assert gf2.mul(a, b ^ c, w) == gf2.mul(a, b, w) ^ gf2.mul(a, c, w)
    assert gf2.mul(a, 1, w) == a


def test_nonzero_elements_invertible():
    w = 5
    n = 1 << w
    for a in range(1, n):
        assert sorted(gf2.mul(a, x, w) for x in range(n)) == list(range(n))


def test_mul_table_matches_scalar():
    # every admitted width: all pairs up to w = 8, a seeded sample above;
    # writeable, as tests and the kernel bench plant faults in place
    for w in range(1, 13):
        table = mul_table(w)
        n = 1 << w
        assert table.dtype == np.int32 and table.shape == (n, n) and table.flags.writeable
        if w <= 8:
            a, x = np.divmod(np.arange(n * n), n)
        else:
            a, x = np.random.default_rng(w).integers(0, n, (2, 4096))
        assert table[a, x].tolist() == [gf2.mul(ai, xi, w) for ai, xi in zip(a.tolist(), x.tolist())], w


def test_mul_vector_matches_scalar():
    # a[k] * code of every n-symbol vector, one row per multiplier, in
    # flat order: |X| = 1, |X| not a power of two, n*bits = w, the
    # he-micro shape and w = 62; a batch of one and of six multipliers
    rng = np.random.default_rng(1)
    for nx, n, w in ((1, 3, 4), (3, 4, 11), (5, 3, 9), (16, 3, 12), (2, 10, 62), (7, 2, 62)):
        multipliers = [0, 1, (1 << w) - 1, *(int(rng.integers(0, 1 << w)) for _ in range(3))]
        got = gf2.mul_vector(multipliers, n, nx, w)
        assert got.dtype == np.int64 and got.shape == (len(multipliers), nx**n)
        assert np.array_equal(gf2.mul_vector(multipliers[-1:], n, nx, w), got[-1:])
        for a, row in zip(multipliers, got.tolist()):
            for flat, value in enumerate(row):
                code = encode_symbols(np.unravel_index(flat, (nx,) * n), nx)
                assert value == gf2.mul(a, code, w)


def test_mul_table_width_guard():
    with pytest.raises(RegimeTooLarge, match="product table limited to 1 <= w <= 12"):
        mul_table(13)


def _limb_value(row) -> int:
    return sum(int(v) << (64 * k) for k, v in enumerate(row))


def test_linear_table_matches_scalar_products():
    # every cell T[i, s] = msb_out(a * (s << bits*(n-1-i))), including |X| = 1
    # (no symbol bits), |X| not a power of two, and one to five limbs
    rng = np.random.default_rng(2)
    for w in (7, 64, 65, 280):
        for out_bits in sorted({b for b in (1, 63, 64, 65, w) if b <= w}):
            for nx in (1, 3, 5, 16):
                bits = (nx - 1).bit_length()
                n = max(1, min(4, w // max(1, bits)))
                a = int.from_bytes(rng.bytes(36), "big") % (1 << w)
                table = gf2.linear_table(a, w, out_bits, n, nx)
                assert table.dtype == np.uint64 and table.shape == (n, nx, (out_bits + 63) // 64)
                for i in range(n):
                    for s in range(nx):
                        want = gf2.mul(a, s << bits * (n - 1 - i), w) >> (w - out_bits)
                        assert _limb_value(table[i, s]) == want, (w, out_bits, nx, i, s)
    assert gf2.linear_table(5, 12, 12, 3, 16).flags.writeable


def test_limbs_match_shift_and_mask():
    rng = np.random.default_rng(3)
    for bits in (1, 64, 65, 280):
        values = [0, (1 << bits) - 1, *(int.from_bytes(rng.bytes(35), "big") % (1 << bits) for _ in range(4))]
        nl = (bits + 63) // 64
        want = [[(v >> (64 * k)) & ((1 << 64) - 1) for k in range(nl)] for v in values]
        got = gf2.limbs(values, bits)
        assert got.dtype == np.uint64 and got.shape == (len(values), nl)
        assert got.tolist() == want
