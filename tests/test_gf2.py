"""Field arithmetic and the published reduction polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkem import gf2
from corrkem._kernels import mul_table
from corrkem.errors import RegimeTooLarge
from corrkem.uhf import encode_symbols

PUBLISHED = {3: 0b0011, 4: 0b0011, 8: 0b11011, 64: 0b11011}

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
            if gf2._poly_gcd(f, g) == g:
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
    assert gf2._is_irreducible(80, low)
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
    for w in (1, 3, 4, 5, 6, 8):
        table = mul_table(w)
        n = 1 << w
        for a in range(n):
            for x in range(n):
                assert table[a, x] == gf2.mul(a, x, w)


def test_mul_vector_matches_scalar():
    # a * code of every n-symbol vector, in flat order: |X| = 1, |X| not
    # a power of two, n*bits = w, the he-micro shape and w = 62
    rng = np.random.default_rng(1)
    for nx, n, w in ((1, 3, 4), (3, 4, 11), (5, 3, 9), (16, 3, 12), (2, 10, 62), (7, 2, 62)):
        for a in (0, 1, (1 << w) - 1, *(int(rng.integers(0, 1 << w)) for _ in range(3))):
            got = gf2.mul_vector(a, n, nx, w)
            assert got.dtype == np.int64 and got.shape == (nx**n,)
            for flat, value in enumerate(got.tolist()):
                code = encode_symbols(np.unravel_index(flat, (nx,) * n), nx)
                assert value == gf2.mul(a, code, w)
    with pytest.raises(RegimeTooLarge, match="mul_vector supports 1 <= w <= 62"):
        gf2.mul_vector(1, 1, 2, 63)


def test_mul_table_width_guard():
    with pytest.raises(RegimeTooLarge, match="product table limited to 1 <= w <= 12"):
        mul_table(13)
