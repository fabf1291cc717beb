"""Field arithmetic and the published reduction polynomials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkem import gf2
from corrkem._kernels import mul_table
from corrkem.uhf import encode_symbols

PUBLISHED = {3: 0b0011, 4: 0b0011, 8: 0b11011, 64: 0b11011}


def test_published_polynomials():
    for w, low in PUBLISHED.items():
        assert gf2.reduction_low(w) == low


def _brute_irreducible(w: int, low: int) -> bool:
    # trial division by every polynomial of degree 1..w//2
    f = (1 << w) | low
    for d in range(1, w // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if gf2._poly_gcd(f, g) == g:
                return False
    return True


@pytest.mark.parametrize("w", [2, 3, 4, 5, 6, 7, 8, 10, 12, 16])
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
    with pytest.raises(ValueError):
        gf2.mul_vector(1, 1, 2, 63)


def test_mul_table_width_guard():
    with pytest.raises(ValueError):
        mul_table(13)
