"""Sources, entropies, sampling."""

import numpy as np
import pytest

from corrkem import (
    avg_cond_min_entropy,
    make_table_source,
    product_source,
    sample_n,
    satellite_source,
    surprisal,
)
from corrkem.errors import CorrkemError, FormatError, RegimeTooLarge
from corrkem.ikem import source_digest
from corrkem.source import JointSource, SampleTriple, _cost_matrix


def test_make_table_source_perfect_pair():
    src = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    assert src.pmf[0, 0, 0] == 0.5
    assert src.pmf[0, 1, 0] == 0.0  # unlisted cells are zero


def test_make_table_source_rejects_bad_sum():
    with pytest.raises(FormatError, match="pmf sums to np.float64\\(0.9\\)"):
        make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.4})
    # a NaN cell makes the sum NaN, which no tolerance comparison admits
    with pytest.raises(FormatError, match="pmf sums to np.float64\\(nan\\)"):
        make_table_source((2, 2, 1), {(0, 0, 0): 1.0, (1, 1, 0): float("nan")})


def test_table_matches_satellite_construction():
    # hand-enumerated channel product for (0.1, 0.1, 0.3)
    pa, pb, pe = 0.1, 0.1, 0.3
    entries = {}
    for x in range(2):
        for y in range(2):
            for z in range(2):
                p = 0.0
                for beacon in range(2):
                    fa = pa if x != beacon else 1 - pa
                    fb = pb if y != beacon else 1 - pb
                    fe = pe if z != beacon else 1 - pe
                    p += 0.5 * fa * fb * fe
                entries[(x, y, z)] = p
    by_hand = make_table_source((2, 2, 2), entries)
    built = satellite_source(pa, pb, pe)
    np.testing.assert_array_equal(by_hand.pmf, built.pmf)  # the same products, added beacon 0 first


def test_satellite_source_bytes_are_pinned():
    # the pmf bytes (so every session digest) of the benchmark's source
    assert source_digest(satellite_source(0.05, 0.05, 0.3)) == "d2cf53228405c4bd"


def test_satellite_noiseless_and_noisy():
    clean = satellite_source(0.0, 0.0, 0.0)
    assert clean.pmf[0, 0, 0] == 0.5 and clean.pmf[1, 1, 1] == 0.5
    assert clean.pmf.sum() == 1.0

    s = satellite_source(0.1, 0.1, 0.3)
    assert s.pmf[0, 0, :].sum() + s.pmf[1, 1, :].sum() == pytest.approx(0.82)

    erased = satellite_source(0.5, 0.2, 0.3)
    pxy = erased.pmf.sum(axis=2)
    np.testing.assert_allclose(pxy, np.outer([0.5, 0.5], pxy.sum(axis=0)), atol=1e-15)

    with pytest.raises(FormatError, match="flip probability 0.6 outside \\[0, 0.5\\]"):
        satellite_source(0.6, 0.1, 0.1)


def test_sample_n_deterministic_and_correlated():
    src = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    t1 = sample_n(src, 50, seed=7)
    t2 = sample_n(src, 50, seed=7)
    np.testing.assert_array_equal(t1.x, t2.x)
    np.testing.assert_array_equal(t1.x, t1.y)  # perfectly correlated


def test_sample_triple_takes_only_integer_vectors():
    triple = SampleTriple(2, [0, 1], np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.int32))
    assert [v.tolist() for v in (triple.x, triple.y, triple.z)] == [[0, 1], [1, 0], [0, 1]]
    assert all(v.dtype == np.int64 and not v.flags.writeable for v in (triple.x, triple.y, triple.z))
    assert SampleTriple(0, [], np.array([], dtype=float), []).x.shape == (0,)  # empty: any dtype
    # floats, bools and strings were truncated or parsed into symbols
    with pytest.raises(FormatError, match="^x: symbols must be a 1-D integer vector, not float64"):
        SampleTriple(2, [0.7, 1.2], [True, False], ["0", "1"])
    bad = ([True, False], ["0", "1"], np.array([0, 1], dtype=object), None, [[0, 1]], [0, 1, 0])
    for vec in bad:
        with pytest.raises(FormatError, match="^z: (symbols must be a 1-D integer vector|sample must have n=2 symbols)"):
            SampleTriple(2, [0, 1], [0, 1], vec)
    with pytest.raises(FormatError, match="^y: not a symbol vector"):
        SampleTriple(2, [0, 1], [[0], [1, 0]], [0, 1])


def test_sample_n_law_of_large_numbers():
    src = satellite_source(0.1, 0.1, 0.3)
    t = sample_n(src, 100_000, seed=12)
    agree = float(np.mean(t.x == t.y))
    assert abs(agree - 0.82) < 0.01


def test_sample_n_marginals_within_5_sigma():
    src = satellite_source(0.05, 0.1, 0.3)
    n = 100_000
    t = sample_n(src, n, seed=3)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                p = src.pmf[x, y, z]
                hits = int(np.sum((t.x == x) & (t.y == y) & (t.z == z)))
                se = np.sqrt(n * p * (1 - p))
                assert abs(hits - n * p) <= 5 * se


def test_min_entropy_examples():
    # given = () is the min-entropy of the target coordinate alone
    uniform = JointSource((4, 1, 1), np.full((4, 1, 1), 0.25))
    assert avg_cond_min_entropy(uniform, 0, ()) == pytest.approx(2.0)
    point = make_table_source((3, 2, 1), {(1, 0, 0): 0.5, (1, 1, 0): 0.5})
    assert avg_cond_min_entropy(point, 0, ()) == pytest.approx(0.0)
    assert avg_cond_min_entropy(point, 1, ()) == pytest.approx(1.0)
    skewed = make_table_source((1, 1, 2), {(0, 0, 0): 0.82, (0, 0, 1): 0.18})
    assert avg_cond_min_entropy(skewed, 2, ()) == pytest.approx(0.28630418515, abs=1e-9)


def test_avg_cond_min_entropy_examples():
    # independent X, Y: conditioning changes nothing
    pmf = np.einsum("x,y->xy", [0.7, 0.3], [0.5, 0.5]).reshape(2, 2, 1)
    src = JointSource((2, 2, 1), pmf)
    assert avg_cond_min_entropy(src, 0, (1,)) == pytest.approx(avg_cond_min_entropy(src, 0, ()))

    det = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    assert avg_cond_min_entropy(det, 0, (1,)) == pytest.approx(0.0)

    sat = satellite_source(0.1, 0.1, 0.3)
    assert avg_cond_min_entropy(sat, 0, (1,)) == pytest.approx(0.2863041851, abs=1e-9)

    with pytest.raises(FormatError, match="target and given coordinates must be disjoint"):
        avg_cond_min_entropy(sat, 0, (0,))
    with pytest.raises(FormatError, match="coordinate 3 not in \\(0, 1, 2\\)"):
        avg_cond_min_entropy(sat, 3, (1,))


def test_conditioning_never_increases_max(rng):
    for _ in range(60):
        sizes = tuple(int(s) for s in rng.integers(1, 4, size=3))
        pmf = rng.random(sizes)
        pmf /= pmf.sum()
        src = JointSource(sizes, pmf)
        for target in range(3):
            given = tuple(c for c in range(3) if c != target)
            h_cond = avg_cond_min_entropy(src, target, given)
            h_marg = avg_cond_min_entropy(src, target, ())
            assert h_cond <= h_marg + 1e-12


def test_iid_additivity_against_product_oracle(rng):
    values = []
    for _ in range(25):
        sizes = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), 1)
        pmf = rng.random(sizes)
        pmf /= pmf.sum()
        src = JointSource(sizes, pmf)
        for n in (1, 2, 3):
            fast = n * avg_cond_min_entropy(src, 0, (1,))
            big = product_source(src, n)
            slow = avg_cond_min_entropy(big, 0, (1,))
            assert fast == pytest.approx(slow, abs=1e-9)
            values.append(fast)
    assert any(v > 0 for v in values)


def test_product_source_refuses_tables_past_the_cell_limit():
    # 2^n cells: n = 22 is the largest table built, n = 23 and a
    # 512-cell source at n = 12 (2^108 cells) are refused before allocation
    bit = make_table_source((2, 1, 1), {(0, 0, 0): 0.5, (1, 0, 0): 0.5})
    assert product_source(bit, 22).pmf.size == 1 << 22
    with pytest.raises(RegimeTooLarge):
        product_source(bit, 23)
    with pytest.raises(RegimeTooLarge):
        product_source(make_table_source((2, 16, 16), {(0, 0, 0): 1.0}), 12)


def test_iid_additivity_spec_numbers():
    sat = satellite_source(0.1, 0.1, 0.3)
    per = avg_cond_min_entropy(sat, 0, (1,))
    assert 3 * per == pytest.approx(0.8589, abs=5e-4)
    det = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    assert 7 * avg_cond_min_entropy(det, 0, (1,)) == pytest.approx(0.0)


def test_surprisal_examples():
    det = make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    assert surprisal(det, [0, 1], [0, 1]) == pytest.approx(0.0)
    assert surprisal(det, [1], [0]) == np.inf
    for x_vec, y_vec in (([0], [-1]), ([0], [2]), ([-1], [0]), ([2], [0])):
        with pytest.raises(CorrkemError):  # no wrap, no bare IndexError
            surprisal(det, x_vec, y_vec)

    half = make_table_source((2, 1, 1), {(0, 0, 0): 0.5, (1, 0, 0): 0.5})
    assert surprisal(half, [0], [0]) == pytest.approx(1.0)

    sat = satellite_source(0.1, 0.1, 0.3)
    assert surprisal(sat, [0, 0], [0, 0]) == pytest.approx(0.5726, abs=5e-4)


def test_surprisal_undefined_conditional():
    src = make_table_source((2, 2, 1), {(0, 0, 0): 1.0})
    with pytest.raises(FormatError, match="P\\(y=1\\) = 0"):
        surprisal(src, [0], [1])


def test_surprisal_table_is_cached_and_read_only():
    src = make_table_source((3, 3, 1), {(0, 0, 0): 0.3, (1, 0, 0): 0.2, (2, 1, 0): 0.5})
    table = src.surprisal_table
    assert table is src.surprisal_table  # built once per source
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    with np.errstate(divide="ignore"):
        assert table[:, :2].tolist() == (-np.log2(src.conditional_xy()[:, :2])).tolist()
    assert table[2, 0] == np.inf and table[0, 1] == np.inf  # P(x | y) = 0
    assert np.isnan(table[:, 2]).all()  # P(y = 2) = 0
    # surprisal sums the table left to right; an undefined receiver
    # symbol raises wherever it sits, also after an impossible symbol
    assert surprisal(src, [0, 1, 2], [0, 0, 1]) == (table[0, 0] + table[1, 0]) + table[2, 1]
    for x_vec, y_vec in (([2, 0], [0, 2]), ([0, 2], [2, 0])):
        with pytest.raises(FormatError, match="P\\(y=2\\) = 0"):
            surprisal(src, x_vec, y_vec)


def test_surprisal_refusal_does_not_depend_on_symbol_order():
    # P(x=1 | y=0) = 0 and P(y=2) = 0: decap's cost matrix refuses both
    # orders, and so must surprisal, the oracle decap's list is checked by
    src = make_table_source((2, 3, 1), {(0, 0, 0): 0.5, (0, 1, 0): 0.25, (1, 1, 0): 0.25})
    for x_vec, y_vec in (([1, 0], [0, 2]), ([0, 1], [2, 0]), ([1, 1, 0], [0, 1, 2])):
        with pytest.raises(FormatError, match="P\\(y=2\\) = 0"):
            surprisal(src, x_vec, y_vec)
        with pytest.raises(FormatError, match="P\\(y=2\\) = 0"):
            _cost_matrix(src, y_vec)
    assert surprisal(src, [1, 0], [0, 1]) == np.inf


def test_entropy_chain_rule_bound(rng):
    # conditioning on a variable with |B| values costs at most log2 |B|
    for _ in range(120):
        sizes = tuple(int(s) for s in rng.integers(1, 4, size=3))
        pmf = rng.random(sizes)
        pmf *= rng.random(sizes) < 0.85
        pmf.flat[int(rng.integers(0, pmf.size))] += 0.1
        pmf /= pmf.sum()
        src = JointSource(sizes, pmf)
        h_both = avg_cond_min_entropy(src, 0, (1, 2))
        h_y = avg_cond_min_entropy(src, 0, (1,))
        assert h_both >= h_y - np.log2(sizes[2]) - 1e-12


def test_per_outcome_entropy_drop_quantile(rng):
    # Pr_b[H(X|B=b) >= avg-cond - log2(1/delta)] >= 1 - delta, exactly
    for _ in range(60):
        nx, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        pmf = rng.random((nx, nb, 1))
        pmf /= pmf.sum()
        src = JointSource((nx, nb, 1), pmf)
        h_avg = avg_cond_min_entropy(src, 0, (1,))
        pxb = pmf[:, :, 0]
        pb = pxb.sum(axis=0)
        for delta in (0.5, 0.25):
            threshold = h_avg - np.log2(1.0 / delta)
            good = 0.0
            for b in range(nb):
                if pb[b] <= 0:
                    continue
                h_b = -np.log2(pxb[:, b].max() / pb[b])
                if h_b >= threshold - 1e-12:
                    good += pb[b]
            assert good >= 1.0 - delta - 1e-12
