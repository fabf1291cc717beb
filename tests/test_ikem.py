"""Encapsulation, typical-set decoding, parameter derivation."""

import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkem import (
    BOTTOM,
    IkemCiphertext,
    UhfSeed,
    decap,
    derive_lengths,
    derive_params,
    encap,
    enumerate_typical,
    hash_width,
    make_table_source,
    reliability_params,
    sample_n,
    satellite_source,
    surprisal,
)
from corrkem import gf2, wire
from corrkem.errors import FormatError, InfeasibleKeyLength, RegimeTooLarge
from corrkem.ikem import (
    CHUNK_CELLS,
    MAX_CANDIDATES,
    _PRUNE_SLACK,
    _cost_matrix,
    _walk,
    _within,
    IkemKey,
    IkemParams,
    hash_specs,
    params_digest,
    source_digest,
)
from corrkem.harness import BestGuessAdversary, BestGuessOtpHeAdversary
from corrkem.source import SampleTriple, avg_cond_min_entropy, check_symbols, sample_with_rng
from corrkem.uhf import UhfSpec, encode_symbols, hash_value, symbol_bits

from conftest import deterministic_pair_source, dishonest, leaky_uniform_source


def test_derived_length_examples():
    nu, t, _ = derive_lengths(2.0, 0.0, 0.5, 0.5, 0)
    assert (nu, t) == (8.0, 8)
    assert derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 0)[2] == 26
    assert derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 1)[2] == 5


def test_derive_params_infeasible():
    with pytest.raises(InfeasibleKeyLength):
        derive_params(satellite_source(0.05, 0.05, 0.3), 64, 0.25, 2.0**-8, 0)
    # everything known to Eve: no extractable key at any length
    xyz = make_table_source((2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    with pytest.raises(InfeasibleKeyLength):
        derive_params(xyz, 4, 0.5, 0.25, 0)


def test_derive_params_honest_invariants(rng):
    from conftest import honest_ot_instance

    for _ in range(10):
        src, params = honest_ot_instance(rng)
        h_xy = params.n * avg_cond_min_entropy(src, 0, (1,))
        h_xz = params.n * avg_cond_min_entropy(src, 0, (2,))
        assert params.nu == pytest.approx(2.0 * h_xy / params.eps)
        assert params.t >= 2.0 * h_xy / params.eps - np.log2(params.eps) - 1 - 1e-9
        assert params.ell <= h_xz - params.t + 2 * np.log2(params.sigma) + 2 + 1e-9


def test_ell_target_clamps_down():
    src = deterministic_pair_source()
    full = derive_params(src, 40, 0.5, 2.0**-8, 0)
    assert full.ell == 40 - full.t - 16 + 2
    short = derive_params(src, 40, 0.5, 2.0**-8, 0, ell_target=8)
    assert short.ell == 8
    with pytest.raises(InfeasibleKeyLength):
        derive_params(src, 40, 0.5, 2.0**-8, 0, ell_target=full.ell + 1)


def test_qe_monotonicity(rng):
    # derived ell never grows with q_e, and grows with H(X|Z)
    for leak in (0, 1, 2):
        src = leaky_uniform_source(rng, 8, leak)
        prev = None
        for q_e in (0, 1, 2):
            try:
                ell = derive_params(src, 1, 0.5, 0.9, q_e).ell
            except InfeasibleKeyLength:
                ell = 0
            if prev is not None:
                assert ell <= prev
            prev = ell


def test_length_bound_monotonicity_sweep():
    # ell non-increasing in q_e and t, non-decreasing in H(X|Z)
    for sigma in (0.9, 0.5, 0.1):
        for h_xz in (8.0, 12.0, 16.0, 24.0):
            for q_e in (0, 1, 2, 3):
                ells = [
                    derive_lengths(t_shift * 0.25, h_xz, 0.5, sigma, q_e)[2]
                    for t_shift in (0, 2, 4)
                ]
                assert ells == sorted(ells, reverse=True)
            by_q = [derive_lengths(0.0, h_xz, 0.5, sigma, q)[2] for q in (0, 1, 2, 3)]
            assert by_q == sorted(by_q, reverse=True)
        by_h = [derive_lengths(0.0, h, 0.5, 0.5, 1)[2] for h in (8.0, 12.0, 16.0, 24.0)]
        assert by_h == sorted(by_h)


def test_encap_shapes_and_determinism():
    src = deterministic_pair_source()
    params = derive_params(src, 16, 0.5, 0.25, 0)
    triple = sample_n(src, 16, seed=1)
    c1, k1 = encap(params, src, triple.x, np.random.default_rng(4))
    c2, k2 = encap(params, src, triple.x, np.random.default_rng(4))
    assert (c1, k1) == (c2, k2)
    assert k1.length == params.ell
    assert 0 <= c1.g < (1 << params.t)


def test_encap_tag_collision_rate():
    # two independent encapsulations of the same sample collide on the
    # tag with probability about 2^-t when the multipliers differ
    src = deterministic_pair_source()
    params = derive_params(src, 12, 0.5, 0.25, 0, ell_target=1)
    x = sample_n(src, 12, seed=2).x
    rng = np.random.default_rng(9)
    trials, hits = 10_000, 0
    for _ in range(trials):
        ca, _ = encap(params, src, x, rng)
        cb, _ = encap(params, src, x, rng)
        if ca.s.a != cb.s.a and ca.g == cb.g:
            hits += 1
    p = 2.0**-params.t
    se = np.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 5 * se


def test_enumerate_typical_spec_examples():
    det = deterministic_pair_source()
    got = [tuple(v) for v in enumerate_typical(det, [0, 1, 1], 0.0)]
    assert got == [(0, 1, 1)]

    sat = satellite_source(0.1, 0.1, 0.3)
    got = [tuple(v) for v in enumerate_typical(sat, [0, 0], 0.6)]
    assert got == [(0, 0)]

    # saturation: every vector with nonzero conditional probability
    src = make_table_source(
        (2, 2, 1), {(0, 0, 0): 0.4, (1, 0, 0): 0.1, (1, 1, 0): 0.5}
    )
    nu_max = 2 * surprisal(src, [1], [0])
    got = [tuple(v) for v in enumerate_typical(src, [0, 0], nu_max)]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def _random_table_source(rng, nx, ny, forced_rate=0.0):
    """Random (nx, ny, 1) source with zero cells; each y-column keeps a
    single x with probability forced_rate, so its positions are forced."""
    pmf = rng.random((nx, ny, 1)) * (rng.random((nx, ny, 1)) < 0.8)
    pmf[0, 0, 0] += 0.2
    for y in range(ny):
        if rng.random() < forced_rate:
            only = int(rng.integers(0, nx))
            pmf[:, y, 0] = 0.0
            pmf[only, y, 0] = rng.random() + 0.1
    pmf /= pmf.sum()
    return make_table_source(
        (nx, ny, 1),
        {(x, y, 0): pmf[x, y, 0] for x in range(nx) for y in range(ny)},
    )


def _brute_list(src, y_vec, nu):
    nx = src.alphabet_sizes[0]
    return [
        xv
        for xv in product(range(nx), repeat=len(y_vec))
        if surprisal(src, np.array(xv), y_vec) <= nu
    ]


def _micro_cases(rng):
    """Random micro sources (forced positions on odd trials), a receiver
    vector of defined symbols, and nu at zero, random and past
    saturation (every positive-probability vector)."""
    for trial in range(60):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        n = int(rng.integers(1, 6))
        src = _random_table_source(rng, nx, ny, forced_rate=0.4 if trial % 2 else 0.0)
        py = src.pmf.sum(axis=(0, 2))
        y_vec = np.array([int(v) for v in rng.integers(0, ny, size=n)])
        if any(py[v] <= 0 for v in y_vec):
            continue
        yield src, y_vec, (0.0, float(rng.random() * 3 * n), 1e6)


def _listed(src, y_vec, nu):
    return [tuple(v) for v in enumerate_typical(src, y_vec, nu)]


def test_enumerate_typical_matches_brute_force(rng):
    forced_seen = 0
    for src, y_vec, nus in _micro_cases(rng):
        cond = src.conditional_xy()
        forced_seen += int(((cond[:, y_vec] > 0).sum(axis=0) == 1).sum())
        for nu in nus:
            fast = _listed(src, y_vec, nu)
            assert fast == _brute_list(src, y_vec, nu)  # same set, same order
            assert len(fast) <= 2.0 ** min(nu, 64) + 1e-9  # mass bound on the list size
    assert forced_seen > 20


def test_blocks_change_no_list(rng, monkeypatch):
    # one position per block (CHUNK_CELLS = 1) is the position-by-position
    # walk; the default blocks must give the same list, in the same order
    for src, y_vec, nus in _micro_cases(rng):
        for nu in nus:
            blocks = _listed(src, y_vec, nu)
            with monkeypatch.context() as m:
                m.setattr("corrkem.ikem.CHUNK_CELLS", 1)
                assert _listed(src, y_vec, nu) == blocks


def test_walk_carries_each_leafs_tag_and_rebuilds_any_rows(rng, monkeypatch):
    # oracle: the tag of a leaf is XOR_i T[i, x_i] over its rebuilt row
    # (the _tag_by_table idiom), on whole vectors and on decap's halves
    # (n = 1 leaves the left half empty), with tags of one to three limbs;
    # the walk only prunes: _within keeps exactly the list, and any other
    # leaf lies within _PRUNE_SLACK of nu
    splits_seen = set()
    for src, y_vec, nus in _micro_cases(rng):
        n, nx = len(y_vec), src.alphabet_sizes[0]
        cost = _cost_matrix(src, y_vec)
        for t in (1, 20, 64, 65, 130):
            w = max(t, n * symbol_bits(nx))
            a = int.from_bytes(rng.bytes(17), "big") % (1 << w)
            table = gf2.linear_table(a, w, t, n, nx)
            for lo, hi in ((0, n), (0, n // 2), (n // 2, n)):
                splits_seen.add((n % 2, hi - lo))
                for nu in nus:
                    listed = _listed(src, y_vec[lo:hi], nu)
                    listed = np.array(listed, dtype=np.int64).reshape(len(listed), hi - lo)
                    for chunk in (CHUNK_CELLS, 1):
                        with monkeypatch.context() as m:
                            m.setattr("corrkem.ikem.CHUNK_CELLS", chunk)
                            walk = _walk(cost[lo:hi], nu, table[lo:hi])
                            plain = _walk(cost[lo:hi], nu, np.zeros((hi - lo, nx, 0), np.uint64))
                        rows = walk.rows(np.arange(walk.count))
                        inside = _within(cost[lo:hi], rows, nu)
                        assert np.array_equal(rows[inside], listed)
                        totals = cost[np.arange(lo, hi), rows].sum(axis=1)
                        assert (totals[~inside] <= nu + _PRUNE_SLACK).all()
                        assert np.array_equal(plain.rows(np.arange(plain.count)), rows)
                        assert plain.tags.shape == (plain.count, 0)
                        tags = np.bitwise_xor.reduce(table[np.arange(lo, hi), rows], axis=1)
                        assert walk.tags.shape == (walk.count, (t + 63) // 64)
                        assert np.array_equal(walk.tags, tags)
                        # any leaves, repeated and out of order, or none
                        subset = rng.integers(0, walk.count, size=int(rng.integers(0, 6))) if walk.count else []
                        assert np.array_equal(walk.rows(subset), rows[subset])
            # a budget below zero lists nothing, not even the empty half's empty row
            for lo, hi in ((0, n), (0, 0)):
                assert _walk(cost[lo:hi], -0.5 * _PRUNE_SLACK, table[lo:hi]).count == 0
    assert {(1, 1), (1, 0), (0, 1)} <= splits_seen
    # the forced last position's cost counts from the start: each 0.25-bit
    # detour fits alone, and no two fit together
    walk = _walk(np.array([[1.0, 1.25]] * 3 + [[1.0, 3.0]]), 4.4, np.zeros((4, 2, 0), np.uint64))
    assert walk.rows(np.arange(walk.count)).tolist() == [
        [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]
    ]


def test_enumerate_typical_with_a_tag_filters_the_list(rng, monkeypatch):
    # oracle: the whole list, filtered by each row's table XOR; same order.
    # t = 1 leaves many rows per tag, t = 65 compares a second limb
    many = 0
    for src, y_vec, nus in _micro_cases(rng):
        n, nx = len(y_vec), src.alphabet_sizes[0]
        for t in (1, 20, 65):
            w = max(t, n * symbol_bits(nx))
            table = gf2.linear_table(int.from_bytes(rng.bytes(17), "big") % (1 << w), w, t, n, nx)
            for nu in nus:
                listed = np.array(_listed(src, y_vec, nu), dtype=np.int64).reshape(-1, n)
                tags = np.bitwise_xor.reduce(table[np.arange(n), listed], axis=1)
                wants = [gf2.limbs([int(rng.integers(0, 1 << min(t, 62)))], t)]
                if len(listed):
                    wants.append(tags[int(rng.integers(0, len(listed)))][None, :])
                for want in wants:
                    expect = [tuple(r) for r, g in zip(listed, tags) if (g == want[0]).all()]
                    many += len(expect) > 1
                    for chunk in (CHUNK_CELLS, 1):
                        with monkeypatch.context() as m:
                            m.setattr("corrkem.ikem.CHUNK_CELLS", chunk)
                            got = [tuple(v) for v in enumerate_typical(src, y_vec, nu, (table, want))]
                        assert got == expect
        with pytest.raises(FormatError, match=f"n={n + 1}"):
            list(enumerate_typical(src, y_vec, 1e6, (np.concatenate([table, table[:1]]), want)))
    assert many > 20


def test_list_boundary_is_decided_by_the_surprisal_sum(rng, monkeypatch):
    # nu = surprisal(x, y) lists x and its nextafter toward -inf does not,
    # with and without a tag, in blocks and position by position; each
    # list is the brute-force filter (the tagged one filtered by tag)
    seen = 0
    for src, y_vec, _ in _micro_cases(rng):
        n, nx = len(y_vec), src.alphabet_sizes[0]
        support = [np.flatnonzero(src.conditional_xy()[:, v] > 0) for v in y_vec]
        x = np.array([int(rng.choice(s)) for s in support])
        on = surprisal(src, x, y_vec)
        w = max(20, n * symbol_bits(nx))
        table = gf2.linear_table(int.from_bytes(rng.bytes(8), "big") % (1 << w), w, 20, n, nx)
        tag_of = lambda rows: np.bitwise_xor.reduce(table[np.arange(n), np.asarray(rows)], axis=-2)
        want = tag_of(x)[None, :]
        for nu, listed in ((on, True), (float(np.nextafter(on, -np.inf)), False)):
            if nu < 0:  # x costs nothing: no nu lies below it
                continue
            brute = _brute_list(src, y_vec, nu)
            tagged = [xv for xv in brute if (tag_of(xv) == want[0]).all()]
            assert (tuple(x) in brute) == listed and (tuple(x) in tagged) == listed
            for chunk in (CHUNK_CELLS, 1):
                with monkeypatch.context() as m:
                    m.setattr("corrkem.ikem.CHUNK_CELLS", chunk)
                    assert _listed(src, y_vec, nu) == brute
                    got = [tuple(v) for v in enumerate_typical(src, y_vec, nu, (table, want))]
                    assert got == tagged
        seen += on > 0
    assert seen > 20


def test_long_vector_with_forced_positions_matches_product_oracle(monkeypatch):
    # y = 0 forces x = 0, y = 1 forces x = 2, y = 2 is noisy over {0, 1}:
    # at n = 80 the 12 noisy positions sit among 68 forced ones, and a
    # block spans forced positions without giving them an array axis
    # (numpy arrays have at most 64)
    src = make_table_source(
        (3, 3, 1), {(0, 0, 0): 0.3, (2, 1, 0): 0.3, (0, 2, 0): 0.25, (1, 2, 0): 0.15}
    )
    rng = np.random.default_rng(80)
    y_vec = rng.integers(0, 2, size=80)
    y_vec[rng.choice(80, size=12, replace=False)] = 2
    support = [np.flatnonzero(src.conditional_xy()[:, v] > 0) for v in y_vec]
    every = {x: surprisal(src, np.array(x), y_vec) for x in product(*support)}
    assert len(every) == 1 << 12
    for nu in (0.0, 8.5, 10.0, 12.0, 1e6):
        oracle = [x for x, cost in every.items() if cost <= nu]  # lexicographic
        assert _listed(src, y_vec, nu) == oracle
        with monkeypatch.context() as m:
            m.setattr("corrkem.ikem.CHUNK_CELLS", 1)
            assert _listed(src, y_vec, nu) == oracle
    assert 0 < len([x for x, cost in every.items() if cost <= 10.0]) < 1 << 12


class _OuterSpy:
    """Stands in for numpy inside corrkem.ikem and records the shape of
    every outer sum the enumeration builds."""

    def __init__(self):
        self.shapes = []
        self.add = self

    def outer(self, a, b):
        out = np.add.outer(a, b)
        self.shapes.append(out.shape)
        return out

    def __getattr__(self, name):
        return getattr(np, name)


def test_blocks_keep_the_candidate_budget(monkeypatch):
    # with MAX_CANDIDATES below CHUNK_CELLS, no block's outer sum spans
    # more cells than MAX_CANDIDATES, and the budget fires at the same
    # position as with one position per block
    budget = 1 << 6
    assert budget < CHUNK_CELLS
    monkeypatch.setattr("corrkem.ikem.MAX_CANDIDATES", budget)
    src = satellite_source(0.05, 0.05, 0.3)
    y = sample_n(src, 12, seed=1).y
    outcomes, deepest = set(), 0
    for n in range(1, 13):
        for nu in (2.0, 5.0, 1e6):
            results = []
            for chunk in (CHUNK_CELLS, 1):
                spy = _OuterSpy()
                with monkeypatch.context() as m:
                    m.setattr("corrkem.ikem.np", spy)
                    m.setattr("corrkem.ikem.CHUNK_CELLS", chunk)
                    try:
                        results.append(_listed(src, y[:n], nu))
                    except RegimeTooLarge as err:
                        results.append(str(err))  # names the position
                assert all(np.prod(shape) <= budget for shape in spy.shapes)
                deepest = max([deepest] + [len(shape) - 1 for shape in spy.shapes])
            assert results[0] == results[1]
            outcomes.add(type(results[0]))
    assert outcomes == {list, str}  # both lists and refusals were seen
    assert deepest >= 3  # and blocks of several positions


def test_cost_matrix_refuses_undefined_receiver_symbol():
    src = make_table_source((2, 3, 1), {(0, 0, 0): 0.5, (1, 0, 0): 0.25, (1, 1, 0): 0.25})
    cost = _cost_matrix(src, [1, 0])
    assert cost.tolist() == [[np.inf, 0.0], [-np.log2(2 / 3), -np.log2(1 / 3)]]
    with pytest.raises(FormatError, match="P\\(y=2\\) = 0"):
        _cost_matrix(src, [0, 2])


def test_hostile_nu_hits_candidate_budget(monkeypatch):
    # a params file with a huge nu asks for all 2^40 vectors: the
    # enumeration stops at MAX_CANDIDATES, quickly and in bounded memory
    src = satellite_source(0.05, 0.05, 0.3)
    params = IkemParams(
        n=40, t=20, ell=8, nu=1e6, eps=0.5, sigma=0.5, q_e=0, source_digest=source_digest(src)
    )
    triple = sample_n(src, 40, seed=1)
    ctxt, _ = encap(params, src, triple.x, np.random.default_rng(2))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(RegimeTooLarge):
            decap(params, src, triple.y, ctxt)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 64 * MAX_CANDIDATES  # a few arrays of one level, not |X|^n rows
    # a list of exactly the budget is still enumerated; one more level is not
    monkeypatch.setattr("corrkem.ikem.MAX_CANDIDATES", 1 << 10)
    assert sum(1 for _ in enumerate_typical(src, triple.y[:10], 1e6)) == 1 << 10
    with pytest.raises(RegimeTooLarge):
        next(enumerate_typical(src, triple.y[:11], 1e6))


def _tag_by_table(tspec, seed, x, nx):
    table = gf2.linear_table(seed.a, tspec.input_bits, tspec.output_bits, len(x), nx)
    limbs = np.bitwise_xor.reduce(table[np.arange(len(x)), x], axis=0)
    value = sum(int(v) << (64 * k) for k, v in enumerate(limbs))
    return value ^ (seed.b >> (tspec.input_bits - tspec.output_bits))


@st.composite
def _tag_cases(draw):
    nx = draw(st.sampled_from([2, 3, 5, 16]))
    bits = symbol_bits(nx)
    n = draw(st.integers(1, 280 // bits))
    t = draw(st.sampled_from([1, 20, 63, 64, 65, 130]))
    w = min(280, max(n * bits, t) + draw(st.integers(0, 8)))
    a = draw(st.integers(0, (1 << w) - 1))
    b = draw(st.integers(0, (1 << w) - 1))
    x = draw(st.lists(st.integers(0, nx - 1), min_size=n, max_size=n))
    return UhfSpec(w, t), UhfSeed(a, b), np.array(x, dtype=np.int64), nx


@settings(max_examples=300, deadline=None)
@given(_tag_cases())
def test_tag_table_matches_hash_value(case):
    # the table-XOR tag is the hash of the packed code, by linearity of
    # a*x over GF(2); w up to 280 and t past one 64-bit limb
    tspec, seed, x, nx = case
    code = encode_symbols(x, nx)
    assert _tag_by_table(tspec, seed, x, nx) == hash_value(tspec, seed, code)


def test_decap_matches_brute_force_oracle(rng):
    # oracle: filter all |X|^n vectors by surprisal, hash every survivor
    # with hash_value, and keep the key of a unique tag match; odd and
    # even n split unevenly and evenly, and a nu equal to one vector's
    # surprisal puts a candidate exactly on the boundary
    outcomes = {"key": 0, "no match": 0, "ambiguous": 0}
    ns_seen = set()
    for trial in range(160):
        n = int(rng.integers(1, 8))
        nx = int(rng.choice([a for a in (2, 3, 5) if a**n <= 3125]))
        ny = int(rng.integers(1, 4))
        src = _random_table_source(rng, nx, ny, forced_rate=0.3)
        py = src.pmf.sum(axis=(0, 2))
        y_vec = rng.choice(np.flatnonzero(py > 0), size=n)
        typical = np.array([rng.choice(nx, p=src.conditional_xy()[:, v]) for v in y_vec])
        boundary = surprisal(src, typical, y_vec)
        nu = float(rng.choice([0.0, rng.random() * 2 * n, 1e6, boundary]))
        t = int(rng.choice([1, 2, 4, 20, 65]))
        params = IkemParams(
            n=n, t=t, ell=int(rng.integers(1, 9)), nu=nu, eps=0.5, sigma=0.5,
            q_e=0, source_digest=source_digest(src),
        )
        tspec, kspec = hash_specs(src, params)
        cands = _brute_list(src, y_vec, nu)
        if cands and rng.random() < 0.8:
            x = np.array(cands[int(rng.integers(len(cands)))])
        else:
            x = rng.integers(0, nx, size=n)
        ctxt, _ = encap(params, src, x, rng)
        # the true tag, then its lowest and its highest bit flipped (at
        # t = 65 the highest bit is alone in the second 64-bit limb)
        for g in (ctxt.g, ctxt.g ^ 1, ctxt.g ^ (1 << (t - 1))):
            matches = [
                code
                for code in (encode_symbols(c, nx) for c in cands)
                if hash_value(tspec, ctxt.s, code) == g
            ]
            got = decap(params, src, y_vec, IkemCiphertext(g, ctxt.s_prime, ctxt.s))
            if len(matches) == 1:
                assert got == IkemKey(hash_value(kspec, ctxt.s_prime, matches[0]), params.ell)
                outcomes["key"] += 1
            else:
                assert got is BOTTOM
                outcomes["no match" if not matches else "ambiguous"] += 1
        ns_seen.add(n)
    assert min(outcomes.values()) > 10, outcomes
    assert ns_seen == set(range(1, 8))


def test_decap_keeps_candidates_on_the_nu_boundary(rng):
    # nu is the sender's own surprisal, summed left to right: x sits
    # exactly on the list's boundary, so decap must return its key; at
    # n >= 8 a pairwise or per-half sum can round past nu
    for trial in range(60):
        n = int(rng.integers(8, 15))
        src = _random_table_source(rng, 3, 3)
        py = src.pmf.sum(axis=(0, 2))
        y_vec = rng.choice(np.flatnonzero(py > 0), size=n)
        x = np.array([rng.choice(3, p=src.conditional_xy()[:, v]) for v in y_vec])
        params = IkemParams(
            n=n, t=48, ell=8, nu=surprisal(src, x, y_vec), eps=0.5, sigma=0.5,
            q_e=0, source_digest=source_digest(src),
        )
        ctxt, key = encap(params, src, x, rng)
        got = decap(params, src, y_vec, ctxt)
        assert got == key, (trial, n)


def _straddling_cases():
    """Every (multiplier, tag) of a hand-built n = 4 instance, by its
    number of matches: Y = X through a binary channel with flip rate
    0.25, y = 0110, and nu = 5 admits the vectors within two flips of y
    (a flip costs 2 bits, a kept symbol 0.415): 11 candidates, 8 tags.
    A match "straddles" the split at h = 2 when it differs from y on
    both halves."""
    src = make_table_source(
        (2, 2, 1),
        {(0, 0, 0): 0.375, (1, 0, 0): 0.125, (0, 1, 0): 0.125, (1, 1, 0): 0.375},
    )
    y_vec = np.array([0, 1, 1, 0])
    nu = 5.0
    cands = [c for c in product((0, 1), repeat=4) if sum(a != b for a, b in zip(c, y_vec)) <= 2]
    assert [tuple(v) for v in enumerate_typical(src, y_vec, nu)] == cands
    params = IkemParams(
        n=4, t=3, ell=4, nu=nu, eps=0.5, sigma=0.5, q_e=0, source_digest=source_digest(src)
    )
    tspec, _ = hash_specs(src, params)
    assert tspec.input_bits == 4
    for a in range(16):
        seed = UhfSeed(a, 0b1010)
        by_tag = {}
        for c in cands:
            by_tag.setdefault(hash_value(tspec, seed, encode_symbols(c, 2)), []).append(c)
        for g in range(8):
            yield src, y_vec, params, seed, g, by_tag.get(g, [])


def _straddles(c, y_vec):
    diff = np.asarray(c) != y_vec
    return bool(diff[:2].any() and diff[2:].any())


def test_decap_hand_built_lists_with_zero_one_and_many_matches():
    seen = {"none": 0, "one straddling": 0, "many straddling": 0}
    for src, y_vec, params, seed, g, matched in _straddling_cases():
        ctxt = IkemCiphertext(g, UhfSeed(3, 5), seed)
        got = decap(params, src, y_vec, ctxt)
        if len(matched) == 1:
            code = encode_symbols(matched[0], 2)
            assert got == IkemKey(hash_value(hash_specs(src, params)[1], ctxt.s_prime, code), 4)
            seen["one straddling"] += _straddles(matched[0], y_vec)
        else:
            assert got is BOTTOM
            if not matched:
                seen["none"] += 1
            else:
                seen["many straddling"] += sum(_straddles(c, y_vec) for c in matched) >= 2
    assert min(seen.values()) >= 3, seen


def test_dishonest_t_hits_join_bound():
    # t = 1 instead of the derived 29 at n = 24: the two half-lists of
    # about 3300 rows agree on the tag in millions of pairs, so decap
    # refuses before materialising them
    src = satellite_source(0.05, 0.05, 0.3)
    params = dishonest(reliability_params(src, n=24, eps=0.25, ell=8), t=1)
    triple = sample_n(src, 24, seed=3)
    ctxt, _ = encap(params, src, triple.x, np.random.default_rng(4))
    start = time.perf_counter()
    with pytest.raises(RegimeTooLarge, match="pairs"):
        decap(params, src, triple.y, ctxt)
    assert time.perf_counter() - start < 1.0


def test_decap_roundtrip_and_tamper():
    src = deterministic_pair_source()
    params = derive_params(src, 24, 0.5, 0.25, 0)
    triple = sample_n(src, 24, seed=5)
    rng = np.random.default_rng(6)
    ctxt, key = encap(params, src, triple.x, rng)
    assert decap(params, src, triple.y, ctxt) == key

    bad = IkemCiphertext(ctxt.g ^ 1, ctxt.s_prime, ctxt.s)
    assert decap(params, src, triple.y, bad) is BOTTOM


def test_decap_output_is_key_or_bottom():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=6, eps=0.3, ell=5)
    rng = np.random.default_rng(11)
    seen_bottom = False
    for trial in range(200):
        triple = sample_n(src, 6, seed=trial)
        ctxt, key = encap(params, src, triple.x, rng)
        got = decap(params, src, triple.y, ctxt)
        if got is BOTTOM:
            seen_bottom = True
        else:
            assert got.length == params.ell
    assert seen_bottom or True  # failure is allowed, never required


def test_decap_validates_lengths():
    src = deterministic_pair_source()
    params = derive_params(src, 8, 0.5, 0.25, 0)
    triple = sample_n(src, 8, seed=3)
    ctxt, _ = encap(params, src, triple.x, np.random.default_rng(1))
    with pytest.raises(FormatError, match="sample must have n=8 symbols"):
        decap(params, src, triple.y[:4], ctxt)
    with pytest.raises(FormatError, match="tag wider than t bits"):
        decap(params, src, triple.y, IkemCiphertext(1 << params.t, ctxt.s_prime, ctxt.s))
    # out-of-alphabet receiver symbols: -1 must not wrap to the last
    # symbol through numpy indexing, |Y| must not raise a bare IndexError
    for bad in (-1, 2):
        y_vec = triple.y.copy()
        y_vec[0] = bad
        with pytest.raises(FormatError, match="outside alphabet of 2"):
            decap(params, src, y_vec, ctxt)


# One corpus of bad 4-symbol vectors over binary alphabets, each with the
# part of the rule it breaks: its type, its range or its length.
_MALFORMED_SYMBOLS = {
    "float": ([0.7, 1.2, 0, 1], "type"),
    "bool": ([True, False, True, True], "type"),
    "mixed-bool": ([True, 0, 1, 1], "type"),
    "str": (["0", "1", "0", "1"], "type"),
    "none": (None, "type"),
    "2-D": ([[0, 1], [0, 1]], "type"),
    "ragged": ([[0, 1], [0], 1, 0], "type"),
    "negative": ([0, -1, 0, 1], "range"),
    "outside": ([0, 2, 0, 1], "range"),
    "short": ([0, 1, 0], "length"),
}


@pytest.mark.parametrize("bad, breaks", _MALFORMED_SYMBOLS.values(), ids=_MALFORMED_SYMBOLS.keys())
def test_malformed_symbol_vectors_are_format_errors(bad, breaks, tmp_path):
    # no silent int64 truncation of floats or bools, no negative-index
    # wrap, no bare TypeError, ValueError or IndexError: every entry point
    # that takes a symbol vector checks it with check_symbols
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, 4, 0.25, ell=8)
    good = [0, 1, 0, 1]
    ctxt, _ = encap(params, src, good, np.random.default_rng(1))
    sample = tmp_path / "bob.json"
    wire.save_json(sample, {"role": "bob", "digest": params_digest(params).hex(), "symbols": bad})
    calls = {
        "check_symbols": lambda: check_symbols(bad, 2, 4),
        "encode_symbols": lambda: encode_symbols(bad, 2, 4),
        "surprisal x": lambda: surprisal(src, bad, good),
        "surprisal y": lambda: surprisal(src, good, bad),
        "encap": lambda: encap(params, src, bad, np.random.default_rng(1)),
        "decap": lambda: decap(params, src, bad, ctxt),
        "load_sample": lambda: wire.load_sample(sample, params, src, "bob"),
        "BestGuessAdversary.pre_challenge":
            lambda: BestGuessAdversary(src, params).pre_challenge(None, bad, None),
        "BestGuessOtpHeAdversary.choose":
            lambda: BestGuessOtpHeAdversary(src, params).choose(None, bad, None),
    }
    if breaks != "length":  # the list's own length is its n
        calls["enumerate_typical"] = lambda: list(enumerate_typical(src, bad, params.nu))
    if breaks != "range":  # SampleTriple does not know the alphabets
        calls["SampleTriple"] = lambda: SampleTriple(4, good, good, bad)
    for name, call in calls.items():
        with pytest.raises(FormatError):
            call()
            pytest.fail(f"{name} accepted {bad!r}")


def test_integer_symbol_vectors_of_any_width_are_accepted():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, 4, 0.25, ell=8)
    want_x, want_y = np.array([0, 1, 0, 1]), np.array([0, 1, 1, 1])
    ctxt, key = encap(params, src, want_x, np.random.default_rng(1))
    listed = [row.tolist() for row in enumerate_typical(src, want_y, params.nu)]
    for make in (list, lambda v: v.astype(np.uint8), lambda v: v.astype(np.int32)):
        x, y = make(want_x), make(want_y)
        assert encap(params, src, x, np.random.default_rng(1)) == (ctxt, key)
        assert decap(params, src, y, ctxt) == decap(params, src, want_y, ctxt)
        assert [row.tolist() for row in enumerate_typical(src, y, params.nu)] == listed
        assert surprisal(src, x, y) == surprisal(src, want_x, want_y)
        assert encode_symbols(x, 2) == encode_symbols(want_x, 2)
    assert [row.tolist() for row in enumerate_typical(src, [], 0.0)] == [[]]  # n = 0


@pytest.mark.parametrize("field", ["nu", "eps", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_non_finite(field, value):
    # a NaN nu never prunes: decap would walk all |X|^n candidates
    fields = dict(n=8, t=4, ell=2, nu=3.0, eps=0.5, sigma=0.25, q_e=0, source_digest="d")
    fields[field] = value
    with pytest.raises(FormatError, match="nu, eps and sigma must be finite"):
        IkemParams(**fields)


def test_roundtrip_exhaustive_micro():
    # whenever x is in the candidate list and no other candidate shares
    # its tag, decapsulation must return the encapsulated key: checked
    # over all (x, y) pairs and every tag seed of a tiny instance
    pmf = {
        (0, 0, 0): 0.35,
        (1, 1, 0): 0.3,
        (1, 0, 0): 0.1,
        (0, 1, 0): 0.05,
        (2, 2, 0): 0.2,
    }
    src = make_table_source((3, 3, 1), pmf)
    params = IkemParams(
        n=2, t=2, ell=2, nu=5.0, eps=0.5, sigma=0.25, q_e=0, source_digest="m"
    )
    w = hash_width(src, params)
    assert w == 4
    tspec, kspec = hash_specs(src, params)
    s_prime = UhfSeed(0b0110, 0b1011)
    pxy = src.pmf.sum(axis=2)
    for y_pair in product(range(3), repeat=2):
        y_vec = np.array(y_pair)
        cands = [tuple(v) for v in enumerate_typical(src, y_vec, params.nu)]
        for x_pair in product(range(3), repeat=2):
            if pxy[x_pair[0], y_pair[0]] * pxy[x_pair[1], y_pair[1]] == 0:
                continue
            if tuple(x_pair) not in cands:
                continue
            code = encode_symbols(np.array(x_pair), 3, params.n)
            for a in range(1 << w):
                for b in range(0, 1 << w, 5):  # stride the mask, it cancels
                    seed = UhfSeed(a, b)
                    g = hash_value(tspec, seed, code)
                    others = [
                        c
                        for c in cands
                        if c != tuple(x_pair)
                        and hash_value(tspec, seed, encode_symbols(np.array(c), 3, params.n)) == g
                    ]
                    if others:
                        continue
                    ctxt = IkemCiphertext(g, s_prime, seed)
                    got = decap(params, src, y_vec, ctxt)
                    assert got is not BOTTOM
                    assert got.bits == hash_value(kspec, s_prime, code)


@pytest.mark.parametrize("n, trials", [(8, 3000), (16, 1000), (24, 1000)], ids=["n8", "n16", "n24"])
def test_decap_failure_rate_within_eps(n, trials):
    # the lists hold 2517 candidates at n = 16 and 536155 at n = 24
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=n, eps=0.25, ell=8)
    rng = np.random.default_rng(13)
    failures = 0
    for _ in range(trials):
        triple = sample_with_rng(src, n, rng)
        ctxt, key = encap(params, src, triple.x, rng)
        got = decap(params, src, triple.y, ctxt)
        if got is BOTTOM or got != key:
            failures += 1
    rate = failures / trials
    assert rate <= 0.25 + 3 * np.sqrt(0.25 * 0.75 / trials)


def test_hash_width_covers_tag_and_key():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=8, eps=0.25, ell=8)
    assert params.t == 11
    assert hash_width(src, params) == 11  # t exceeds the 8 encoded bits
