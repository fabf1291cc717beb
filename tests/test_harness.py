"""Security harness: exact checks, detectors, Monte Carlo games."""

import itertools
import time
import tracemalloc

import numpy as np
import pytest

from corrkem import _kernels
from corrkem import IkemParams, JointSource, derive_params, make_table_source, reliability_params
from corrkem.errors import FormatError, RegimeTooLarge
from corrkem.gf2 import mul_vector
from corrkem.harness import games
from corrkem.harness import (
    BestGuessAdversary,
    BestGuessOtpHeAdversary,
    RandomGuessAdversary,
    RandomGuessHeAdversary,
    cea_bound_check,
    cea_transcript_sd,
    composability_check,
    composability_sd,
    correctness_mc,
    exact_challenge_sd,
    lhl_bound,
    naive_challenge_sd,
    naive_composability_sd,
    ot_bound_check,
    report_json,
    run_he_game,
    run_ikem_game,
)
from corrkem.source import avg_cond_min_entropy

from conftest import (
    cea_transcript_distribution,
    deterministic_pair_source,
    dishonest,
    he_micro_instance,
    honest_cea_instance,
    honest_ot_instance,
    leaky_uniform_source,
    random_micro_source,
)


def _micro_params(**kw):
    base = dict(n=1, t=1, ell=1, nu=2.0, eps=0.5, sigma=0.25, q_e=0, source_digest="m")
    base.update(kw)
    return IkemParams(**base)


def _uniform_x_source(nx, nz=1, z_of_x=None):
    entries = {}
    for x in range(nx):
        z = z_of_x(x) if z_of_x else 0
        entries[(x, 0, z)] = 1.0 / nx
    return make_table_source((nx, 1, nz), entries)


def test_challenge_sd_closed_forms():
    # Eve holds X itself: the real key is a function of her view, so
    # distinguishing from uniform succeeds with probability 1/2 exactly
    src = make_table_source((4, 1, 4), {(x, 0, x): 0.25 for x in range(4)})
    sd, work = exact_challenge_sd(src, _micro_params())
    assert sd == pytest.approx(0.5, abs=1e-12)
    assert work == 4 * 4 * (1 << 2) ** 2

    # full-entropy input still pays for the annihilating seeds; the
    # value below is frozen from the naive full-seed oracle
    uni = _uniform_x_source(4)
    sd2, _ = exact_challenge_sd(uni, _micro_params())
    assert sd2 == pytest.approx(0.21875, abs=1e-12)
    assert sd2 == pytest.approx(naive_challenge_sd(uni, _micro_params()), abs=1e-12)


def test_challenge_sd_matches_naive_oracle(rng):
    for _ in range(6):
        nx = int(rng.choice([2, 4]))
        nz = int(rng.integers(1, 3))
        pmf = rng.random((nx, 1, nz))
        pmf /= pmf.sum()
        src = make_table_source(
            (nx, 1, nz), {(x, 0, z): pmf[x, 0, z] for x in range(nx) for z in range(nz)}
        )
        params = _micro_params(t=int(rng.integers(1, 3)), ell=int(rng.integers(1, 3)))
        fast, _ = exact_challenge_sd(src, params)
        slow = naive_challenge_sd(src, params)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_challenge_distribution_consistent_with_sd(rng):
    # the one-time challenge is the q_e = 0 transcript: the materialized
    # joint and both streaming distances agree
    src, n = random_micro_source(rng, max_bits=4)
    params = _micro_params(n=n, t=2, ell=2)
    sd, _ = exact_challenge_sd(src, params)
    assert cea_transcript_distribution(src, params, 0) == pytest.approx(sd, abs=1e-12)
    assert cea_transcript_sd(src, params, 0)[0] == sd


def test_lhl_bound_on_random_micro_sources(rng):
    for _ in range(12):
        src, n = random_micro_source(rng)
        t = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        params = _micro_params(n=n, t=t, ell=ell)
        sd, _ = exact_challenge_sd(src, params)
        h_xz = n * avg_cond_min_entropy(src, 0, (2,))
        assert sd <= lhl_bound(t, ell, h_xz) + 1e-12


def test_ot_bound_check_pass_and_detector(rng):
    src, params = honest_ot_instance(rng)
    report = ot_bound_check(src, params)
    assert report.exact and report.passed
    assert report.bound == params.sigma

    forced = dishonest(params, sigma=max(report.advantage_estimate / 2, 1e-9))
    assert not ot_bound_check(src, forced).passed


def test_ot_bound_check_regime_guard():
    src = deterministic_pair_source()
    params = derive_params(src, 64, 0.5, 2.0**-8, 0)
    with pytest.raises(RegimeTooLarge):
        ot_bound_check(src, params)


def test_work_limit_counts_kernel_cells():
    # |X| = 16, n = 1, w = 4: every case enumerates 2^20 or 2^24 terms,
    # but the kernel's (z, seeds, tag, key) table grows with t + ell
    src = _uniform_x_source(16)
    _, work = cea_transcript_sd(src, _micro_params(t=1, ell=1, q_e=1), 1)
    assert work == 1 << 20
    with pytest.raises(RegimeTooLarge):  # 2^28 cells
        cea_transcript_sd(src, _micro_params(t=3, ell=3, q_e=1), 1)
    with pytest.raises(RegimeTooLarge):  # one-time path, w = 8: 2^32 cells
        exact_challenge_sd(_uniform_x_source(256), _micro_params(t=8, ell=8))
    # composability with X = Y uniform on 256 symbols: 2^24 terms fit,
    # the 2^(16 + 4 + 8) cells of its (z, a, g, a', k) table do not
    same = make_table_source((256, 256, 1), {(x, x, 0): 1 / 256 for x in range(256)})
    with pytest.raises(RegimeTooLarge):
        composability_sd(same, _micro_params(t=4, ell=8, nu=0.0))


def _dict_transcript_sd(tag, key, pxz, two_l, q_e):
    """Transcript SD from its definition: for each seed tuple (challenge
    tag seed, challenge key seed, then each query's tag and key seeds),
    a dict joint over views (z, challenge tag, query outputs) and
    challenge keys, against the key spread uniformly over 2^ell values."""
    na, nx = tag.shape
    total = 0.0
    for seeds in itertools.product(range(na), repeat=2 + 2 * q_e):
        joint: dict = {}
        for x in range(nx):
            view = [tag[seeds[0], x]]
            for j in range(q_e):
                view += [tag[seeds[2 + 2 * j], x], key[seeds[3 + 2 * j], x]]
            k = key[seeds[1], x]
            for z in range(pxz.shape[1]):
                keys = joint.setdefault((z, *view), {})
                keys[k] = keys.get(k, 0.0) + pxz[x, z]
        for keys in joint.values():
            u = sum(keys.values()) / two_l
            total += sum(abs(keys.get(k, 0.0) - u) for k in range(two_l))
    return 0.5 * total / na ** (2 + 2 * q_e)


@pytest.mark.parametrize("q_e, max_bits", [(0, 3), (1, 2)])
def test_cea_sd_matches_dict_definition(monkeypatch, q_e, max_bits):
    # random tables past what the w <= 2 full-seed oracle reaches at
    # q_e = 1: t, ell > 1 and several z values
    rng = np.random.default_rng(80 + q_e)
    for _ in range(4):
        na = int(rng.integers(2, 9))
        nx = int(rng.integers(1, 13))
        nz = int(rng.integers(1, 4))
        t, ell = (int(v) for v in rng.integers(1, max_bits + 1, 2))
        tag = rng.integers(0, 1 << t, (na, nx))
        key = rng.integers(0, 1 << ell, (na, nx))
        pxz = rng.random((nx, nz)) * (rng.random((nx, nz)) < 0.8)
        pxz /= pxz.sum()
        fast = _kernels.cea_sd(tag, key, pxz, t, ell, q_e)
        assert fast == pytest.approx(_dict_transcript_sd(tag, key, pxz, 1 << ell, q_e), abs=1e-12)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "BLOCK_CELLS", 8 * 16)
            assert _kernels.cea_sd(tag, key, pxz, t, ell, q_e) == pytest.approx(fast, abs=1e-12)


@pytest.mark.parametrize("t, ell, q_e", [(1, 3, 0), (2, 2, 1)])
def test_cea_sd_centred_key_blocks_match_dict_definition(monkeypatch, t, ell, q_e):
    # the key operand is centred per block of whole challenge-key groups:
    # blocks of exactly 2^ell rows, of 3 * 2^ell rows with a short last
    # block, and one block; each budget also admits a row count that is
    # not a multiple of 2^ell, so a block size without the step is caught
    rng = np.random.default_rng(90 + q_e)
    na, nx, nz, two_l = 4, 6, 3, 1 << ell
    nright = (na << ell) ** (1 + q_e)
    for _ in range(3):
        tag = rng.integers(0, 1 << t, (na, nx))
        key = rng.integers(0, 1 << ell, (na, nx))
        pxz = rng.random((nx, nz)) * (rng.random((nx, nz)) < 0.8)
        pxz /= pxz.sum()
        want = _dict_transcript_sd(tag, key, pxz, two_l, q_e)
        for cells, rows in ((8 * (nx * 2 * two_l - 1), two_l),
                            (8 * (nx * 4 * two_l - 1), 3 * two_l),
                            (_kernels.BLOCK_CELLS, nright)):
            with monkeypatch.context() as m:
                m.setattr(_kernels, "BLOCK_CELLS", cells)
                assert _kernels._block(nright, nx, two_l) == rows
                if rows == 3 * two_l:
                    assert nright % rows != 0
                assert abs(_kernels.cea_sd(tag, key, pxz, t, ell, q_e) - want) <= 1e-12


@pytest.mark.parametrize("q_e", [0, 1])
@pytest.mark.parametrize("t", [0, 1, 2])
def test_cea_sd_at_ell_1_on_sparse_patterns_matches_dict_definition(monkeypatch, t, q_e):
    # at ell = 1 the kernel multiplies the key-0 rows alone and counts them
    # twice, and each z pattern multiplies only the samples it has mass on:
    # here one pattern has mass on every sample, one on none, one on a
    # single sample and one on three of seven; in one block and in many
    rng = np.random.default_rng(100 + 10 * q_e + t)
    na, nx = 4, 7
    for _ in range(3):
        tag = rng.integers(0, 1 << t, (na, nx))
        key = rng.integers(0, 2, (na, nx))
        pxz = rng.random((nx, 4)) + 0.01
        pxz[:, 1] = 0.0
        pxz[:, 2] *= np.arange(nx) == rng.integers(nx)
        pxz[:, 3] *= rng.permutation(nx) < 3
        pxz /= pxz.sum()
        want = _dict_transcript_sd(tag, key, pxz, 2, q_e)
        assert abs(_kernels.cea_sd(tag, key, pxz, t, 1, q_e) - want) <= 1e-12
        with monkeypatch.context() as m:
            m.setattr(_kernels, "BLOCK_CELLS", 8 * 16)
            assert abs(_kernels.cea_sd(tag, key, pxz, t, 1, q_e) - want) <= 1e-12


@pytest.mark.parametrize("xbits, t, q_e", [(8, 4, 0), (4, 2, 1)])
def test_cea_sd_memory_within_budget_at_the_work_limit(xbits, t, q_e):
    # both cases fill a 2^24-cell transcript table, the most the guard admits
    from corrkem.harness.exact import _challenge_tables

    params = _micro_params(t=t, ell=t, q_e=q_e)
    tag, key, pxz = _challenge_tables(_uniform_x_source(1 << xbits), params, q_e)
    tracemalloc.start()
    try:
        _kernels.cea_sd(tag, key, pxz, t, t, q_e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _kernels.BLOCK_CELLS


def test_cea_transcript_distribution_matches_sd(rng):
    src = leaky_uniform_source(rng, 3, 1)
    params = _micro_params(t=1, ell=1, sigma=0.8, q_e=1)
    sd, _ = cea_transcript_sd(src, params, 1)
    assert cea_transcript_distribution(src, params, 1) == pytest.approx(sd, abs=1e-12)


def test_cea_qe1_matches_naive_full_seed_oracle():
    # the one-query transcript kernel against dict-based enumeration of
    # all four full (a, b) seed pairs; tolerance covers the oracle's
    # accumulation order over 2^16 seed tuples
    from corrkem.harness.exact import naive_cea_sd

    rng = np.random.default_rng(42)
    pmf = rng.random((4, 1, 2))
    pmf /= pmf.sum()
    src = make_table_source(
        (4, 1, 2), {(x, 0, z): pmf[x, 0, z] for x in range(4) for z in range(2)}
    )
    params = _micro_params(ell=1, sigma=0.5, q_e=1, nu=2.0)
    fast, _ = cea_transcript_sd(src, params, 1)
    slow = naive_cea_sd(src, params, 1)
    assert fast == pytest.approx(slow, abs=1e-10)


@pytest.mark.parametrize("xbits, leak, q_e, tol", [(2, 1, 0, 1e-12), (3, 2, 0, 1e-12), (2, 1, 1, 1e-10)])
def test_cea_matches_naive_oracle_where_z_is_a_function_of_x(xbits, leak, q_e, tol):
    # Z = the top bits of X leaves (x, z) cells with no mass, which the
    # oracle skips and the kernel drops from each z pattern's columns
    from corrkem.harness.exact import naive_cea_sd

    src = leaky_uniform_source(np.random.default_rng(7), xbits, leak, 0.03)
    assert (src.pmf.sum(axis=1) == 0.0).any()
    params = _micro_params(q_e=q_e)
    fast, _ = cea_transcript_sd(src, params, q_e)
    assert fast == pytest.approx(naive_cea_sd(src, params, q_e), abs=tol)


def test_cea_bound_check_honest_and_detector(rng):
    src, params = honest_cea_instance(rng)
    report = cea_bound_check(src, params)
    assert report.passed and report.bound == 2 * params.sigma

    # q_e = 0: the transcript is the one-time challenge, held to sigma
    src, params = honest_ot_instance(rng)
    report, ot = cea_bound_check(src, params), ot_bound_check(src, params)
    assert params.q_e == 0 and report.bound == params.sigma
    assert report.advantage_estimate == ot.advantage_estimate and report.passed == ot.passed

    # Eve knows X: SD = 1/2 for ell=1, so sigma=0.1 must be flagged
    leaky = make_table_source((4, 1, 4), {(x, 0, x): 0.25 for x in range(4)})
    crafted = _micro_params(ell=1, sigma=0.1, q_e=1)
    report = cea_bound_check(leaky, crafted)
    assert report.advantage_estimate >= 0.5 - 1e-12
    assert not report.passed


def test_composability_matches_naive_oracle(rng, monkeypatch):
    for trial in range(3):
        pmf = rng.random((2, 2, 2))
        pmf /= pmf.sum()
        src = make_table_source(
            (2, 2, 2),
            {(x, y, z): pmf[x, y, z] for x in range(2) for y in range(2) for z in range(2)},
        )
        params = _micro_params(nu=3.0, ell=1, t=1)
        fast, _ = composability_sd(src, params)
        slow = naive_composability_sd(src, params)
        assert fast == pytest.approx(slow, abs=1e-12)
        with monkeypatch.context() as m:  # blocks of one z pattern, steps of two rows
            m.setattr(_kernels, "BLOCK_CELLS", 8 * 4)
            assert composability_sd(src, params)[0] == pytest.approx(fast, abs=1e-12)


def test_composability_with_a_zero_mass_receiver_symbol_matches_naive_oracle(rng):
    # y = 2 has no mass: its column of surprisals is NaN, and every
    # receiver pattern through it must list nothing
    pmf = rng.random((2, 3, 1))
    pmf[:, 2, :] = 0.0
    pmf /= pmf.sum()
    src = JointSource((2, 3, 1), pmf)
    params = _micro_params(n=2, nu=3.0, ell=1, t=1)
    fast, _ = composability_sd(src, params)
    assert fast == pytest.approx(naive_composability_sd(src, params), abs=1e-12)


def _patterns_source(nx, ny):
    """Y uniform on ny symbols, X = Y mod nx, Z constant."""
    pmf = np.zeros((nx, ny, 1))
    pmf[np.arange(ny) % nx, np.arange(ny), 0] = 1.0 / ny
    return JointSource((nx, ny, 1), pmf)


def test_composability_lists_every_receiver_pattern_in_one_walk():
    # 2^16 receiver patterns, one x in each list, 2^24 terms: one walk over
    # (x, y) pairs lists them all, so no per-pattern work adds up
    start = time.perf_counter()
    sd, work = composability_sd(_patterns_source(16, 1 << 16), _micro_params(t=4, ell=4, nu=0.0))
    assert time.perf_counter() - start < 1.5
    assert (sd, work) == (0.882568359375, 1 << 24)


def test_composability_memory_at_2_16_receiver_patterns():
    # the (y, a, g) candidate table is int32: 2^24 cells, 64 MiB of the peak
    src = _patterns_source(16, 1 << 16)
    tracemalloc.start()
    try:
        sd, _ = composability_sd(src, _micro_params(t=4, ell=4, nu=0.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd == 0.882568359375
    assert peak < 128 << 20


def test_composability_lists_share_the_decap_budget():
    # 2^19 patterns with one listed x each: the pairs pass MAX_CANDIDATES
    start = time.perf_counter()
    with pytest.raises(RegimeTooLarge, match="candidate list exceeds"):
        composability_sd(_patterns_source(2, 1 << 19), _micro_params(t=1, ell=1, nu=0.0))
    assert time.perf_counter() - start < 1.0


def test_composability_memory_counts_only_z_patterns_with_mass(monkeypatch):
    # X = Y one bit and |Z| = 2^20.  With all mass on z = 0 the kernel's
    # (a', z, g, k) table spans the one z pattern in the support, not all
    # 2^20; with mass on every pattern it is filled in blocks of z
    # patterns.  Z says nothing about X, so both distances are 0.375
    from corrkem.harness import exact

    one_z = make_table_source((2, 2, 1 << 20), {(0, 0, 0): 0.5, (1, 1, 0): 0.5})
    pmf = np.zeros((2, 2, 1 << 20))
    pmf[0, 0] = pmf[1, 1] = 2.0**-21
    every_z = JointSource((2, 2, 1 << 20), pmf)
    params = _micro_params(nu=0.0, t=1, ell=1)
    kernel, peaks = exact.compose_sd, []

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = kernel(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(exact, "compose_sd", traced)
    sds = []
    for src in (one_z, every_z):
        tracemalloc.start()
        try:
            sds.append(composability_sd(src, params)[0])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 8 * _kernels.BLOCK_CELLS
        assert sds[-1] == pytest.approx(0.375, abs=1e-12)
    assert sds[0] == pytest.approx(naive_composability_sd(one_z, params), abs=1e-12)


def test_composability_check_deterministic_and_forced(rng):
    src, params = honest_ot_instance(rng, max_bits=4)
    report = composability_check(src, params)
    assert report.passed
    assert report.bound == params.eps + params.sigma

    forced = dishonest(params, eps=1e-9, sigma=1e-9)
    if composability_check(src, forced).advantage_estimate > 2e-9:
        assert not composability_check(src, forced).passed


def test_composability_deterministic_source_within_sigma():
    # X = Y: the failure term is inactive, SD stays within sigma
    src = make_table_source((16, 16, 2), {(x, x, x >> 3): 1 / 16 for x in range(16)})
    params = derive_params(src, 1, 0.5, 0.4, 0)
    report = composability_check(src, params)
    assert report.passed
    assert report.advantage_estimate <= params.sigma + 1e-12


def test_one_cell_source_past_64_symbols():
    # |X| = |Y| = |Z| = 1 encodes n symbols in 0 bits, so n is unbounded;
    # no step may build an array with one axis per symbol (numpy stops at 64)
    src = make_table_source((1, 1, 1), {(0, 0, 0): 1.0})
    short, long = (reliability_params(src, n, 0.5, ell=1) for n in (2, 70))
    assert composability_sd(src, long) == composability_sd(src, short)
    assert naive_composability_sd(src, long) == naive_composability_sd(src, short)
    adversary = BestGuessOtpHeAdversary(src, reliability_params(src, 70, 0.5, ell=8))
    assert adversary.prior_given_z([0] * 70).tolist() == [1.0]


def test_random_guess_adversary_near_zero(rng):
    src, params = honest_ot_instance(rng, max_bits=6)
    report = run_ikem_game(src, params, RandomGuessAdversary(), 0, 2000, seed=5)
    assert report.advantage_estimate <= 3 * np.sqrt(0.25 / 2000)
    assert report.passed


def test_omniscient_adversary_wins(rng):
    # Z = X: the Bayes-optimal adversary knows the sender sample, so it
    # wins except when the uniform key collides with the real one
    src = leaky_uniform_source(rng, 6, 6)
    params = reliability_params(src, 1, 0.5, ell=4)
    report = run_ikem_game(src, params, BestGuessAdversary(src, params), 0, 2000, seed=6)
    assert report.advantage_estimate >= 0.4
    expected = 0.5 - 2.0 ** (-params.ell - 1)
    assert report.advantage_estimate == pytest.approx(expected, abs=3 * np.sqrt(0.25 / 2000))


def test_best_guess_advantage_at_most_exact_sd(rng):
    src, params = honest_ot_instance(rng, max_bits=6)
    sd, _ = exact_challenge_sd(src, params)
    report = run_ikem_game(src, params, BestGuessAdversary(src, params), 0, 2500, seed=7)
    assert report.advantage_estimate <= sd + 3 * np.sqrt(0.25 / 2500)


def test_ikem_game_budget_enforced(rng):
    src, params = honest_cea_instance(rng)

    class Greedy(RandomGuessAdversary):
        def pre_challenge(self, rng_, z_vec, oracle):
            oracle()
            oracle()  # second query exceeds q_e = 1
            return None

    with pytest.raises(FormatError, match="more than q_e=1 encapsulation queries"):
        run_ikem_game(src, params, Greedy(), 1, 5, seed=8)


def test_ikem_game_with_legal_oracle_use(rng):
    src, params = honest_cea_instance(rng)

    class OneQuery(RandomGuessAdversary):
        def pre_challenge(self, rng_, z_vec, oracle):
            ctxt, key = oracle()  # exactly the allowed single query
            assert key.length == params.ell
            return None

    report = run_ikem_game(src, params, OneQuery(), 1, 400, seed=21)
    assert report.bound == 2 * params.sigma
    assert report.passed


def test_ikem_game_deterministic(rng):
    src, params = honest_ot_instance(rng, max_bits=5)
    a = run_ikem_game(src, params, RandomGuessAdversary(), 0, 500, seed=11)
    b = run_ikem_game(src, params, RandomGuessAdversary(), 0, 500, seed=11)
    assert a == b
    assert report_json(a)["pass"] == a.passed


def test_he_game_random_guess():
    src, params = he_micro_instance()
    report = run_he_game(
        src, params, RandomGuessHeAdversary(1), 0, 1500, seed=9, scheme_tag="OTP"
    )
    assert report.passed


@pytest.mark.parametrize("n", [1, 3, 5])
def test_posterior_prior_matches_gather_formula(n):
    rng = np.random.default_rng(n)
    pmf = rng.random((4, 1, 3))
    pmf /= pmf.sum()
    src = make_table_source((4, 1, 3), {idx: p for idx, p in np.ndenumerate(pmf)})
    adversary = BestGuessAdversary(src, _micro_params(n=n))
    digits = np.stack(np.unravel_index(np.arange(4**n), (4,) * n), axis=1)
    pxz1 = pmf.sum(axis=1)
    for _ in range(5):
        z_vec = rng.integers(0, 3, n)
        old = np.prod(pxz1[digits, z_vec[None, :]], axis=1)
        assert np.array_equal(adversary.prior_given_z(z_vec), old)


class _TrialByTrialIkem(BestGuessAdversary):
    """The Bayes-optimal key distinguisher judged one trial at a time, as
    it was before batching: its own prior and two one-seed hashes."""

    def guess(self, rng, states, ctxts, keys):
        return [self._one(z, ctxt, key_bits) for z, ctxt, key_bits in zip(states, ctxts, keys)]

    def _one(self, z, ctxt, key_bits):
        weights = self.prior_given_z(z) * (_one_seed_hash(self, ctxt.s, self.params.t) == ctxt.g)
        total = weights.sum()
        mass = weights[_one_seed_hash(self, ctxt.s_prime, self.params.ell) == key_bits].sum()
        return 0 if mass * (1 << self.params.ell) >= total else 1


class _TrialByTrialHe(BestGuessOtpHeAdversary):
    """The one-time-pad hybrid distinguisher judged one trial at a time."""

    def guess(self, rng, states, ctxts):
        return [self._one(state, ctxt) for state, ctxt in zip(states, ctxts)]

    def _one(self, state, ctxt):
        z, m0, m1 = state
        weights = self.prior_given_z(z) * (_one_seed_hash(self, ctxt.c1.s, self.params.t) == ctxt.c1.g)
        keys = _one_seed_hash(self, ctxt.c1.s_prime, self.params.ell)
        nbits = 8 * len(ctxt.c2.body)
        tops = keys >> (self.params.ell - nbits)
        body = int.from_bytes(ctxt.c2.body, "big")
        need0 = body ^ int.from_bytes(m0, "big")
        need1 = body ^ int.from_bytes(m1, "big")
        mass0 = weights[tops == need0].sum()
        mass1 = weights[tops == need1].sum()
        return 0 if mass0 >= mass1 else 1


def _one_seed_hash(adversary, seed, out_bits):
    nx, n, w = adversary.source.alphabet_sizes[0], adversary.params.n, adversary.w
    return (mul_vector([seed.a], n, nx, w, w)[0] ^ seed.b) >> (w - out_bits)


def _leaky_z_instance():
    """A non-dyadic 16x16x2 source whose Z is the top bit of X through a
    0.3 flip, Y = X with probability 0.9; n = 3 and ell = 8 (w = 12)."""
    px = np.random.default_rng(12345).random(16) + 0.5
    pyx = np.full((16, 16), 0.1 / 16) + 0.9 * np.eye(16)
    top = np.arange(16) >> 3
    pzx = np.stack([np.where(top, 0.3, 0.7), np.where(top, 0.7, 0.3)], axis=1)
    pmf = px[:, None, None] * pyx[:, :, None] * pzx[:, None, :]
    pmf /= pmf.sum()
    src = make_table_source((16, 16, 2), {idx: float(p) for idx, p in np.ndenumerate(pmf)})
    return src, reliability_params(src, 3, 0.5, ell=8)


def _advantages(src, params, he_adversary, ikem_adversary, trials):
    """Both games' advantages at seeds 1..30."""
    return (
        [run_he_game(src, params, he_adversary, 0, trials, s).advantage_estimate for s in range(1, 31)],
        [run_ikem_game(src, params, ikem_adversary, 0, trials, s).advantage_estimate for s in range(1, 31)],
    )


# |2 wins - trials| at 23 trials, seeds 1..30, judged one trial at a time
# before batching: the batch keeps every draw and every bit
_HE_MICRO_MARGINS = (
    [9, 11, 5, 9, 1, 7, 9, 5, 1, 1, 3, 3, 7, 1, 5, 5, 1, 1, 5, 1, 3, 5, 3, 3, 1, 1, 1, 7, 3, 5],
    [3, 1, 7, 1, 1, 5, 3, 1, 1, 7, 7, 1, 5, 13, 5, 1, 5, 1, 5, 1, 7, 1, 5, 1, 7, 3, 1, 3, 7, 1],
)


@pytest.mark.parametrize("instance", [he_micro_instance, _leaky_z_instance], ids=["he-micro", "leaky-z"])
def test_batched_judgement_equals_trial_by_trial(instance, monkeypatch):
    # 23 trials: not a multiple of a chunk of 3 or of the default 16
    src, params = instance()
    cells = src.alphabet_sizes[0] ** params.n
    trials = 23
    oracle = _advantages(src, params, _TrialByTrialHe(src, params), _TrialByTrialIkem(src, params), trials)
    if instance is he_micro_instance:
        assert [[round(2 * trials * adv) for adv in game] for game in oracle] == list(_HE_MICRO_MARGINS)
    he, ikem = BestGuessOtpHeAdversary(src, params), BestGuessAdversary(src, params)
    for chunk in (None, 1, 3):
        if chunk is not None:
            monkeypatch.setattr(games, "_BATCH_CELLS", chunk * cells)
        assert _advantages(src, params, he, ikem, trials) == oracle, chunk


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_guess_list_of_another_length_is_refused(extra):
    # one bit per trial: a short list must not shrink the count of wins
    src, params = he_micro_instance()

    class OffByOneHe(RandomGuessHeAdversary):
        def guess(self, rng_, states, ctxts):
            return super().guess(rng_, states, ctxts)[: len(ctxts) + extra] + [0] * extra

    class OffByOneIkem(RandomGuessAdversary):
        def guess(self, rng_, states, ctxts, keys):
            return super().guess(rng_, states, ctxts, keys)[: len(ctxts) + extra] + [0] * extra

    with pytest.raises(ValueError, match="zip"):
        run_he_game(src, params, OffByOneHe(1), 0, 5, seed=3)
    with pytest.raises(ValueError, match="zip"):
        run_ikem_game(src, params, OffByOneIkem(), 0, 5, seed=3)


def test_he_game_budget():
    src, params = he_micro_instance()

    class Greedy(RandomGuessHeAdversary):
        def choose(self, rng_, z_vec, oracle):
            oracle(b"\x00")
            return super().choose(rng_, z_vec, oracle)

    with pytest.raises(FormatError, match="more than q_e=0 encryption queries"):
        run_he_game(src, params, Greedy(1), 0, 5, seed=10)


def test_he_best_guess_within_composed_bound():
    # OTP DEM: sigma' = 0, so the composed bound is sigma + 3*sigma_mc
    src, params = he_micro_instance()
    trials = 1200
    report = run_he_game(
        src,
        params,
        BestGuessOtpHeAdversary(src, params),
        0,
        trials,
        seed=12,
        scheme_tag="OTP",
    )
    assert report.advantage_estimate <= params.sigma + 3 * np.sqrt(0.25 / trials)
    assert report.passed


def test_correctness_mc_deterministic_source():
    src = deterministic_pair_source()
    params = derive_params(src, 16, 0.5, 0.25, 0)
    report = correctness_mc(src, params, 1000, seed=13)
    assert report.advantage_estimate == 0.0
    assert report.passed


def test_correctness_detector_fires_below_bound():
    # X independent of Y, t forced near log2 |T|: collisions dominate
    from corrkem import reliability_params

    src = make_table_source(
        (4, 2, 1), {(x, y, 0): 1 / 8 for x in range(4) for y in range(2)}
    )
    honest = reliability_params(src, 2, 0.9, ell=1)
    assert honest.t >= 9  # the honest tag keeps collisions under eps
    forced = dishonest(honest, t=2, eps=0.05)
    report = correctness_mc(src, forced, 2000, seed=14)
    assert report.advantage_estimate > 0.05
    assert not report.passed
