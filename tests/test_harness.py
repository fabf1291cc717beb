"""Security harness: exact checks, detectors, Monte Carlo games."""

import numpy as np
import pytest

from corrkem import IkemParams, derive_params, make_table_source, statistical_distance
from corrkem._kernels import IMPLEMENTATIONS, mul_table
from corrkem.errors import QueryBudgetExceeded, RegimeTooLarge
from corrkem.harness import (
    BestGuessAdversary,
    BestGuessOtpHeAdversary,
    OmniscientAdversary,
    RandomGuessAdversary,
    RandomGuessHeAdversary,
    cea_bound_check,
    cea_transcript_distribution,
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
    true_d, ref_d = cea_transcript_distribution(src, params, 0)
    assert statistical_distance(true_d, ref_d) == pytest.approx(sd, abs=1e-12)
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


def test_cea_transcript_distribution_matches_sd(rng):
    src = leaky_uniform_source(rng, 3, 1)
    params = _micro_params(t=1, ell=1, sigma=0.8, q_e=1)
    sd, _ = cea_transcript_sd(src, params, 1)
    true_d, ref_d = cea_transcript_distribution(src, params, 1)
    assert statistical_distance(true_d, ref_d) == pytest.approx(sd, abs=1e-12)


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


def test_cea_bound_check_honest_and_detector(rng):
    src, params = honest_cea_instance(rng)
    report = cea_bound_check(src, params)
    assert report.passed and report.bound == 2 * params.sigma

    # Eve knows X: SD = 1/2 for ell=1, so sigma=0.1 must be flagged
    leaky = make_table_source((4, 1, 4), {(x, 0, x): 0.25 for x in range(4)})
    crafted = _micro_params(ell=1, sigma=0.1, q_e=1)
    report = cea_bound_check(leaky, crafted)
    assert report.advantage_estimate >= 0.5 - 1e-12
    assert not report.passed


def test_composability_matches_naive_oracle(rng):
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


def test_backend_implementations_agree(rng):
    # every kernel: jitted loop, plain loop, and vectorized numpy
    prod = mul_table(2)
    census = {key: fn(prod, 2, 1) for key, fn in IMPLEMENTATIONS["census_max_dev"].items()}
    assert len({int(v) for v in census.values()}) == 1

    src, n = random_micro_source(rng, max_bits=3)
    params = _micro_params(n=n, t=1, ell=2)
    from corrkem.harness.exact import _challenge_tables

    for q_e in (0, 1):
        tag, key, pxz = _challenge_tables(src, params, q_e)
        vals = {k: fn(tag, key, pxz, 1, 2, q_e) for k, fn in IMPLEMENTATIONS["cea_sd"].items()}
        ref = vals["numpy"]
        for k, v in vals.items():
            assert v == pytest.approx(ref, abs=1e-12), (k, q_e)


def test_compose_kernel_backends_agree(rng, monkeypatch):
    pmf = rng.random((2, 2, 2))
    pmf /= pmf.sum()
    src = make_table_source(
        (2, 2, 2),
        {(x, y, z): pmf[x, y, z] for x in range(2) for y in range(2) for z in range(2)},
    )
    params = _micro_params(nu=3.0, ell=1, t=1)
    import corrkem.harness.exact as exact_mod

    results = {}
    for name, fn in IMPLEMENTATIONS["compose_sd"].items():
        monkeypatch.setattr(exact_mod, "compose_sd", fn)
        results[name], _ = composability_sd(src, params)
    ref = results["numpy"]
    for name, value in results.items():
        assert value == pytest.approx(ref, abs=1e-12), name


def test_random_guess_adversary_near_zero(rng):
    src, params = honest_ot_instance(rng, max_bits=6)
    report = run_ikem_game(src, params, RandomGuessAdversary(), 0, 2000, seed=5)
    assert report.advantage_estimate <= 3 * np.sqrt(0.25 / 2000)
    assert report.passed


def test_omniscient_adversary_wins(rng):
    src = leaky_uniform_source(rng, 6, 0)
    params = derive_params(src, 1, 0.5, 0.45, 0)
    assert params.ell >= 3
    report = run_ikem_game(
        src, params, OmniscientAdversary(src, params), 0, 2000, seed=6, bound=0.5, debug=True
    )
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
        def pre_challenge(self, rng_, z_vec, oracle, debug):
            oracle()
            oracle()  # second query exceeds q_e = 1
            return None

    with pytest.raises(QueryBudgetExceeded):
        run_ikem_game(src, params, Greedy(), 1, 5, seed=8)


def test_transcript_budget_invariant():
    from corrkem.harness import Transcript

    Transcript((0,), (), (None, 0), 0, 0)  # empty view is fine
    with pytest.raises(QueryBudgetExceeded):
        Transcript((0,), (("c", "k"),), (None, 0), 1, 0)


def test_ikem_game_with_legal_oracle_use(rng):
    src, params = honest_cea_instance(rng)

    class OneQuery(RandomGuessAdversary):
        def pre_challenge(self, rng_, z_vec, oracle, debug):
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


def test_he_game_budget():
    src, params = he_micro_instance()

    class Greedy(RandomGuessHeAdversary):
        def choose(self, rng_, z_vec, oracle, debug):
            oracle(b"\x00")
            return super().choose(rng_, z_vec, oracle, debug)

    with pytest.raises(QueryBudgetExceeded):
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
