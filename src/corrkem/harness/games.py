"""Indistinguishability games, bound checks, and Monte Carlo reports.

Game shape: a two-phase adversary (A1, A2) with explicit state, an
encapsulation (or encryption) oracle available only before the
challenge, a hidden bit selecting the real key against a fresh uniform
one, and advantage |win rate - 1/2|.

Every Monte Carlo acceptance uses a 3-sigma margin, with sigma_mc the
binomial standard error at p = 1/2 (an upper bound for any p), or a
Wilson half-width for the one-sided correctness rate.  Exact checks
compare enumerated statistical distances directly against the bound
with 1e-12 slack for ties.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatch, QueryBudgetExceeded, RegimeTooLarge
from ..gf2 import mul_vector
from ..hybrid import he_encrypt
from ..ikem import BOTTOM, IkemKey, IkemParams, encap, decap, hash_width, key_spec
from ..source import JointSource, sample_with_rng
from ..uhf import encode_flat, hash_value, rand_bits
from .exact import cea_transcript_sd, composability_sd, exact_challenge_sd

_TIE_SLACK = 1e-12
_POSTERIOR_LIMIT = 1 << 20


@dataclass(frozen=True)
class Transcript:
    """Everything one game trial shows the adversary: the side
    information, the ordered oracle responses, and the challenge."""

    z_vec: tuple
    oracle_responses: tuple  # ((ciphertext, key), ...) in query order
    challenge: tuple  # (ciphertext, shown key bits)
    hidden_bit: int
    q_e: int

    def __post_init__(self):
        if len(self.oracle_responses) > self.q_e:
            raise QueryBudgetExceeded(
                f"{len(self.oracle_responses)} responses recorded, budget {self.q_e}"
            )
        if self.hidden_bit not in (0, 1):
            raise DimensionMismatch("hidden bit must be 0 or 1")


@dataclass(frozen=True)
class GameReport:
    game: str
    advantage_estimate: float
    trials: int
    exact: bool
    bound: float
    passed: bool
    seed: int | None = None


def report_json(report: GameReport) -> dict:
    return {
        "game": report.game,
        "exact": report.exact,
        "trials": report.trials,
        "advantage": report.advantage_estimate,
        "bound": report.bound,
        "pass": report.passed,
        "seed": report.seed,
    }


def mc_sigma(trials: int) -> float:
    return math.sqrt(0.25 / trials)


def wilson_halfwidth(p_hat: float, trials: int) -> float:
    """Half-width of the z=1 Wilson score interval."""
    denom = 1.0 + 1.0 / trials
    return math.sqrt(p_hat * (1.0 - p_hat) / trials + 0.25 / trials**2) / denom


# ---------------------------------------------------------------------------
# exact bound checks


def _exact_report(game: str, result: tuple[float, int], bound: float) -> GameReport:
    """Report an exact (distance, enumerated terms) pair against its bound."""
    sd, work = result
    return GameReport(game, sd, work, True, bound, sd <= bound + _TIE_SLACK)


def ot_bound_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact challenge SD against the sigma target."""
    return _exact_report("ot-bound", exact_challenge_sd(source, params), params.sigma)


def cea_bound_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact transcript SD at the params' q_e against 2*sigma (the
    q_e-query conclusion carries the factor two)."""
    q = params.q_e
    sd_work = cea_transcript_sd(source, params, q)
    return _exact_report(f"cea-bound(q_e={q})", sd_work, 2.0 * params.sigma)


def composability_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact four-tuple SD (with the failure symbol in the receiver key
    alphabet) against eps + sigma."""
    sd_work = composability_sd(source, params)
    return _exact_report("composability", sd_work, params.eps + params.sigma)


# ---------------------------------------------------------------------------
# adversaries


class IkemAdversary:
    """Two-phase adversary: pre_challenge may call the encapsulation
    oracle; guess sees the challenge ciphertext and candidate key."""

    def pre_challenge(self, rng, z_vec, oracle, debug):
        return None

    def guess(self, rng, state, ctxt, key_bits) -> int:
        raise NotImplementedError


class RandomGuessAdversary(IkemAdversary):
    def guess(self, rng, state, ctxt, key_bits) -> int:
        return int(rng.integers(0, 2))


class OmniscientAdversary(IkemAdversary):
    """Debug-mode adversary handed the sender sample directly; it
    recomputes the key and wins except on uniform-key collisions."""

    def __init__(self, source: JointSource, params: IkemParams):
        self.source = source
        self.params = params

    def pre_challenge(self, rng, z_vec, oracle, debug):
        return debug["x"]

    def guess(self, rng, state, ctxt, key_bits) -> int:
        from ..ikem import encode_sample

        code = encode_sample(self.source, self.params, state)
        real = hash_value(key_spec(self.source, self.params), ctxt.s_prime, code)
        return 0 if real == key_bits else 1


class _PosteriorMixin:
    """Shared machinery: exact posterior over sender samples given the
    eavesdropper vector and a tag-consistent challenge."""

    def __init__(self, source: JointSource, params: IkemParams):
        self.source = source
        self.params = params
        nx = source.alphabet_sizes[0]
        n = params.n
        if nx**n > _POSTERIOR_LIMIT:
            raise RegimeTooLarge("posterior enumeration needs |X|^n <= 2^20")
        flat = np.arange(nx**n, dtype=np.int64)
        self.digits = np.stack(np.unravel_index(flat, (nx,) * n), axis=1)  # (N, n)
        self.codes = encode_flat(flat, n, nx)
        self.pxz1 = source.pmf.sum(axis=1)
        self.w = hash_width(source, params)

    def prior_given_z(self, z_vec) -> np.ndarray:
        return np.prod(self.pxz1[self.digits, np.asarray(z_vec)[None, :]], axis=1)

    def hash_all(self, seed, out_bits: int) -> np.ndarray:
        vals = mul_vector(seed.a, self.codes, self.w)
        return (vals ^ seed.b) >> (self.w - out_bits)


class BestGuessAdversary(_PosteriorMixin, IkemAdversary):
    """Bayes-optimal distinguisher: the challenge key is called real
    iff its posterior mass is at least the uniform 2^-ell."""

    def pre_challenge(self, rng, z_vec, oracle, debug):
        return self.prior_given_z(z_vec)

    def guess(self, rng, state, ctxt, key_bits) -> int:
        weights = state * (self.hash_all(ctxt.s, self.params.t) == ctxt.g)
        total = weights.sum()
        mass = weights[self.hash_all(ctxt.s_prime, self.params.ell) == key_bits].sum()
        return 0 if mass * (1 << self.params.ell) >= total else 1


class HeAdversary:
    """Two-phase adversary for the hybrid game; phase one also picks
    the challenge message pair."""

    def choose(self, rng, z_vec, oracle, debug):
        raise NotImplementedError

    def guess(self, rng, state, ctxt) -> int:
        raise NotImplementedError


class RandomGuessHeAdversary(HeAdversary):
    def __init__(self, message_bytes: int = 2):
        self.message_bytes = message_bytes

    def choose(self, rng, z_vec, oracle, debug):
        return None, b"\x00" * self.message_bytes, b"\xff" * self.message_bytes

    def guess(self, rng, state, ctxt) -> int:
        return int(rng.integers(0, 2))


class BestGuessOtpHeAdversary(_PosteriorMixin, HeAdversary):
    """Posterior-ratio distinguisher for the one-time-pad hybrid: each
    hypothesis pins down the key prefix, so compare their masses."""

    def choose(self, rng, z_vec, oracle, debug):
        nbytes = max(1, self.params.ell // 8)
        m0 = b"\x00" * nbytes
        m1 = b"\xff" * nbytes
        return (self.prior_given_z(z_vec), m0, m1), m0, m1

    def guess(self, rng, state, ctxt) -> int:
        prior, m0, m1 = state
        weights = prior * (self.hash_all(ctxt.c1.s, self.params.t) == ctxt.c1.g)
        keys = self.hash_all(ctxt.c1.s_prime, self.params.ell)
        nbits = 8 * len(ctxt.c2.body)
        tops = keys >> (self.params.ell - nbits)
        body = int.from_bytes(ctxt.c2.body, "big")
        need0 = body ^ int.from_bytes(m0, "big")
        need1 = body ^ int.from_bytes(m1, "big")
        mass0 = weights[tops == need0].sum()
        mass1 = weights[tops == need1].sum()
        return 0 if mass0 >= mass1 else 1


# ---------------------------------------------------------------------------
# Monte Carlo games


def _uniform_key(rng, ell: int) -> IkemKey:
    return IkemKey(rand_bits(rng, ell), ell)


def _mc_report(game: str, wins: int, trials: int, bound: float, seed: int) -> GameReport:
    """Advantage |wins/trials - 1/2| against bound plus three sigma_mc."""
    adv = abs(wins / trials - 0.5)
    return GameReport(game, adv, trials, False, bound, adv <= bound + 3.0 * mc_sigma(trials), seed)


def run_ikem_game(
    source: JointSource,
    params: IkemParams,
    adversary: IkemAdversary,
    q_e: int,
    trials: int,
    seed: int,
    bound: float | None = None,
    debug: bool = False,
) -> GameReport:
    """Key-indistinguishability game; advantage = |wins/trials - 1/2|.

    The oracle re-encapsulates under the trial's sender sample with
    fresh seeds and enforces the q_e budget.
    """
    if trials < 1:
        raise DimensionMismatch("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if bound is None:
        bound = params.sigma if q_e == 0 else 2.0 * params.sigma
    wins = 0
    for _ in range(trials):
        triple = sample_with_rng(source, params.n, rng)
        responses = []

        def oracle():
            if len(responses) >= q_e:
                raise QueryBudgetExceeded(f"more than q_e={q_e} encapsulation queries")
            responses.append(encap(params, source, triple.x, rng))
            return responses[-1]

        info = {"x": triple.x} if debug else {}
        state = adversary.pre_challenge(rng, triple.z, oracle, info)
        ctxt, real_key = encap(params, source, triple.x, rng)
        b = int(rng.integers(0, 2))
        shown = real_key if b == 0 else _uniform_key(rng, params.ell)
        view = Transcript(tuple(triple.z), tuple(responses), (ctxt, shown.bits), b, q_e)
        if adversary.guess(rng, state, view.challenge[0], view.challenge[1]) == b:
            wins += 1
    return _mc_report(f"ikem(q_e={q_e})", wins, trials, bound, seed)


def run_he_game(
    source: JointSource,
    params: IkemParams,
    adversary: HeAdversary,
    q_e: int,
    trials: int,
    seed: int,
    scheme_tag: str = "OTP",
    bound: float | None = None,
) -> GameReport:
    """Hybrid-encryption indistinguishability game with an encryption
    oracle limited to q_e chosen-message queries."""
    if trials < 1:
        raise DimensionMismatch("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if bound is None:
        bound = params.sigma
    wins = 0
    for _ in range(trials):
        triple = sample_with_rng(source, params.n, rng)
        queries = 0

        def oracle(message: bytes):
            nonlocal queries
            queries += 1
            if queries > q_e:
                raise QueryBudgetExceeded(f"more than q_e={q_e} encryption queries")
            return he_encrypt(params, source, triple.x, message, rng, scheme_tag)

        state, m0, m1 = adversary.choose(rng, triple.z, oracle, {})
        if len(m0) != len(m1):
            raise DimensionMismatch("challenge messages must have equal length")
        b = int(rng.integers(0, 2))
        ctxt = he_encrypt(params, source, triple.x, m1 if b else m0, rng, scheme_tag)
        if adversary.guess(rng, state, ctxt) == b:
            wins += 1
    return _mc_report(f"he(q_e={q_e},{scheme_tag})", wins, trials, bound, seed)


def correctness_mc(source: JointSource, params: IkemParams, trials: int, seed: int) -> GameReport:
    """Monte Carlo decapsulation failure rate against eps plus three
    Wilson half-widths."""
    if trials < 1000:
        raise DimensionMismatch("correctness estimation needs >= 1000 trials")
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        triple = sample_with_rng(source, params.n, rng)
        ctxt, key = encap(params, source, triple.x, rng)
        got = decap(params, source, triple.y, ctxt)
        if got is BOTTOM or got != key:
            failures += 1
    rate = failures / trials
    margin = 3.0 * wilson_halfwidth(rate, trials)
    return GameReport(
        game="correctness",
        advantage_estimate=rate,
        trials=trials,
        exact=False,
        bound=params.eps,
        passed=rate <= params.eps + margin,
        seed=seed,
    )
