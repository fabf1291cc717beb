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

Both Monte Carlo games judge in one batch.  The trial loop, _play,
draws each game's sample on the one seeded generator; the game plays
to the challenge and keeps what the adversary is shown and the hidden
bit; one guess call then returns every trial's bit, so no guess moves a
later game's draws.  The random baselines draw their guesses from a
generator spawned from the game seed.  The Bayes-optimal adversaries
draw nothing: they hash chunks of trials (at most _BATCH_CELLS samples
x trials) in one GF(2^w) pass per seed kind that keeps only the bits
they compare, the t tag bits or the ell key bits of each product.  msb
commutes with XOR, so a seed's mask b never enters a table: msb(b) is
XORed into the tag or key it is compared with.  They build one prior
per distinct z pattern in a chunk, mask it to each trial's tag and
reduce each row alone, so every advantage equals a trial-by-trial
judgement.

The hybrid game's work is bounded: each trial hashes n symbols and the
posterior adversary scores all |X|^n samples, so run_he_game raises
RegimeTooLarge past HE_WORK_LIMIT (2^26) trials * (|X|^n + 256*n).
Then _play takes the session rule, :func:`corrkem.ikem.hash_width`,
before it checks trials >= 1 and draws.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ..errors import FormatError, RegimeTooLarge
from ..gf2 import mul_vector
from ..hybrid import he_encrypt
from ..ikem import IkemParams, encap, decap, hash_width
from ..source import JointSource, check_symbols, sample_with_rng
# perfbench/tracing.py patches games.hash_value, so the name stays bound here
from ..uhf import hash_value, rand_bits  # noqa: F401
from .exact import cea_transcript_sd, composability_sd, exact_challenge_sd

_TIE_SLACK = 1e-12
_POSTERIOR_LIMIT = 1 << 20
# Samples x trials the posterior adversaries hash in one pass.  First a
# memory cap: a whole batch of 10^4 he-micro trials (4096 samples each)
# would hold hundreds of MB per array; then a cache choice: a chunk of
# 16 he-micro trials was fastest in a sweep of 1-200
_BATCH_CELLS = 1 << 16
HE_WORK_LIMIT = 1 << 26


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


def _key_bound(sigma: float, q_e: int) -> float:
    """The key-indistinguishability target at q_e encapsulation queries."""
    return sigma if q_e == 0 else 2.0 * sigma


def ot_bound_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact challenge SD against the sigma target."""
    return _exact_report("ot-bound", exact_challenge_sd(source, params), params.sigma)


def cea_bound_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact transcript SD at the params' q_e against its bound (sigma,
    or 2*sigma when q_e > 0: the q_e-query conclusion carries the
    factor two)."""
    q = params.q_e
    sd_work = cea_transcript_sd(source, params, q)
    return _exact_report(f"cea-bound(q_e={q})", sd_work, _key_bound(params.sigma, q))


def composability_check(source: JointSource, params: IkemParams) -> GameReport:
    """Exact four-tuple SD (with the failure symbol in the receiver key
    alphabet) against eps + sigma."""
    sd_work = composability_sd(source, params)
    return _exact_report("composability", sd_work, params.eps + params.sigma)


# ---------------------------------------------------------------------------
# adversaries


class IkemAdversary:
    """Two-phase adversary: pre_challenge may call the encapsulation
    oracle; guess sees every trial's state, challenge ciphertext and
    candidate key at once and returns one bit per trial."""

    def pre_challenge(self, rng, z_vec, oracle):
        return None

    def guess(self, rng, states, ctxts, keys) -> list[int]:
        raise NotImplementedError


class RandomGuessAdversary(IkemAdversary):
    def guess(self, rng, states, ctxts, keys) -> list[int]:
        return rng.integers(0, 2, len(ctxts)).tolist()


class _PosteriorMixin:
    """Shared machinery: exact posterior over sender samples given the
    eavesdropper vector and a tag-consistent challenge."""

    def __init__(self, source: JointSource, params: IkemParams):
        self.source = source
        self.params = params
        self.w = hash_width(source, params)
        self.pxz1 = source.pmf.sum(axis=1)

    def check_z(self, z_vec) -> np.ndarray:
        """z_vec as :func:`check_symbols` returns it, once the posterior
        fits: |X|^n <= 2^20 samples and a hash width <= 62 bits.

        Each trial's first posterior step, so it refuses the regime, after
        the games' own work check and before any |X|^n array exists."""
        nx, _, nz = self.source.alphabet_sizes
        z_vec = check_symbols(z_vec, nz, self.params.n)
        if nx**self.params.n > _POSTERIOR_LIMIT:
            raise RegimeTooLarge("posterior enumeration needs |X|^n <= 2^20")
        if self.w > 62:
            raise RegimeTooLarge(f"posterior hashing needs a hash width <= 62, got {self.w}")
        return z_vec

    def prior_given_z(self, z_vec) -> np.ndarray:
        """P(x, z_vec) for every flat sample x, multiplied first symbol
        first: ((p0 * p1) * p2) ...; z_vec as :meth:`check_z` returns it."""
        return reduce(lambda p, q: np.multiply.outer(p, q).ravel(), self.pxz1[:, z_vec].T)

    def posteriors(self, zs, ctxts):
        """(prior * [msb_t(a * x) = g ^ msb_t(b)], msb_ell(a' * x) of every
        sample x, msb_ell(b')) per trial, for the seeds (a, b) and (a', b').

        Trials are hashed in chunks of at most _BATCH_CELLS cells (at
        least one trial): one mul_vector call per seed kind and chunk, and
        one prior per distinct z in the chunk."""
        nx, n, w, t, ell = self.source.alphabet_sizes[0], self.params.n, self.w, self.params.t, self.params.ell
        per = max(1, _BATCH_CELLS // nx**n)
        for lo in range(0, len(ctxts), per):
            chunk, part = ctxts[lo:lo + per], zs[lo:lo + per]
            distinct = {z.tobytes(): z for z in part}
            priors = {key: self.prior_given_z(z) for key, z in distinct.items()}
            tags = mul_vector([c.s.a for c in chunk], n, nx, w, t)
            keys = mul_vector([c.s_prime.a for c in chunk], n, nx, w, ell)
            for z, c, row, hashes in zip(part, chunk, tags, keys):
                yield priors[z.tobytes()] * (row == c.g ^ (c.s.b >> w - t)), hashes, c.s_prime.b >> w - ell


class BestGuessAdversary(_PosteriorMixin, IkemAdversary):
    """Bayes-optimal distinguisher: the challenge key is called real
    iff its posterior mass is at least the uniform 2^-ell."""

    def pre_challenge(self, rng, z_vec, oracle):
        return self.check_z(z_vec)

    def guess(self, rng, states, ctxts, keys) -> list[int]:
        bits = []
        for (weights, hashes, mask), key_bits in zip(self.posteriors(states, ctxts), keys):
            total = weights.sum()
            mass = weights[hashes == key_bits ^ mask].sum()
            bits.append(0 if mass * (1 << self.params.ell) >= total else 1)
        return bits


class HeAdversary:
    """Two-phase adversary for the hybrid game; phase one also picks
    the challenge message pair, and guess sees every trial's state and
    challenge ciphertext at once and returns one bit per trial."""

    def choose(self, rng, z_vec, oracle):
        raise NotImplementedError

    def guess(self, rng, states, ctxts) -> list[int]:
        raise NotImplementedError


class RandomGuessHeAdversary(HeAdversary):
    def __init__(self, message_bytes: int = 2):
        self.message_bytes = message_bytes

    def choose(self, rng, z_vec, oracle):
        return None, b"\x00" * self.message_bytes, b"\xff" * self.message_bytes

    def guess(self, rng, states, ctxts) -> list[int]:
        return rng.integers(0, 2, len(ctxts)).tolist()


class BestGuessOtpHeAdversary(_PosteriorMixin, HeAdversary):
    """Posterior-ratio distinguisher for the one-time-pad hybrid: each
    hypothesis pins down the key prefix, so compare their masses.  Its
    messages are whole bytes, ell // 8 of them, so it needs ell >= 8."""

    def __init__(self, source: JointSource, params: IkemParams):
        super().__init__(source, params)
        if params.ell < 8:
            raise FormatError(f"the one-time-pad adversary pads whole bytes of key, so it needs ell >= 8, got ell = {params.ell}")

    def choose(self, rng, z_vec, oracle):
        nbytes = self.params.ell // 8
        m0 = b"\x00" * nbytes
        m1 = b"\xff" * nbytes
        return (self.check_z(z_vec), m0, m1), m0, m1

    def guess(self, rng, states, ctxts) -> list[int]:
        bits = []
        rows = self.posteriors([z for z, _, _ in states], [c.c1 for c in ctxts])
        for (weights, keys, mask), (_, m0, m1), ctxt in zip(rows, states, ctxts):
            shift = self.params.ell - 8 * len(ctxt.c2.body)
            tops = keys >> shift
            body = int.from_bytes(ctxt.c2.body, "big") ^ (mask >> shift)
            need0 = body ^ int.from_bytes(m0, "big")
            need1 = body ^ int.from_bytes(m1, "big")
            mass0 = weights[tops == need0].sum()
            mass1 = weights[tops == need1].sum()
            bits.append(0 if mass0 >= mass1 else 1)
        return bits


# ---------------------------------------------------------------------------
# Monte Carlo games


def _play(source: JointSource, params: IkemParams, trials: int, seed: int, trial) -> list:
    """trial(rng, triple) per trial, triple its n-fold draw from `source`, all
    on one generator seeded by `seed`; hash_width first, then trials >= 1."""
    hash_width(source, params)
    check_trials(trials)
    rng = np.random.default_rng(seed)
    return [trial(rng, sample_with_rng(source, params.n, rng)) for _ in range(trials)]


def check_trials(trials: int) -> None:
    """The Monte Carlo games' rule trials >= 1."""
    if trials < 1:
        raise FormatError("trials must be >= 1")


def _count_wins(source: JointSource, params: IkemParams, trials: int, seed: int, trial, guess) -> int:
    """How many of `trials` games the adversary wins.  Each trial plays
    one game up to the challenge and returns guess's arguments and the
    hidden bit; then one guess(rng, ...) call judges every game, on a
    generator spawned from `seed`, so the games' draws do not depend on
    the guesses.  A guess list of another length is a ValueError."""
    *views, hidden = zip(*_play(source, params, trials, seed, trial))
    judge = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return sum(g == b for g, b in zip(guess(judge, *views), hidden, strict=True))


def _budgeted(fn, q_e: int, what: str):
    """`fn`, refusing calls past the q_e-th with FormatError."""
    calls = 0

    def oracle(*args):
        nonlocal calls
        calls += 1
        if calls > q_e:
            raise FormatError(f"more than q_e={q_e} {what} queries")
        return fn(*args)

    return oracle


def _mc_report(game: str, trials: int, seed: int, bound: float, wins: int) -> GameReport:
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
) -> GameReport:
    """Key-indistinguishability game against sigma (2*sigma when q_e > 0);
    advantage = |wins/trials - 1/2|.

    The oracle re-encapsulates under the trial's sender sample with
    fresh seeds and enforces the q_e budget.
    """

    def trial(rng, triple):
        oracle = _budgeted(lambda: encap(params, source, triple.x, rng), q_e, "encapsulation")
        state = adversary.pre_challenge(rng, triple.z, oracle)
        ctxt, real_key = encap(params, source, triple.x, rng)
        b = int(rng.integers(0, 2))
        shown = real_key.bits if b == 0 else rand_bits(rng, params.ell)
        return state, ctxt, shown, b

    wins = _count_wins(source, params, trials, seed, trial, adversary.guess)
    return _mc_report(f"ikem(q_e={q_e})", trials, seed, _key_bound(params.sigma, q_e), wins)


def run_he_game(
    source: JointSource,
    params: IkemParams,
    adversary: HeAdversary,
    q_e: int,
    trials: int,
    seed: int,
    scheme_tag: str = "OTP",
) -> GameReport:
    """Hybrid-encryption indistinguishability game against sigma, with
    an encryption oracle limited to q_e chosen-message queries.

    Refuses more than HE_WORK_LIMIT trials * (|X|^n + 256*n) before the
    first trial: a symbol costs a trial about as much as 256 scored
    samples (on a 2-vCPU Xeon, 5 us against 32 ns), so a one-cell
    source, |X|^n = 1, is charged for its n symbols too.
    """
    nx, n = source.alphabet_sizes[0], params.n
    if trials * (nx**n + 256 * n) > HE_WORK_LIMIT:
        raise RegimeTooLarge(
            f"{trials} trials over {nx}^{n} samples plus 256 * {n} symbols exceed {HE_WORK_LIMIT}"
        )

    def trial(rng, triple):
        def encrypt(message: bytes):
            return he_encrypt(params, source, triple.x, message, rng, scheme_tag)

        state, m0, m1 = adversary.choose(rng, triple.z, _budgeted(encrypt, q_e, "encryption"))
        if len(m0) != len(m1):
            raise FormatError("challenge messages must have equal length")
        b = int(rng.integers(0, 2))
        return state, encrypt(m1 if b else m0), b

    wins = _count_wins(source, params, trials, seed, trial, adversary.guess)
    return _mc_report(f"he(q_e={q_e},{scheme_tag})", trials, seed, params.sigma, wins)


def correctness_mc(source: JointSource, params: IkemParams, trials: int, seed: int) -> GameReport:
    """Monte Carlo decapsulation failure rate against eps plus three
    Wilson half-widths."""
    if trials < 1000:
        raise FormatError("correctness estimation needs >= 1000 trials")

    def trial(rng, triple) -> bool:
        ctxt, key = encap(params, source, triple.x, rng)
        return decap(params, source, triple.y, ctxt) != key  # BOTTOM is never a key

    rate = sum(_play(source, params, trials, seed, trial)) / trials
    passed = rate <= params.eps + 3.0 * wilson_halfwidth(rate, trials)
    return GameReport("correctness", rate, trials, False, params.eps, passed, seed)
