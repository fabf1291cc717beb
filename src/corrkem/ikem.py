"""Key encapsulation from correlated samples.

Encapsulation hashes the sender's n-symbol vector twice with fresh
seeds: a t-bit tag for reconciliation and an ell-bit output key.  The
ciphertext is (tag, key seed, tag seed).  Decapsulation enumerates the
receiver's candidate list

    T(y) = { x : sum_i -log2 P(x_i | y_i) <= nu }

and accepts iff exactly one candidate reproduces the tag.  Anything
else is the protocol failure ``BOTTOM`` (never an exception).

Operating points come from two one-sided bounds evaluated against the
source's vector conditional min-entropies H(X|Y) = n*h(X|Y) and
H(X|Z) = n*h(X|Z):

    nu  = 2*H(X|Y)/eps
    t  >= nu - log2(eps) - 1                      (failure <= eps)
    ell <= H(X|Z) - t + 2*log2(sigma) + 2          (no oracle queries)
    ell <= (2 + 2*log2(sigma) + H(X|Z))/(q_e+1)
           - t - log2(q_e/sigma)                   (q_e > 0 queries)

t rounds up and ell rounds down; both inequalities are one-sided, so
rounding in those directions is always safe.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleKeyLength,
    LengthMismatch,
    UndefinedConditional,
)
from .source import JointSource, avg_cond_min_entropy, check_symbols
from .uhf import UhfSeed, UhfSpec, encode_symbols, hash_value, sample_seed, symbol_bits

# Slack for floating-point comparisons in branch pruning; candidates are
# always re-checked against nu with the exact accumulation order, so the
# slack can only admit extra work, never change the enumerated set.
_PRUNE_SLACK = 1e-9


class _BottomType:
    """Protocol-level decapsulation failure (unique sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _BottomType()


@dataclass(frozen=True)
class IkemParams:
    """One operating point, bound to a source by its digest.

    Instances built by :func:`derive_params` satisfy the length bounds
    above; tests may build dishonest ones directly to exercise the
    bound-violation detectors.
    """

    n: int
    t: int
    ell: int
    nu: float
    eps: float
    sigma: float
    q_e: int
    source_digest: str

    def __post_init__(self):
        if self.n < 1 or self.t < 1 or self.ell < 1 or self.q_e < 0:
            raise DimensionMismatch("n, t, ell must be positive; q_e >= 0")
        if self.nu < 0 or not 0 < self.eps < 1 or not 0 < self.sigma < 1:
            raise DimensionMismatch("need nu >= 0 and eps, sigma in (0, 1)")


@dataclass(frozen=True)
class IkemCiphertext:
    g: int
    s_prime: UhfSeed
    s: UhfSeed


@dataclass(frozen=True)
class IkemKey:
    bits: int
    length: int

    def __post_init__(self):
        if self.length < 1 or not 0 <= self.bits < (1 << self.length):
            raise LengthMismatch("key bits wider than declared length")


def source_digest(source: JointSource) -> str:
    """16-hex-char identity of a source (alphabets + exact pmf bytes)."""
    h = hashlib.sha256()
    h.update(np.asarray(source.alphabet_sizes, dtype=np.int64).tobytes())
    h.update(source.pmf.tobytes())
    return h.hexdigest()[:16]


def params_digest(params: IkemParams) -> bytes:
    """8-byte digest binding ciphertexts to a (source, params) session."""
    text = "|".join(
        [
            params.source_digest,
            str(params.n),
            str(params.t),
            str(params.ell),
            repr(params.nu),
            repr(params.eps),
            repr(params.sigma),
            str(params.q_e),
        ]
    )
    return hashlib.sha256(text.encode()).digest()[:8]


def _ceil(v: float) -> int:
    return math.ceil(v - 1e-9)


def _floor(v: float) -> int:
    return math.floor(v + 1e-9)


def derive_lengths(h_xy: float, h_xz: float, eps: float, sigma: float, q_e: int):
    """(nu, t, ell) from the two bounds, given vector entropies in bits.

    ell may come out below 1; callers decide whether that is an error.
    """
    if not 0 < eps < 1 or not 0 < sigma < 1:
        raise DimensionMismatch("eps and sigma must lie in (0, 1)")
    if q_e < 0:
        raise DimensionMismatch("q_e must be >= 0")
    nu = 2.0 * h_xy / eps
    t = max(1, _ceil(nu - math.log2(eps) - 1.0))
    if q_e == 0:
        bound = h_xz - t + 2.0 * math.log2(sigma) + 2.0
    else:
        bound = (2.0 + 2.0 * math.log2(sigma) + h_xz) / (q_e + 1) - t - math.log2(q_e / sigma)
    return nu, t, _floor(bound)


def derive_params(
    source: JointSource,
    n: int,
    eps: float,
    sigma: float,
    q_e: int,
    ell_target: int | None = None,
) -> IkemParams:
    """Honest operating point for the source at the given targets.

    ell is the largest length the applicable bound allows, or
    ell_target if that is smaller (a shorter key only improves the
    distance to uniform).  Raises InfeasibleKeyLength when the bound
    falls below 1 bit, or below ell_target.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    h_xy = n * avg_cond_min_entropy(source, 0, (1,))
    h_xz = n * avg_cond_min_entropy(source, 0, (2,))
    nu, t, ell = derive_lengths(h_xy, h_xz, eps, sigma, q_e)
    if ell < 1:
        raise InfeasibleKeyLength(
            f"key bound {ell} < 1 bit (t={t}, H(X|Z)={h_xz:.3f});"
            " increase n or relax eps/sigma"
        )
    if ell_target is not None:
        if ell_target > ell:
            raise InfeasibleKeyLength(f"requested {ell_target} bits, bound allows {ell}")
        ell = ell_target
    return IkemParams(n, t, ell, nu, eps, sigma, q_e, source_digest(source))


def reliability_params(
    source: JointSource,
    n: int,
    eps: float,
    ell: int,
    sigma: float = 0.5,
    q_e: int = 0,
) -> IkemParams:
    """Correctness-only operating point: nu and t from the failure
    bound, ell chosen by the caller.

    The failure probability of decapsulation does not depend on ell,
    so this is the honest way to exercise reliability on sources whose
    secrecy bound is infeasible.  The secrecy bound is NOT asserted.
    """
    if n < 1 or ell < 1:
        raise DimensionMismatch("n and ell must be >= 1")
    h_xy = n * avg_cond_min_entropy(source, 0, (1,))
    nu, t, _ = derive_lengths(h_xy, 0.0, eps, sigma, q_e)
    return IkemParams(n, t, ell, nu, eps, sigma, q_e, source_digest(source))


def hash_width(source: JointSource, params: IkemParams) -> int:
    """Input width of both hash families for this session.

    The encoded sample occupies n*ceil(log2(|X|)) bits; the width is
    padded up to max(t, ell) so truncation stays well-defined.
    """
    enc = params.n * symbol_bits(source.alphabet_sizes[0])
    return max(1, enc, params.t, params.ell)


def tag_spec(source: JointSource, params: IkemParams) -> UhfSpec:
    return UhfSpec(hash_width(source, params), params.t)


def key_spec(source: JointSource, params: IkemParams) -> UhfSpec:
    return UhfSpec(hash_width(source, params), params.ell)


def encode_sample(source: JointSource, params: IkemParams, vec) -> int:
    vec = np.asarray(vec, dtype=np.int64)
    if vec.shape != (params.n,):
        raise LengthMismatch(f"sample must have n={params.n} symbols")
    code, _ = encode_symbols(vec, source.alphabet_sizes[0])
    return code


def encap(
    params: IkemParams,
    source: JointSource,
    x_vec,
    rng: np.random.Generator,
) -> tuple[IkemCiphertext, IkemKey]:
    """Fresh seeds, tag and key from the sender's sample."""
    code = encode_sample(source, params, x_vec)
    tspec = tag_spec(source, params)
    kspec = key_spec(source, params)
    s_prime = sample_seed(kspec, rng)
    s = sample_seed(tspec, rng)
    g = hash_value(tspec, s, code)
    key = hash_value(kspec, s_prime, code)
    return IkemCiphertext(g, s_prime, s), IkemKey(key, params.ell)


def enumerate_typical(source: JointSource, y_vec, nu: float):
    """Yield the candidate x-vectors with surprisal <= nu, each once,
    in lexicographic order.

    Depth-first over symbol positions; a branch is cut when its partial
    surprisal plus the minimal achievable suffix surprisal already
    exceeds nu.  Leaves re-check the full sum with the exact order of
    additions used by :func:`corrkem.source.surprisal`, so the output
    equals the brute-force filter exactly.  A receiver symbol outside
    the alphabet raises LengthMismatch.
    """
    if nu < 0:
        raise DimensionMismatch("nu must be >= 0")
    y_vec = np.asarray(y_vec, dtype=np.int64)
    check_symbols(y_vec, source.alphabet_sizes[1])
    n = y_vec.shape[0]
    nx = source.alphabet_sizes[0]
    cond = source.conditional_xy()
    py = source.pmf.sum(axis=(0, 2))
    for yi in y_vec:
        if py[yi] <= 0.0:
            raise UndefinedConditional(f"P(y={yi}) = 0")
    with np.errstate(divide="ignore"):
        per_pos = -np.log2(cond[:, y_vec])  # (nx, n); +inf where P = 0
    min_suffix = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        min_suffix[i] = per_pos[:, i].min() + min_suffix[i + 1]

    choice = np.full(n, -1, dtype=np.int64)
    partial = np.zeros(n + 1)
    limit = nu + _PRUNE_SLACK
    i = 0
    while i >= 0:
        choice[i] += 1
        if choice[i] >= nx:
            choice[i] = -1
            i -= 1
            continue
        v = per_pos[choice[i], i]
        if partial[i] + v + min_suffix[i + 1] > limit:
            continue
        partial[i + 1] = partial[i] + v
        if i == n - 1:
            if partial[n] <= nu:
                yield choice.copy()
            continue
        i += 1


def decap(params: IkemParams, source: JointSource, y_vec, ctxt: IkemCiphertext):
    """The unique tag-consistent candidate's key, or BOTTOM.

    BOTTOM covers both zero and multiple tag matches; it means the
    ciphertext could not be decapsulated, not that the input was
    malformed (malformed inputs raise).
    """
    y_vec = np.asarray(y_vec, dtype=np.int64)
    if y_vec.shape != (params.n,):
        raise LengthMismatch(f"receiver sample must have n={params.n} symbols")
    tspec = tag_spec(source, params)
    kspec = key_spec(source, params)
    if not 0 <= ctxt.g < (1 << params.t):
        raise LengthMismatch("tag wider than t bits")
    ctxt.s.validate(tspec)
    ctxt.s_prime.validate(kspec)
    match_code = -1
    for cand in enumerate_typical(source, y_vec, params.nu):
        code, _ = encode_symbols(cand, source.alphabet_sizes[0])
        if hash_value(tspec, ctxt.s, code) == ctxt.g:
            if match_code >= 0:
                return BOTTOM
            match_code = code
    if match_code < 0:
        return BOTTOM
    return IkemKey(hash_value(kspec, ctxt.s_prime, match_code), params.ell)
