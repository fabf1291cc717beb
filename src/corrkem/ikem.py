"""Key encapsulation from correlated samples.

Encapsulation hashes the sender's n-symbol vector twice with fresh
seeds: a t-bit tag for reconciliation and an ell-bit output key.  The
ciphertext is (tag, key seed, tag seed).  Decapsulation enumerates the
receiver's candidate list

    T(y) = { x : sum_i -log2 P(x_i | y_i) <= nu }

and accepts iff exactly one candidate reproduces the tag.  Anything
else is the protocol failure ``BOTTOM`` (never an exception).

The tag msb_t(a*x) XOR msb_t(b) is affine over GF(2) in the packed
code x: one (position, symbol) table per ciphertext gives any
candidate's tag by XOR, split over any cut of the positions as
tag(x) = T_L(x_L) XOR T_R(x_R) XOR msb_t(b).  Decap enumerates the
half-lists of the two halves and joins them on the tag by sort and
binary search (Schroeppel-Shamir list merging), never walking T(y)
itself; only the match's key is hashed.  A half-list past
MAX_CANDIDATES prefixes at some position, or a join of more pairs,
raises RegimeTooLarge.

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

from . import gf2
from .errors import FormatError, InfeasibleKeyLength, RegimeTooLarge
from .source import JointSource, avg_cond_min_entropy, check_symbols
from .uhf import UhfSeed, UhfSpec, encode_symbols, hash_value, sample_seed, symbol_bits

# Slack for floating-point comparisons in branch pruning; candidates are
# always re-checked against nu with the exact accumulation order, so the
# slack can only admit extra work, never change the enumerated set.
_PRUNE_SLACK = 1e-9

# Largest number of candidate prefixes one enumeration level may hold,
# and of half-list pairs decap may join.  An honest list has at most
# 2^nu entries, and decap enumerates it as two half-lists; a hostile nu
# stops here instead of materialising up to |X|^n rows.
MAX_CANDIDATES = 1 << 18

# Most cells one block of enumeration positions may expand before its
# cut: enough to take a short half-list in a few numpy calls, small
# enough that children a per-position cut would drop cost little.
CHUNK_CELLS = 1 << 12

# Widest hash input a session may have: GF(2^w) fields are searched on
# first use, and the search grows without bound in w; up to 512 bits
# the slowest width takes under a second.
MAX_HASH_WIDTH = 512


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
            raise FormatError("n, t, ell must be positive; q_e >= 0")
        if not all(math.isfinite(v) for v in (self.nu, self.eps, self.sigma)):
            raise FormatError("nu, eps and sigma must be finite")
        if self.nu < 0 or not 0 < self.eps < 1 or not 0 < self.sigma < 1:
            raise FormatError("need nu >= 0 and eps, sigma in (0, 1)")


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
            raise FormatError("key bits wider than declared length")


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
        raise FormatError("eps and sigma must lie in (0, 1)")
    if q_e < 0:
        raise FormatError("q_e must be >= 0")
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
    falls below 1 bit, or below ell_target, and RegimeTooLarge when the
    hash width passes MAX_HASH_WIDTH.
    """
    if n < 1:
        raise FormatError("n must be >= 1")
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
    params = IkemParams(n, t, ell, nu, eps, sigma, q_e, source_digest(source))
    hash_width(source, params)
    return params


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
    secrecy bound is infeasible.  The secrecy bound is NOT asserted;
    the hash width bound is (RegimeTooLarge past MAX_HASH_WIDTH).
    """
    if n < 1 or ell < 1:
        raise FormatError("n and ell must be >= 1")
    h_xy = n * avg_cond_min_entropy(source, 0, (1,))
    nu, t, _ = derive_lengths(h_xy, 0.0, eps, sigma, q_e)
    params = IkemParams(n, t, ell, nu, eps, sigma, q_e, source_digest(source))
    hash_width(source, params)
    return params


def hash_width(source: JointSource, params: IkemParams) -> int:
    """Input width of both hash families for this session.

    The encoded sample occupies n*ceil(log2(|X|)) bits; the width is
    padded up to max(t, ell) so truncation stays well-defined.  A width
    past MAX_HASH_WIDTH raises RegimeTooLarge.
    """
    enc = params.n * symbol_bits(source.alphabet_sizes[0])
    w = max(1, enc, params.t, params.ell)
    if w > MAX_HASH_WIDTH:
        raise RegimeTooLarge(f"hash width {w} exceeds {MAX_HASH_WIDTH} bits")
    return w


def tag_spec(source: JointSource, params: IkemParams) -> UhfSpec:
    return UhfSpec(hash_width(source, params), params.t)


def key_spec(source: JointSource, params: IkemParams) -> UhfSpec:
    return UhfSpec(hash_width(source, params), params.ell)


def encode_sample(source: JointSource, params: IkemParams, vec) -> int:
    return encode_symbols(vec, source.alphabet_sizes[0], params.n)


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


def _cost_matrix(source: JointSource, y_vec, n: int | None = None) -> np.ndarray:
    """cost[i, s] = -log2 P(x = s | y_i), +inf where P = 0, gathered from
    the source's cached table; raises FormatError for a receiver vector
    that fails :func:`check_symbols` or a symbol of probability 0."""
    y_vec = check_symbols(y_vec, source.alphabet_sizes[1], n)
    cost = source.surprisal_table[:, y_vec].T
    undefined = np.isnan(cost[:, 0])
    if undefined.any():
        raise FormatError(f"P(y={y_vec[undefined.argmax()]}) = 0")
    return cost


def enumerate_typical(source: JointSource, y_vec, nu: float):
    """Yield the candidate x-vectors with surprisal <= nu, each once,
    in lexicographic order.

    The frontier holds every surviving prefix (in lexicographic order)
    with its partial surprisal.  A symbol that exceeds nu even after
    the cheapest prefix and the cheapest suffix is dropped from its
    whole position; a position left with one symbol adds its cost to
    every prefix without branching.  The other positions are taken in
    blocks: each prefix is extended by every combination of the
    block's symbols at once (one chained outer sum, still added left
    to right), and a child is cut at the block's end when its partial
    surprisal plus the cheapest suffix exceeds nu.  A block grows while
    its outer sum holds at most CHUNK_CELLS cells (never more than
    MAX_CANDIDATES); a cut inside it would only have dropped children
    earlier.  Leaves check the full sum with the exact order of
    additions used by :func:`corrkem.source.surprisal`, so the output
    equals the brute-force filter exactly, whatever the blocks.

    The whole list is built before the first row is yielded.  A block
    whose first position extends the prefixes to more than
    MAX_CANDIDATES children raises RegimeTooLarge (the same position at
    which a block of one position would); a receiver symbol outside the
    alphabet raises FormatError.
    """
    if nu < 0:
        raise FormatError("nu must be >= 0")
    cost = _cost_matrix(source, y_vec)
    n, nx = cost.shape
    mins = cost.min(axis=1)
    min_suffix = np.zeros(n + 1)
    min_suffix[:n] = np.cumsum(mins[::-1])[::-1]
    min_prefix = np.zeros(n + 1)
    min_prefix[1:] = np.cumsum(mins)
    limit = nu + _PRUNE_SLACK
    # every partial[i] >= min_prefix[i] (rounding is monotone), so these
    # symbols fail the per-child cut below at every node of their level
    feasible = (min_prefix[:n, None] + cost) + min_suffix[1:, None] <= limit
    width = feasible.sum(axis=1)
    if not width.all():  # some position has no feasible symbol: empty list
        return
    forced = feasible.argmax(axis=1)  # the only symbol where width == 1
    forced_cost = cost[np.arange(n), forced].tolist()
    width = width.tolist()
    single = [w == 1 for w in width]
    if single:
        single[-1] = False  # the last position takes an axis: the final sums form an array
    suffix = min_suffix.tolist()
    cap = min(CHUNK_CELLS, MAX_CANDIDATES)

    part = 0.0  # a float until the first branch: same sums, no array op per forced position
    blocks = []  # (branching positions, shape of the block's outer sum, kept flat indices)
    i = 0
    while i < n:
        if single[i]:
            part = part + forced_cost[i]
            i += 1
            continue
        part = np.atleast_1d(part)
        if part.size * width[i] > MAX_CANDIDATES:
            raise RegimeTooLarge(
                f"candidate list exceeds {MAX_CANDIDATES} prefixes at position {i};"
                " nu is too large for this source"
            )
        axes, shape, child = [], [part.size], part
        while i < n and (not axes or single[i] or child.size * width[i] <= cap):
            if single[i]:  # a Python float onto every child: no axis
                child = child + forced_cost[i]
            else:  # a new axis; where every symbol is feasible, its rank is the symbol
                syms = None if width[i] == nx else feasible[i].nonzero()[0]
                child = np.add.outer(child, cost[i] if syms is None else cost[i, syms])
                axes.append((i, syms))
                shape.append(width[i])
            i += 1
        child = child.ravel()
        last = i == n
        bound = child if last else child + suffix[i]
        kept = (bound <= (nu if last else limit)).nonzero()[0]
        part = child[kept]
        blocks.append((axes, shape, kept))

    rows = np.empty((np.size(part), n), dtype=np.int64)  # n = 0: one empty row
    rows[:] = forced  # right at the unbranched positions; the rest are overwritten
    node = np.arange(len(rows))  # each leaf's ancestor among the block's kept children
    for axes, shape, kept in reversed(blocks):
        # split the kept children (<= CHUNK_CELLS of them in a block of several
        # axes) into prefix and symbols, then gather those for the leaves
        if len(axes) == 1:  # np.unravel_index divides per element: slow on long levels
            prefix = kept // shape[1]
            ranks = [kept - prefix * shape[1]]
        else:
            prefix, *ranks = np.unravel_index(kept, shape)
        for (i, syms), rank in zip(axes, ranks):
            rows[:, i] = (rank if syms is None else syms[rank])[node]
        node = prefix[node]
    yield from rows


def _half_list(source: JointSource, y_half, budget: float) -> np.ndarray:
    """enumerate_typical's rows as one array; none for a negative budget."""
    if budget < 0:
        return np.empty((0, len(y_half)), dtype=np.int64)
    rows = list(enumerate_typical(source, y_half, budget))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(y_half))


def decap(params: IkemParams, source: JointSource, y_vec, ctxt: IkemCiphertext):
    """The unique tag-consistent candidate's key, or BOTTOM.

    The positions split at h = n // 2.  Any x in T(y) has a left half
    within nu - min_R and a right half within nu - min_L, where min_L
    and min_R are each side's cheapest surprisal, so the two
    half-lists cover T(y).  Each is enumerated in blocks of positions,
    a few numpy calls per block, with costs gathered from the source's
    cached surprisal table.  Pairs whose tags XOR to the ciphertext's
    are joined on the first tag limb, and a pair is kept iff its
    surprisal, summed left to right as the list sums it, is <= nu: the
    matches are exactly the tag-consistent candidates of T(y).

    BOTTOM covers both zero and multiple matches; it means the
    ciphertext could not be decapsulated, not that the input was
    malformed (malformed inputs raise).  A half-list past
    MAX_CANDIDATES prefixes, or a join of more pairs (only a t far
    below the derived one gets there), raises RegimeTooLarge.
    """
    cost = _cost_matrix(source, y_vec, params.n)
    tspec = tag_spec(source, params)
    kspec = key_spec(source, params)
    if not 0 <= ctxt.g < (1 << params.t):
        raise FormatError("tag wider than t bits")
    ctxt.s.validate(tspec)
    ctxt.s_prime.validate(kspec)
    n, nx, h = params.n, source.alphabet_sizes[0], params.n // 2
    mins = cost.min(axis=1)
    left = _half_list(source, y_vec[:h], params.nu - mins[h:].sum() + _PRUNE_SLACK)
    right = _half_list(source, y_vec[h:], params.nu - mins[:h].sum() + _PRUNE_SLACK)

    table = gf2.linear_table(ctxt.s.a, tspec.input_bits, params.t, n, nx)
    want = gf2.limbs([ctxt.g ^ (ctxt.s.b >> (tspec.input_bits - params.t))], params.t)
    pos_l, pos_r = np.arange(h), np.arange(h, n)
    need = np.bitwise_xor.reduce(table[pos_l, left], axis=1) ^ want  # right tag to pair with
    tag_r = np.bitwise_xor.reduce(table[pos_r, right], axis=1)
    order = np.argsort(tag_r[:, 0])
    first = tag_r[order, 0]
    lo = np.searchsorted(first, need[:, 0], "left")
    count = np.searchsorted(first, need[:, 0], "right") - lo
    pairs = int(count.sum())
    if pairs > MAX_CANDIDATES:
        raise RegimeTooLarge(
            f"{pairs} half-list pairs share the first tag limb, over {MAX_CANDIDATES};"
            " t is too small for this list"
        )
    # pair k, the (k - start)-th of left row i, takes sorted right row lo[i] + k - start[i]
    start = np.cumsum(count) - count
    li = np.repeat(np.arange(left.shape[0]), count)
    ri = order[np.arange(pairs) + np.repeat(lo - start, count)]
    same = (need[li] == tag_r[ri]).all(axis=1)
    li, ri = li[same], ri[same]

    cands = np.concatenate([left[li], right[ri]], axis=1)
    # the list's own order of additions: left to right from position 0
    total = np.cumsum(cost[np.arange(n), cands], axis=1)[:, -1]
    matches = cands[total <= params.nu]
    if len(matches) != 1:
        return BOTTOM
    code = encode_symbols(matches[0], nx)
    return IkemKey(hash_value(kspec, ctxt.s_prime, code), params.ell)
