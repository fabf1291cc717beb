"""Key encapsulation from correlated samples.

Encapsulation hashes the sender's n-symbol vector twice with fresh
seeds: a t-bit tag for reconciliation and an ell-bit output key.  The
ciphertext is (tag, key seed, tag seed).  Decapsulation enumerates the
receiver's candidate list

    T(y) = { x : sum_i -log2 P(x_i | y_i) <= nu }

and accepts iff exactly one candidate reproduces the tag.  Anything
else is the protocol failure ``BOTTOM`` (never an exception).  A
session's width and n are at most MAX_HASH_WIDTH (:func:`hash_width`).

The tag msb_t(a*x) XOR msb_t(b) is affine over GF(2) in the packed
code x: one (position, symbol) table per ciphertext gives any
candidate's tag by XOR, split over any cut of the positions as
tag(x) = T_L(x_L) XOR T_R(x_R) XOR msb_t(b).  Decap asks
:func:`enumerate_typical` for the candidates with the ciphertext's tag:
it walks the half-lists of the two halves, carrying each prefix's
partial tag beside its partial surprisal, joins them on the tag by sort
and binary search (Schroeppel-Shamir list merging) and rebuilds rows
only for the joined pairs, never walking T(y) itself; only the match's
key is hashed.  A
half-list past MAX_CANDIDATES prefixes at some position, or a join of
more pairs, raises RegimeTooLarge.

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
from itertools import accumulate

import numpy as np

from . import gf2
from .errors import FormatError, InfeasibleKeyLength, RegimeTooLarge
from .source import JointSource, _cost_matrix, _path_costs, avg_cond_min_entropy
from .uhf import MAX_HASH_WIDTH, UhfSeed, UhfSpec, encode_symbols, hash_value, sample_seed, symbol_bits

# Slack for floating-point comparisons in branch pruning; every rebuilt
# row is re-checked against nu by _within, in the exact accumulation
# order, so the slack can only admit extra work, never change the list.
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
        if self.length < 1:
            raise FormatError(f"key length must be >= 1 bit, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
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
    falls below 1 bit, or below ell_target; once ell is fixed, the
    point is :func:`reliability_params`'s (RegimeTooLarge past
    :func:`hash_width`'s bounds).
    """
    if n < 1:
        raise FormatError("n must be >= 1")
    h_xy = n * avg_cond_min_entropy(source, 0, (1,))
    h_xz = n * avg_cond_min_entropy(source, 0, (2,))
    _, t, ell = derive_lengths(h_xy, h_xz, eps, sigma, q_e)
    if ell < 1:
        raise InfeasibleKeyLength(
            f"key bound {ell} < 1 bit (t={t}, H(X|Z)={h_xz:.3f});"
            " increase n or relax eps/sigma"
        )
    if ell_target is not None:
        if ell_target > ell:
            raise InfeasibleKeyLength(f"requested {ell_target} bits, bound allows {ell}")
        ell = ell_target
    return reliability_params(source, n, eps, ell, sigma, q_e)


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
    :func:`hash_width`'s bounds are (RegimeTooLarge past them), and
    :class:`IkemParams` refuses an n or ell below 1.
    """
    h_xy = n * avg_cond_min_entropy(source, 0, (1,))
    nu, t, _ = derive_lengths(h_xy, 0.0, eps, sigma, q_e)
    params = IkemParams(n, t, ell, nu, eps, sigma, q_e, source_digest(source))
    hash_width(source, params)
    return params


def hash_width(source: JointSource, params: IkemParams) -> int:
    """Input width of both hash families for this session.

    The encoded sample occupies n*ceil(log2(|X|)) bits; the width is
    padded up to max(t, ell) so truncation stays well-defined.  A width
    past MAX_HASH_WIDTH raises RegimeTooLarge, and so does an n past it:
    a one-cell X packs into 0 bits, so only this bounds its n.
    """
    enc = params.n * symbol_bits(source.alphabet_sizes[0])
    w = UhfSpec(max(1, enc, params.t, params.ell), 1).input_bits  # UhfSpec refuses a width past MAX_HASH_WIDTH
    if params.n > MAX_HASH_WIDTH:
        raise RegimeTooLarge(f"n = {params.n} symbols exceeds {MAX_HASH_WIDTH}")
    return w


def hash_specs(source: JointSource, params: IkemParams) -> tuple[UhfSpec, UhfSpec]:
    """The session's (tag, key) specs: t and ell bits out of one hash width."""
    w = hash_width(source, params)
    return UhfSpec(w, params.t), UhfSpec(w, params.ell)


def encap(
    params: IkemParams,
    source: JointSource,
    x_vec,
    rng: np.random.Generator,
) -> tuple[IkemCiphertext, IkemKey]:
    """Fresh seeds, tag and key from the sender's sample."""
    code = encode_symbols(x_vec, source.alphabet_sizes[0], params.n)
    tspec, kspec = hash_specs(source, params)
    s_prime = sample_seed(kspec, rng)
    s = sample_seed(tspec, rng)
    g = hash_value(tspec, s, code)
    key = hash_value(kspec, s_prime, code)
    return IkemCiphertext(g, s_prime, s), IkemKey(key, params.ell)


def check_ciphertext(params: IkemParams, source: JointSource, ctxt: IkemCiphertext):
    """:func:`hash_specs`'s pair, once `ctxt` fits it: a tag of t bits
    and both seeds of the hash width, else FormatError.  The one
    ciphertext rule, for decap and the wire format."""
    tspec, kspec = hash_specs(source, params)
    if not 0 <= ctxt.g < (1 << params.t):
        raise FormatError("tag wider than t bits")
    ctxt.s.validate(tspec)
    ctxt.s_prime.validate(kspec)
    return tspec, kspec


@dataclass(frozen=True)
class _Walk:
    """One block walk's leaves: how many, their tag limbs and the row back-pointers."""

    forced: np.ndarray  # each position's only feasible symbol, where it has one
    blocks: list  # (branching positions, shape of the block's outer sum, kept flat indices)
    count: int
    tags: np.ndarray

    def rows(self, leaves) -> np.ndarray:
        """The rows of the given leaves, as a (len(leaves), n) array."""
        node = np.asarray(leaves, dtype=np.int64)  # each leaf's ancestor among a block's kept children
        rows = np.empty((node.size, self.forced.size), dtype=np.int64)
        rows[:] = self.forced  # right at the unbranched positions; the rest are overwritten
        for axes, shape, kept in reversed(self.blocks):
            # split the ancestors' flat indices into prefix and symbols
            node, *ranks = np.unravel_index(kept[node], shape)
            for (i, syms), rank in zip(axes, ranks):
                rows[:, i] = rank if syms is None else syms[rank]
        return rows


def _walk(cost: np.ndarray, nu: float, table: np.ndarray) -> _Walk:
    """The block walk behind :func:`enumerate_typical` over an (n, |X|)
    cost matrix.  It only prunes: its leaves, in lexicographic order,
    cover every x with sum_i cost[i, x_i] <= nu, and may hold rows up
    to _PRUNE_SLACK past it.  Each leaf carries XOR_i T[i, x_i] of the
    tag table T (n, |X|, limbs; zero limbs: no tag): the tag is affine,
    so the forced positions' entries join one constant and a branching
    one is XORed in beside its cost.  A negative nu lists nothing.
    """
    n, nx = cost.shape
    mins = cost.min(axis=1)
    limit = nu + _PRUNE_SLACK
    # a symbol past nu even beside the cheapest symbols elsewhere is in no
    # row of the list: dropped from its whole position (a position of +inf
    # costs makes every rest inf or NaN, so nothing is feasible)
    feasible = cost + (mins.sum() - mins)[:, None] <= limit
    width = feasible.sum(axis=1)
    forced = feasible.argmax(axis=1)  # the only symbol where width == 1
    if nu < 0 or not width.all():  # some position has no feasible symbol: empty list
        return _Walk(forced, [], 0, np.zeros((0, table.shape[2]), np.uint64))
    width, costs = width.tolist(), mins.tolist()  # a few positions: Python beats numpy calls
    at = [i for i in range(n) if width[i] == 1]  # forced: the one feasible symbol is the cheapest
    branch = [i for i in range(n) if width[i] > 1]
    part = np.array([math.fsum(costs[i] for i in at)])
    tags = np.bitwise_xor.reduce(table[at, forced[at]], axis=0, keepdims=True)
    suffix = list(accumulate((costs[i] for i in reversed(branch)), initial=0.0))[::-1]  # cheapest rest
    cap = min(CHUNK_CELLS, MAX_CANDIDATES)

    blocks = []
    k = 0
    while k < len(branch):
        if part.size * width[branch[k]] > MAX_CANDIDATES:
            raise RegimeTooLarge(
                f"candidate list exceeds {MAX_CANDIDATES} prefixes at position {branch[k]};"
                " nu is too large for this source"
            )
        axes, shape, child, child_tags = [], [part.size], part, tags
        while k < len(branch) and (not axes or child.size * width[branch[k]] <= cap):
            i = branch[k]
            # a new axis; where every symbol is feasible, its rank is the symbol
            syms = None if width[i] == nx else feasible[i].nonzero()[0]
            child = np.add.outer(child, cost[i] if syms is None else cost[i, syms])
            entries = table[i] if syms is None else table[i, syms]
            # an explicit row count: numpy refuses reshape(-1, 0)
            child_tags = (child_tags[:, None] ^ entries).reshape(child.size, entries.shape[1])
            axes.append((i, syms))
            shape.append(width[i])
            k += 1
        child = child.ravel()
        # the bound stays unnamed: one level-sized array less at the memory peak
        kept = (child + suffix[k] <= limit).nonzero()[0]
        part, tags = child[kept], child_tags[kept]
        blocks.append((axes, shape, kept))
    return _Walk(forced, blocks, part.size, tags)  # no branching position: one leaf


def _within(cost: np.ndarray, rows: np.ndarray, nu: float) -> np.ndarray:
    """Which rows lie in the list: the one membership check, each row's
    :func:`corrkem.source.surprisal` (its ``_path_costs``) <= nu."""
    return _path_costs(cost, rows) <= nu


def enumerate_typical(source: JointSource, y_vec, nu: float, tag: tuple | None = None):
    """Yield the candidate x-vectors with surprisal <= nu, each once,
    in lexicographic order; given tag = (table, want), a linear tag
    table (n, |X|, limbs) and one tag's limbs, only those whose tag
    XOR_i table[i, x_i] equals want.

    A walk prunes and one check decides.  The walk drops a symbol that
    exceeds nu even beside every other position's cheapest symbol from
    its whole position; a position left with one symbol (its cheapest)
    adds its cost once, to the starting cost.  The others are
    taken in blocks: each prefix is extended by every combination of
    the block's symbols in one chained outer sum, and a child is cut at
    the block's end when its partial surprisal plus the cheapest rest
    exceeds nu + _PRUNE_SLACK.  A block grows while its outer sum holds
    at most CHUNK_CELLS cells (never more than MAX_CANDIDATES).  The
    rows rebuilt from the walk then pass one check, :func:`_within`,
    which takes :func:`corrkem.source.surprisal`'s own sum, so the output
    equals the brute-force filter exactly, whatever the blocks.

    Without a tag, :func:`_listed` walks the whole list and rebuilds
    every row before the first is yielded; with one, the list itself is
    never walked: see :func:`_tag_join`.  A block whose first position
    extends the prefixes to more than MAX_CANDIDATES children raises
    RegimeTooLarge (the same position at which a block of one position
    would); a receiver symbol outside the alphabet raises FormatError,
    and so does a y of another length than the tag table's.
    """
    if nu < 0:
        raise FormatError("nu must be >= 0")
    if tag is None:
        yield from _listed(_cost_matrix(source, y_vec), nu)
    else:
        yield from _tag_join(_cost_matrix(source, y_vec, len(tag[0])), nu, *tag)


def _listed(cost: np.ndarray, nu: float) -> np.ndarray:
    """Every row x with sum_i cost[i, x_i] <= nu, in lexicographic order,
    as one (rows, n) array: the walk, its rows, then :func:`_within`."""
    walk = _walk(cost, nu, np.zeros(cost.shape + (0,), np.uint64))  # zero limbs: no tag
    rows = walk.rows(np.arange(walk.count))
    return rows[_within(cost, rows, nu)]


def _tag_join(cost: np.ndarray, nu: float, table: np.ndarray, want: np.ndarray) -> np.ndarray:
    """The rows of the list whose tag is `want`, in lexicographic order,
    from the pairs of two half-lists that cover the list.

    The positions split at h = n // 2.  Any x in the list has a left
    half within nu - min_R and a right half within nu - min_L, where
    min_L and min_R are each side's cheapest surprisal, so the two
    half-lists cover it.  Each is one :func:`_walk` over its half of
    the cost matrix, and each leaf carries its half's tag, XORed from
    the table beside the partial surprisal.  Pairs whose tags XOR to
    `want` are joined on the first tag limb and compared on every limb;
    only their rows are rebuilt, from the walks' back-pointers, and
    :func:`_within` keeps those in the list.  A join of more than
    MAX_CANDIDATES pairs (only a t far below the derived one gets
    there) raises RegimeTooLarge.
    """
    h = len(cost) // 2
    mins = cost.min(axis=1)
    left = _walk(cost[:h], nu - mins[h:].sum() + _PRUNE_SLACK, table[:h])
    right = _walk(cost[h:], nu - mins[:h].sum() + _PRUNE_SLACK, table[h:])

    need = left.tags ^ want  # right tag to pair with
    tag_r = right.tags
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
    # pair k, the (k - start)-th of left leaf i, takes sorted right leaf lo[i] + k - start[i]
    start = np.cumsum(count) - count
    li = np.repeat(np.arange(left.count), count)
    ri = order[np.arange(pairs) + np.repeat(lo - start, count)]
    same = (need[li] == tag_r[ri]).all(axis=1)
    li, ri = li[same], ri[same]
    if len(li) > 1:  # li ascends, but ri follows the tag sort: restore the list's order
        pick = np.lexsort((ri, li))
        li, ri = li[pick], ri[pick]
    rows = np.concatenate([left.rows(li), right.rows(ri)], axis=1)
    return rows[_within(cost, rows, nu)]


def decap(params: IkemParams, source: JointSource, y_vec, ctxt: IkemCiphertext):
    """The unique tag-consistent candidate's key, or BOTTOM.

    The ciphertext's tag seed gives one linear table, and the tag
    XOR msb_t(b) is the value its table XOR must take;
    :func:`enumerate_typical` yields the candidates of T(y) with that
    tag (see :func:`_tag_join`).  Only the match's key is hashed.

    BOTTOM covers both zero and multiple matches; it means the
    ciphertext could not be decapsulated, not that the input was
    malformed (malformed inputs raise).  A half-list past
    MAX_CANDIDATES prefixes, or a join of more pairs (only a t far
    below the derived one gets there), raises RegimeTooLarge.
    """
    tspec, kspec = check_ciphertext(params, source, ctxt)
    nx = source.alphabet_sizes[0]
    table = gf2.linear_table(ctxt.s.a, tspec.input_bits, params.t, params.n, nx)
    want = gf2.limbs([ctxt.g ^ (ctxt.s.b >> (tspec.input_bits - params.t))], params.t)
    matches = list(enumerate_typical(source, y_vec, params.nu, (table, want)))
    if len(matches) != 1:
        return BOTTOM
    code = encode_symbols(matches[0], nx)
    return IkemKey(hash_value(kspec, ctxt.s_prime, code), params.ell)
