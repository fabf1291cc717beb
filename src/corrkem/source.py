"""Finite three-party joint sources and their entropy quantities.

A :class:`JointSource` is the public distribution P(x, y, z) from which
a trusted sampler draws the correlated private inputs of the sender,
the receiver, and the eavesdropper: the library's only distribution
type.  Everything downstream consumes IID samples of it or the
min-entropy quantities computed here.

All probabilities are 64-bit floats, all entropies are in bits (log
base 2).  Tables that do not sum to 1 within 1e-12 are rejected, never
renormalized.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormatError, RegimeTooLarge

NORM_TOL = 1e-12
# Largest dense (x, y, z) table make_table_source or product_source
# allocates: 32 MiB of float64.
MAX_TABLE_CELLS = 1 << 22


def _check_sizes(sizes) -> tuple[int, int, int]:
    """The (|X|, |Y|, |Z|) sizes as ints, each at least 1."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise FormatError("need three alphabet sizes >= 1")
    return sizes


@dataclass(frozen=True)
class JointSource:
    """Dense joint pmf over (x, y, z) with fixed finite alphabets."""

    alphabet_sizes: tuple[int, int, int]
    pmf: np.ndarray
    label: str = ""

    def __post_init__(self):
        sizes = _check_sizes(self.alphabet_sizes)
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != sizes:
            raise FormatError(f"pmf shape {pmf.shape} != alphabets {sizes}")
        if np.any(pmf < 0.0):
            raise FormatError("negative pmf entry")
        total = pmf.sum()
        if not abs(total - 1.0) <= NORM_TOL:  # also rejects NaN
            raise FormatError(f"pmf sums to {total!r}")
        pmf = pmf.copy()
        pmf.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "pmf", pmf)

    def conditional_xy(self) -> np.ndarray:
        """Matrix P(x | y); columns with P(y) = 0 hold NaN."""
        pxy = self.pmf.sum(axis=2)
        py = pxy.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return pxy / py[None, :]

    @cached_property
    def surprisal_table(self) -> np.ndarray:
        """Read-only table -log2 P(x | y) of shape (|X|, |Y|): +inf
        where P(x | y) = 0, NaN columns where P(y) = 0.  Computed once
        per source; decap and :func:`surprisal` read the same bits."""
        with np.errstate(invalid="ignore", divide="ignore"):
            table = -np.log2(self.conditional_xy())
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class SampleTriple:
    """One n-fold IID draw: the three parties' private symbol vectors."""

    n: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        # the alphabets are not known here: no range check
        for name in ("x", "y", "z"):
            try:
                vec = _symbol_array(getattr(self, name), self.n)
            except FormatError as exc:
                raise FormatError(f"{name}: {exc}") from exc
            vec = vec.astype(np.int64, copy=False)
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


def _check_coord(coord: int) -> int:
    if coord not in (0, 1, 2):
        raise FormatError(f"coordinate {coord} not in (0, 1, 2)")
    return coord


def make_table_source(sizes, pmf_entries, label: str = "table") -> JointSource:
    """Build a source from explicit table entries {(x, y, z): p}.

    Unlisted cells are zero.  The entries must already be normalized;
    a sum off by more than 1e-12 raises FormatError.  Tables with more
    than MAX_TABLE_CELLS cells raise RegimeTooLarge.
    """
    sizes = _check_sizes(sizes)
    if sizes[0] * sizes[1] * sizes[2] > MAX_TABLE_CELLS:
        raise RegimeTooLarge(f"{sizes} table has more than {MAX_TABLE_CELLS} cells")
    pmf = np.zeros(sizes)
    for (x, y, z), p in dict(pmf_entries).items():
        if not (0 <= x < sizes[0] and 0 <= y < sizes[1] and 0 <= z < sizes[2]):
            raise FormatError(f"cell ({x},{y},{z}) outside {sizes}")
        pmf[x, y, z] = p
    return JointSource(sizes, pmf, label)


def satellite_source(p_a: float, p_b: float, p_e: float) -> JointSource:
    """Beacon-broadcast source: a uniform bit observed through three
    independent binary symmetric channels with the given flip rates."""
    for p in (p_a, p_b, p_e):
        if not 0.0 <= p <= 0.5:
            raise FormatError(f"flip probability {p} outside [0, 0.5]")
    # channel matrices: [out, beacon] is 1 - p on the diagonal, p off it
    a, b, e = (np.array([[1.0 - p, p], [p, 1.0 - p]]) for p in (p_a, p_b, p_e))
    pmf = sum(0.5 * a[:, k, None, None] * b[:, k, None] * e[:, k] for k in (0, 1))
    return JointSource((2, 2, 2), pmf, f"satellite({p_a},{p_b},{p_e})")


def sample_n(source: JointSource, n: int, seed: int) -> SampleTriple:
    """Draw n IID triples; a deterministic function of the seed."""
    return sample_with_rng(source, n, np.random.default_rng(seed))


def sample_with_rng(source: JointSource, n: int, rng: np.random.Generator) -> SampleTriple:
    """Like :func:`sample_n` but advancing a caller-owned generator."""
    if n < 1:
        raise FormatError("n must be >= 1")
    flat = source.pmf.ravel()
    cdf = np.cumsum(flat)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    sy, sz = source.alphabet_sizes[1], source.alphabet_sizes[2]
    x, rem = np.divmod(idx, sy * sz)
    y, z = np.divmod(rem, sz)
    return SampleTriple(n, x, y, z)


def avg_cond_min_entropy(source: JointSource, target_coord: int, given_coords) -> float:
    """-log2 E_given max_target P(target | given), unlisted coordinates
    marginalized out; ``given_coords=()`` is the target's own min-entropy."""
    target = _check_coord(target_coord)
    given = tuple(_check_coord(c) for c in given_coords)
    if target in given or len(set(given)) != len(given):
        raise FormatError("target and given coordinates must be disjoint")
    drop = tuple(i for i in range(3) if i != target and i not in given)
    joint = source.pmf.sum(axis=drop) if drop else source.pmf
    # E_given max_target P(target, given) = sum over given of the max along the
    # target's axis; in (0, 1] for a normalized pmf, clamp the log against float overshoot
    guess = joint.max(axis=sorted((target, *given)).index(target)).sum()
    return max(0.0, -float(np.log2(guess)))


def _symbol_array(vec, n: int | None) -> np.ndarray:
    """`vec` as an array if it is a 1-D integer vector (of n symbols, if
    given), else FormatError; the alphabet is not checked."""
    try:
        arr = np.asarray(vec)
    except ValueError as exc:  # a ragged nested list
        raise FormatError(f"not a symbol vector: {exc}") from exc
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise FormatError(f"symbols must be a 1-D integer vector, not {arr.dtype} of shape {arr.shape}")
    # numpy turns bools mixed into an integer list into 0 and 1
    if not isinstance(vec, np.ndarray) and {bool, np.bool_} & set(map(type, vec)):
        raise FormatError("symbols must be integers, not bools")
    if n is not None and arr.size != n:
        raise FormatError(f"sample must have n={n} symbols, got {arr.size}")
    return arr


def check_symbols(vec, alphabet_size: int, n: int | None = None) -> np.ndarray:
    """The one definition of a symbol vector: one-dimensional integers (n
    of them, if given) in [0, alphabet_size), returned as int64.  Anything
    else raises FormatError (floats, and bools even mixed into a list of
    ints; the first symbol outside the alphabet is named).  An empty
    vector may have any dtype."""
    arr = _symbol_array(vec, n)
    symbols = arr.astype(np.int64, copy=False)
    # read unsigned, a negative symbol is past any alphabet: one comparison
    outside = symbols.view(np.uint64) >= alphabet_size
    if np.count_nonzero(outside):
        raise FormatError(f"symbol {arr[outside.argmax()]} outside alphabet of {alphabet_size}")
    return symbols


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


def surprisal(source: JointSource, x_vec, y_vec) -> float:
    """Total conditional surprisal sum_i -log2 P(x_i | y_i) in bits.

    Returns +inf when some P(x_i | y_i) = 0; raises FormatError when
    some P(y_i) = 0 or either vector fails :func:`check_symbols` (y's
    length is x's).
    """
    x_vec = check_symbols(x_vec, source.alphabet_sizes[0])
    cost = _cost_matrix(source, y_vec, x_vec.size)  # every y_i checked before the sum
    total = 0.0
    for c in cost[np.arange(x_vec.size), x_vec].tolist():  # left to right
        if c == math.inf:
            return c
        total += c
    return total


def product_source(source: JointSource, n: int) -> JointSource:
    """Explicit n-fold IID product table (oracle for additivity checks).

    Vector symbols are flattened in row-major (big-endian) order, so
    coordinate alphabets grow as |X|^n.  Intended for tiny n only: a
    table of more than MAX_TABLE_CELLS cells raises RegimeTooLarge
    before anything is allocated.
    """
    if n < 1:
        raise FormatError("n must be >= 1")
    pmf = source.pmf
    if pmf.size > 1 and n * math.log2(pmf.size) > math.log2(MAX_TABLE_CELLS):
        raise RegimeTooLarge(
            f"{n}-fold product of a {pmf.size}-cell table has more than {MAX_TABLE_CELLS} cells"
        )
    out = pmf
    for _ in range(n - 1):
        out = np.einsum("abc,xyz->axbycz", out, pmf).reshape(
            out.shape[0] * pmf.shape[0],
            out.shape[1] * pmf.shape[1],
            out.shape[2] * pmf.shape[2],
        )
    sizes = tuple(s**n for s in source.alphabet_sizes)
    return JointSource(sizes, out, f"{source.label}^{n}")
