"""Finite three-party joint sources and their entropy quantities.

A :class:`JointSource` is the public distribution P(x, y, z) from which
a trusted sampler draws the correlated private inputs of the sender,
the receiver, and the eavesdropper.  Everything downstream consumes
either IID samples of it or the min-entropy quantities computed here.

All probabilities are 64-bit floats, all entropies are in bits (log
base 2).  Tables that do not sum to 1 within 1e-12 are rejected, never
renormalized.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySupport,
    InvalidCoordinate,
    LengthMismatch,
    NegativeProbability,
    NotNormalized,
    ProbabilityOutOfRange,
    SupportMismatch,
    UndefinedConditional,
)

NORM_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """A probability vector over an abstract finite support."""

    support_size: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] != self.support_size:
            raise DimensionMismatch("probs length does not match support_size")
        if self.support_size < 1:
            raise EmptySupport("distribution needs at least one outcome")
        if np.any(probs < 0.0):
            raise NegativeProbability("negative probability entry")
        if abs(probs.sum() - 1.0) > NORM_TOL:
            raise NotNormalized(f"probabilities sum to {probs.sum()!r}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def uniform(size: int) -> "Distribution":
        return Distribution(size, np.full(size, 1.0 / size))


@dataclass(frozen=True)
class JointSource:
    """Dense joint pmf over (x, y, z) with fixed finite alphabets."""

    alphabet_sizes: tuple[int, int, int]
    pmf: np.ndarray
    label: str = ""

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.alphabet_sizes)
        if len(sizes) != 3 or any(s < 1 for s in sizes):
            raise DimensionMismatch("need three alphabet sizes >= 1")
        pmf = np.asarray(self.pmf, dtype=np.float64)
        if pmf.shape != sizes:
            raise DimensionMismatch(f"pmf shape {pmf.shape} != alphabets {sizes}")
        if np.any(pmf < 0.0):
            raise NegativeProbability("negative pmf entry")
        total = pmf.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise NotNormalized(f"pmf sums to {total!r}")
        pmf = pmf.copy()
        pmf.setflags(write=False)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "pmf", pmf)

    def marginal(self, coord: int) -> Distribution:
        axes = tuple(i for i in range(3) if i != _check_coord(coord))
        return Distribution(self.alphabet_sizes[coord], self.pmf.sum(axis=axes))

    def conditional_xy(self) -> np.ndarray:
        """Matrix P(x | y); columns with P(y) = 0 hold NaN."""
        pxy = self.pmf.sum(axis=2)
        py = pxy.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            return pxy / py[None, :]


@dataclass(frozen=True)
class SampleTriple:
    """One n-fold IID draw: the three parties' private symbol vectors."""

    n: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "z"):
            vec = np.asarray(getattr(self, name), dtype=np.int64)
            if vec.shape != (self.n,):
                raise DimensionMismatch(f"{name} must have length n={self.n}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)


def _check_coord(coord: int) -> int:
    if coord not in (0, 1, 2):
        raise InvalidCoordinate(f"coordinate {coord} not in (0, 1, 2)")
    return coord


def make_table_source(sizes, pmf_entries, label: str = "table") -> JointSource:
    """Build a source from explicit table entries {(x, y, z): p}.

    Unlisted cells are zero.  The entries must already be normalized;
    a sum off by more than 1e-12 raises NotNormalized.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise DimensionMismatch("need three alphabet sizes >= 1")
    pmf = np.zeros(sizes)
    for (x, y, z), p in dict(pmf_entries).items():
        if not (0 <= x < sizes[0] and 0 <= y < sizes[1] and 0 <= z < sizes[2]):
            raise DimensionMismatch(f"cell ({x},{y},{z}) outside {sizes}")
        pmf[x, y, z] = p
    return JointSource(sizes, pmf, label)


def satellite_source(p_a: float, p_b: float, p_e: float) -> JointSource:
    """Beacon-broadcast source: a uniform bit observed through three
    independent binary symmetric channels with the given flip rates."""
    for p in (p_a, p_b, p_e):
        if not 0.0 <= p <= 0.5:
            raise ProbabilityOutOfRange(f"flip probability {p} outside [0, 0.5]")
    pmf = np.zeros((2, 2, 2))
    for beacon in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                for z in (0, 1):
                    pmf[x, y, z] += 0.5 * _flip(x, beacon, p_a) * _flip(y, beacon, p_b) * _flip(z, beacon, p_e)
    return JointSource((2, 2, 2), pmf, f"satellite({p_a},{p_b},{p_e})")


def _flip(out: int, inp: int, p: float) -> float:
    return p if out != inp else 1.0 - p


def sample_n(source: JointSource, n: int, seed: int) -> SampleTriple:
    """Draw n IID triples; a deterministic function of the seed."""
    return sample_with_rng(source, n, np.random.default_rng(seed))


def sample_with_rng(source: JointSource, n: int, rng: np.random.Generator) -> SampleTriple:
    """Like :func:`sample_n` but advancing a caller-owned generator."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    flat = source.pmf.ravel()
    cdf = np.cumsum(flat)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    sy, sz = source.alphabet_sizes[1], source.alphabet_sizes[2]
    x, rem = np.divmod(idx, sy * sz)
    y, z = np.divmod(rem, sz)
    return SampleTriple(n, x, y, z)


def min_entropy(dist: Distribution) -> float:
    """-log2 of the largest probability; never negative."""
    top = float(dist.probs.max())
    if top <= 0.0:
        raise EmptySupport("distribution has no support")
    return max(0.0, -float(np.log2(top)))


def avg_cond_min_entropy(source: JointSource, target_coord: int, given_coords) -> float:
    """-log2 E_given max_target P(target | given), unlisted coordinates
    marginalized out."""
    target = _check_coord(target_coord)
    given = tuple(_check_coord(c) for c in given_coords)
    if target in given or len(set(given)) != len(given):
        raise InvalidCoordinate("target and given coordinates must be disjoint")
    drop = tuple(i for i in range(3) if i != target and i not in given)
    joint = source.pmf.sum(axis=drop) if drop else source.pmf
    # move target first; remaining axes follow the order of `given`
    order = [target, *given]
    kept = sorted(order)
    joint = np.moveaxis(joint, [kept.index(c) for c in order], range(len(order)))
    # E_given max_target P(target, given) = sum over given of columnwise max;
    # mathematically <= 1, clamp the log against float overshoot
    guess = joint.max(axis=0).sum()
    if guess <= 0.0:
        raise EmptySupport("source has no mass")
    return max(0.0, -float(np.log2(guess)))


def iid_cond_min_entropy(source: JointSource, target_coord: int, given_coords, n: int) -> float:
    """n-fold vector conditional min-entropy; additive for IID products."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return n * avg_cond_min_entropy(source, target_coord, given_coords)


def check_symbols(vec: np.ndarray, alphabet_size: int) -> None:
    """Raise LengthMismatch unless every symbol lies in [0, alphabet_size)."""
    if np.any((vec < 0) | (vec >= alphabet_size)):
        raise LengthMismatch(f"symbol outside alphabet of {alphabet_size}")


def surprisal(source: JointSource, x_vec, y_vec) -> float:
    """Total conditional surprisal sum_i -log2 P(x_i | y_i) in bits.

    Returns +inf when some P(x_i | y_i) = 0; raises UndefinedConditional
    when some P(y_i) = 0, LengthMismatch for an out-of-alphabet symbol.
    """
    x_vec = np.asarray(x_vec, dtype=np.int64)
    y_vec = np.asarray(y_vec, dtype=np.int64)
    if x_vec.shape != y_vec.shape or x_vec.ndim != 1:
        raise DimensionMismatch("x_vec and y_vec must be equal-length vectors")
    check_symbols(x_vec, source.alphabet_sizes[0])
    check_symbols(y_vec, source.alphabet_sizes[1])
    cond = source.conditional_xy()
    py = source.pmf.sum(axis=(0, 2))
    total = 0.0
    for xi, yi in zip(x_vec, y_vec):
        if py[yi] <= 0.0:
            raise UndefinedConditional(f"P(y={yi}) = 0")
        p = cond[xi, yi]
        if p <= 0.0:
            return float("inf")
        total += -np.log2(p)
    return float(total)


def statistical_distance(p: Distribution, q: Distribution) -> float:
    """Half the L1 distance; equals the best distinguisher's advantage."""
    if p.support_size != q.support_size:
        raise SupportMismatch(f"{p.support_size} != {q.support_size}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def product_source(source: JointSource, n: int) -> JointSource:
    """Explicit n-fold IID product table (oracle for additivity checks).

    Vector symbols are flattened in row-major (big-endian) order, so
    coordinate alphabets grow as |X|^n.  Intended for tiny n only.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    pmf = source.pmf
    out = pmf
    for _ in range(n - 1):
        out = np.einsum("abc,xyz->axbycz", out, pmf).reshape(
            out.shape[0] * pmf.shape[0],
            out.shape[1] * pmf.shape[1],
            out.shape[2] * pmf.shape[2],
        )
    sizes = tuple(s**n for s in source.alphabet_sizes)
    return JointSource(sizes, out, f"{source.label}^{n}")
