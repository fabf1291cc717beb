"""Shared generators for micro instances used across the suite.

Micro instances keep the whole probability space enumerable: encoded
sample width w <= 8 for challenge enumeration, w <= 4..5 when seeds
multiply up (transcripts, composability).  Honest instances always go
through derive_params, so every tested operating point satisfies the
published bounds.
"""

import numpy as np
import pytest

from corrkem import JointSource, derive_params, make_table_source
from corrkem.harness.exact import _challenge_tables
from corrkem.ikem import IkemParams


def random_micro_source(rng, max_bits=8, n_max=2, nz_max=4):
    """Arbitrary random source for bound checks: X uniform-ish over a
    power-of-two alphabet, Y trivial, Z correlated at random."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        xbits = int(rng.integers(1, max_bits + 1))
        if n * xbits <= max_bits:
            break
    nx = 1 << xbits
    nz = int(rng.integers(1, nz_max + 1))
    pmf = rng.random((nx, 1, nz))
    # sprinkle structural zeros but keep every z-column reachable
    pmf *= rng.random((nx, 1, nz)) < 0.9
    pmf[rng.integers(0, nx), 0, :] += 0.05
    pmf /= pmf.sum()
    src = JointSource((nx, 1, nz), pmf, label=f"micro{xbits}b")
    return src, n


def leaky_uniform_source(rng, xbits, leak_bits, flip=0.0):
    """X near-uniform over 2^xbits, Y = X (optionally flipped in the
    low bit), Z = the top leak_bits of X."""
    nx = 1 << xbits
    nz = max(1, 1 << leak_bits)
    px = np.full(nx, 1.0 / nx)
    jitter = rng.random(nx) * 0.2 + 0.9
    px = px * jitter
    px /= px.sum()
    ny = nx
    pmf = np.zeros((nx, ny, nz))
    for x in range(nx):
        z = x >> (xbits - leak_bits) if leak_bits else 0
        if flip > 0.0:
            pmf[x, x, z] += px[x] * (1.0 - flip)
            pmf[x, x ^ 1, z] += px[x] * flip
        else:
            pmf[x, x, z] = px[x]
    return JointSource((nx, ny, nz), pmf, label=f"leaky{xbits}-{leak_bits}")


def honest_ot_instance(rng, max_bits=8):
    """(source, params) with derive_params succeeding at q_e = 0 and
    hash width <= max_bits."""
    xbits = int(rng.integers(3, max_bits + 1))
    leak = int(rng.integers(0, min(3, xbits - 2) + 1))
    flip = float(rng.choice([0.0, 0.0, 0.01, 0.03]))
    src = leaky_uniform_source(rng, xbits, leak, flip)
    eps = float(rng.choice([0.5, 0.6, 0.75]))
    from corrkem import avg_cond_min_entropy

    h_xz = avg_cond_min_entropy(src, 0, (2,))
    t_guess = 1  # Y tracks X tightly, so nu stays tiny
    ell_target = int(rng.integers(1, 3))
    # solve the length bound for sigma so it lands half a bit above ell_target
    log_sigma = 0.5 * (ell_target + 0.5 - (h_xz - t_guess + 2.0))
    sigma = min(0.9, 2.0**log_sigma)
    params = derive_params(src, 1, eps, sigma, 0)
    return src, params


def honest_cea_instance(rng):
    """(source, params) feasible under the q_e = 1 bound with w <= 4."""
    src = leaky_uniform_source(rng, 4, 0)
    sigma = float(rng.uniform(0.75, 0.95))
    params = derive_params(src, 1, 0.5, sigma, 1)
    return src, params


def deterministic_pair_source() -> JointSource:
    """X = Y one uniform bit, Z constant."""
    return make_table_source((2, 2, 1), {(0, 0, 0): 0.5, (1, 1, 0): 0.5}, label="detpair")


def he_micro_instance():
    """Byte-sized key (ell = 8) over an enumerable posterior: X = Y
    uniform on 16 symbols, three IID draws, Z constant."""
    src = make_table_source((16, 16, 1), {(x, x, 0): 1 / 16 for x in range(16)}, label="he-micro")
    params = derive_params(src, 3, 0.5, 2.0**-2.25, 0, ell_target=8)
    return src, params


def dishonest(params: IkemParams, **overrides) -> IkemParams:
    """Clone params with fields forced past the bounds (detector tests)."""
    import dataclasses

    return dataclasses.replace(params, **overrides)


def cea_transcript_distribution(source: JointSource, params: IkemParams, q_e: int):
    """Oracle for the transcript distance: the joint of (Z, C*, K*, V^(q_e))
    built cell by cell, and its half-L1 distance from the reference with
    a uniform challenge key; q_e = 0 is the one-time challenge tuple.

    Seeds appear through their multiplier only (the additive component
    is exactly marginal).  Axis order of the joint: (z, a_tag*, g*,
    a_key*, k*, then per query a_tag_j, g_j, a_key_j, k_j).
    """
    tag, key, pxz = _challenge_tables(source, params, q_e)
    na = tag.shape[0]
    shape = (pxz.shape[1],) + (na, 1 << params.t, na, 1 << params.ell) * (1 + q_e)
    joint = np.zeros(shape)
    grids = np.meshgrid(*([np.arange(na)] * (2 + 2 * q_e)), indexing="ij", sparse=True)
    for i in range(tag.shape[1]):
        index: list = []
        for j in range(1 + q_e):
            at, ak = grids[2 * j], grids[2 * j + 1]
            index += [at, tag[:, i][at], ak, key[:, i][ak]]
        for z in np.flatnonzero(pxz[i] > 0.0):
            joint[tuple([z] + index)] += pxz[i, z]
    joint /= na ** (2 + 2 * q_e)
    assert abs(joint.sum() - 1.0) <= 1e-12
    ref = np.broadcast_to(joint.sum(axis=4, keepdims=True) / (1 << params.ell), shape)
    return 0.5 * float(np.abs(joint - ref).sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
