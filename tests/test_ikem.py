"""Encapsulation, typical-set decoding, parameter derivation."""

from itertools import product

import numpy as np
import pytest

from corrkem import (
    BOTTOM,
    IkemCiphertext,
    UhfSeed,
    decap,
    derive_lengths,
    derive_params,
    encap,
    enumerate_typical,
    hash_width,
    make_table_source,
    reliability_params,
    sample_n,
    satellite_source,
    surprisal,
)
from corrkem.errors import InfeasibleKeyLength, LengthMismatch
from corrkem.ikem import IkemParams, encode_sample, key_spec, tag_spec
from corrkem.source import avg_cond_min_entropy
from corrkem.uhf import hash_value

from conftest import deterministic_pair_source, leaky_uniform_source


def test_derived_length_examples():
    nu, t, _ = derive_lengths(2.0, 0.0, 0.5, 0.5, 0)
    assert (nu, t) == (8.0, 8)
    assert derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 0)[2] == 26
    assert derive_lengths(2.0, 40.0, 0.5, 2.0**-4, 1)[2] == 5


def test_derive_params_infeasible():
    with pytest.raises(InfeasibleKeyLength):
        derive_params(satellite_source(0.05, 0.05, 0.3), 64, 0.25, 2.0**-8, 0)
    # everything known to Eve: no extractable key at any length
    xyz = make_table_source((2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    with pytest.raises(InfeasibleKeyLength):
        derive_params(xyz, 4, 0.5, 0.25, 0)


def test_derive_params_honest_invariants(rng):
    from conftest import honest_ot_instance

    for _ in range(10):
        src, params = honest_ot_instance(rng)
        h_xy = params.n * avg_cond_min_entropy(src, 0, (1,))
        h_xz = params.n * avg_cond_min_entropy(src, 0, (2,))
        assert params.nu == pytest.approx(2.0 * h_xy / params.eps)
        assert params.t >= 2.0 * h_xy / params.eps - np.log2(params.eps) - 1 - 1e-9
        assert params.ell <= h_xz - params.t + 2 * np.log2(params.sigma) + 2 + 1e-9


def test_ell_target_clamps_down():
    src = deterministic_pair_source()
    full = derive_params(src, 40, 0.5, 2.0**-8, 0)
    assert full.ell == 40 - full.t - 16 + 2
    short = derive_params(src, 40, 0.5, 2.0**-8, 0, ell_target=8)
    assert short.ell == 8
    with pytest.raises(InfeasibleKeyLength):
        derive_params(src, 40, 0.5, 2.0**-8, 0, ell_target=full.ell + 1)


def test_qe_monotonicity(rng):
    # derived ell never grows with q_e, and grows with H(X|Z)
    for leak in (0, 1, 2):
        src = leaky_uniform_source(rng, 8, leak)
        prev = None
        for q_e in (0, 1, 2):
            try:
                ell = derive_params(src, 1, 0.5, 0.9, q_e).ell
            except InfeasibleKeyLength:
                ell = 0
            if prev is not None:
                assert ell <= prev
            prev = ell


def test_length_bound_monotonicity_sweep():
    # ell non-increasing in q_e and t, non-decreasing in H(X|Z)
    for sigma in (0.9, 0.5, 0.1):
        for h_xz in (8.0, 12.0, 16.0, 24.0):
            for q_e in (0, 1, 2, 3):
                ells = [
                    derive_lengths(t_shift * 0.25, h_xz, 0.5, sigma, q_e)[2]
                    for t_shift in (0, 2, 4)
                ]
                assert ells == sorted(ells, reverse=True)
            by_q = [derive_lengths(0.0, h_xz, 0.5, sigma, q)[2] for q in (0, 1, 2, 3)]
            assert by_q == sorted(by_q, reverse=True)
        by_h = [derive_lengths(0.0, h, 0.5, 0.5, 1)[2] for h in (8.0, 12.0, 16.0, 24.0)]
        assert by_h == sorted(by_h)


def test_encap_shapes_and_determinism():
    src = deterministic_pair_source()
    params = derive_params(src, 16, 0.5, 0.25, 0)
    triple = sample_n(src, 16, seed=1)
    c1, k1 = encap(params, src, triple.x, np.random.default_rng(4))
    c2, k2 = encap(params, src, triple.x, np.random.default_rng(4))
    assert (c1, k1) == (c2, k2)
    assert k1.length == params.ell
    assert 0 <= c1.g < (1 << params.t)


def test_encap_tag_collision_rate():
    # two independent encapsulations of the same sample collide on the
    # tag with probability about 2^-t when the multipliers differ
    src = deterministic_pair_source()
    params = derive_params(src, 12, 0.5, 0.25, 0, ell_target=1)
    x = sample_n(src, 12, seed=2).x
    rng = np.random.default_rng(9)
    trials, hits = 10_000, 0
    for _ in range(trials):
        ca, _ = encap(params, src, x, rng)
        cb, _ = encap(params, src, x, rng)
        if ca.s.a != cb.s.a and ca.g == cb.g:
            hits += 1
    p = 2.0**-params.t
    se = np.sqrt(trials * p * (1 - p))
    assert abs(hits - trials * p) <= 5 * se


def test_enumerate_typical_spec_examples():
    det = deterministic_pair_source()
    got = [tuple(v) for v in enumerate_typical(det, [0, 1, 1], 0.0)]
    assert got == [(0, 1, 1)]

    sat = satellite_source(0.1, 0.1, 0.3)
    got = [tuple(v) for v in enumerate_typical(sat, [0, 0], 0.6)]
    assert got == [(0, 0)]

    # saturation: every vector with nonzero conditional probability
    src = make_table_source(
        (2, 2, 1), {(0, 0, 0): 0.4, (1, 0, 0): 0.1, (1, 1, 0): 0.5}
    )
    nu_max = 2 * surprisal(src, [1], [0])
    got = [tuple(v) for v in enumerate_typical(src, [0, 0], nu_max)]
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_typical_matches_brute_force(rng):
    for _ in range(40):
        nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        n = int(rng.integers(1, 5))
        pmf = rng.random((nx, ny, 1)) * (rng.random((nx, ny, 1)) < 0.8)
        pmf[0, 0, 0] += 0.2
        pmf /= pmf.sum()
        src = make_table_source(
            (nx, ny, 1),
            {(x, y, 0): pmf[x, y, 0] for x in range(nx) for y in range(ny)},
        )
        py = pmf.sum(axis=(0, 2))
        y_vec = np.array([int(v) for v in rng.integers(0, ny, size=n)])
        if any(py[v] <= 0 for v in y_vec):
            continue
        nu = float(rng.random() * 3 * n)
        fast = [tuple(v) for v in enumerate_typical(src, y_vec, nu)]
        brute = [
            xv
            for xv in product(range(nx), repeat=n)
            if surprisal(src, np.array(xv), y_vec) <= nu
        ]
        assert fast == brute  # same set, same (lexicographic) order
        assert len(fast) <= 2.0**nu + 1e-9  # mass bound on the list size


def test_decap_roundtrip_and_tamper():
    src = deterministic_pair_source()
    params = derive_params(src, 24, 0.5, 0.25, 0)
    triple = sample_n(src, 24, seed=5)
    rng = np.random.default_rng(6)
    ctxt, key = encap(params, src, triple.x, rng)
    assert decap(params, src, triple.y, ctxt) == key

    bad = IkemCiphertext(ctxt.g ^ 1, ctxt.s_prime, ctxt.s)
    assert decap(params, src, triple.y, bad) is BOTTOM


def test_decap_output_is_key_or_bottom():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=6, eps=0.3, ell=5)
    rng = np.random.default_rng(11)
    seen_bottom = False
    for trial in range(200):
        triple = sample_n(src, 6, seed=trial)
        ctxt, key = encap(params, src, triple.x, rng)
        got = decap(params, src, triple.y, ctxt)
        if got is BOTTOM:
            seen_bottom = True
        else:
            assert got.length == params.ell
    assert seen_bottom or True  # failure is allowed, never required


def test_decap_validates_lengths():
    src = deterministic_pair_source()
    params = derive_params(src, 8, 0.5, 0.25, 0)
    triple = sample_n(src, 8, seed=3)
    ctxt, _ = encap(params, src, triple.x, np.random.default_rng(1))
    with pytest.raises(LengthMismatch):
        decap(params, src, triple.y[:4], ctxt)
    with pytest.raises(LengthMismatch):
        decap(params, src, triple.y, IkemCiphertext(1 << params.t, ctxt.s_prime, ctxt.s))
    # out-of-alphabet receiver symbols: -1 must not wrap to the last
    # symbol through numpy indexing, |Y| must not raise a bare IndexError
    for bad in (-1, 2):
        y_vec = triple.y.copy()
        y_vec[0] = bad
        with pytest.raises(LengthMismatch):
            decap(params, src, y_vec, ctxt)


def test_roundtrip_exhaustive_micro():
    # whenever x is in the candidate list and no other candidate shares
    # its tag, decapsulation must return the encapsulated key: checked
    # over all (x, y) pairs and every tag seed of a tiny instance
    pmf = {
        (0, 0, 0): 0.35,
        (1, 1, 0): 0.3,
        (1, 0, 0): 0.1,
        (0, 1, 0): 0.05,
        (2, 2, 0): 0.2,
    }
    src = make_table_source((3, 3, 1), pmf)
    params = IkemParams(
        n=2, t=2, ell=2, nu=5.0, eps=0.5, sigma=0.25, q_e=0, source_digest="m"
    )
    w = hash_width(src, params)
    assert w == 4
    tspec, kspec = tag_spec(src, params), key_spec(src, params)
    s_prime = UhfSeed(0b0110, 0b1011)
    pxy = src.pmf.sum(axis=2)
    for y_pair in product(range(3), repeat=2):
        y_vec = np.array(y_pair)
        cands = [tuple(v) for v in enumerate_typical(src, y_vec, params.nu)]
        for x_pair in product(range(3), repeat=2):
            if pxy[x_pair[0], y_pair[0]] * pxy[x_pair[1], y_pair[1]] == 0:
                continue
            if tuple(x_pair) not in cands:
                continue
            code = encode_sample(src, params, np.array(x_pair))
            for a in range(1 << w):
                for b in range(0, 1 << w, 5):  # stride the mask, it cancels
                    seed = UhfSeed(a, b)
                    g = hash_value(tspec, seed, code)
                    others = [
                        c
                        for c in cands
                        if c != tuple(x_pair)
                        and hash_value(tspec, seed, encode_sample(src, params, np.array(c))) == g
                    ]
                    if others:
                        continue
                    ctxt = IkemCiphertext(g, s_prime, seed)
                    got = decap(params, src, y_vec, ctxt)
                    assert got is not BOTTOM
                    assert got.bits == hash_value(kspec, s_prime, code)


def test_decap_failure_rate_within_eps():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=8, eps=0.25, ell=8)
    rng = np.random.default_rng(13)
    trials, failures = 3000, 0
    from corrkem.source import sample_with_rng

    for _ in range(trials):
        triple = sample_with_rng(src, 8, rng)
        ctxt, key = encap(params, src, triple.x, rng)
        got = decap(params, src, triple.y, ctxt)
        if got is BOTTOM or got != key:
            failures += 1
    rate = failures / trials
    assert rate <= 0.25 + 3 * np.sqrt(0.25 * 0.75 / trials)


def test_hash_width_covers_tag_and_key():
    src = satellite_source(0.05, 0.05, 0.3)
    params = reliability_params(src, n=8, eps=0.25, ell=8)
    assert params.t == 11
    assert hash_width(src, params) == 11  # t exceeds the 8 encoded bits
