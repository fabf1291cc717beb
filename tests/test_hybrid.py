"""Hybrid composition: round trips, bottom propagation, failure parity."""

import numpy as np
import pytest

from corrkem import (
    BOTTOM,
    HybridCiphertext,
    IkemCiphertext,
    SCHEME_OTP,
    SCHEME_STREAM,
    decap,
    derive_params,
    encap,
    he_decrypt,
    he_encrypt,
    reliability_params,
    sample_n,
    satellite_source,
)
from corrkem.errors import FormatError
from corrkem.source import sample_with_rng

from conftest import deterministic_pair_source


def test_otp_roundtrip_over_deterministic_source():
    src = deterministic_pair_source()
    params = derive_params(src, 64, 0.5, 2.0**-8, 0)
    triple = sample_n(src, 64, seed=1)
    rng = np.random.default_rng(2)
    for msg in (b"", b"A", b"hello!"):
        ctxt = he_encrypt(params, src, triple.x, msg, rng, SCHEME_OTP)
        assert he_decrypt(params, src, triple.y, ctxt) == msg


def test_empty_message_keeps_full_kem_block():
    src = deterministic_pair_source()
    params = derive_params(src, 32, 0.5, 0.25, 0)
    triple = sample_n(src, 32, seed=7)
    ctxt = he_encrypt(params, src, triple.x, b"", np.random.default_rng(1), SCHEME_OTP)
    assert ctxt.c2.body == b""
    assert 0 <= ctxt.c1.g < (1 << params.t)


def test_stream_roundtrip_requires_ell_256():
    src = deterministic_pair_source()
    params = derive_params(src, 280, 0.5, 2.0**-8, 0, ell_target=256)
    triple = sample_n(src, 280, seed=3)
    rng = np.random.default_rng(5)
    msg = bytes(np.random.default_rng(0).bytes(300))
    ctxt = he_encrypt(params, src, triple.x, msg, rng, SCHEME_STREAM)
    assert he_decrypt(params, src, triple.y, ctxt) == msg

    short = derive_params(src, 64, 0.5, 0.25, 0)
    with pytest.raises(FormatError, match="stream scheme needs 256-bit keys"):
        he_encrypt(params=short, source=src, x_vec=triple.x[:64], message=msg,
                   rng=rng, scheme_tag=SCHEME_STREAM)


def test_otp_message_longer_than_key_rejected():
    src = deterministic_pair_source()
    params = derive_params(src, 32, 0.5, 0.25, 0)
    triple = sample_n(src, 32, seed=9)
    with pytest.raises(FormatError, match="320 bits of data exceed the"):
        he_encrypt(params, src, triple.x, b"x" * 40, np.random.default_rng(1), SCHEME_OTP)


def test_bottom_propagates_from_tampered_tag():
    src = deterministic_pair_source()
    params = derive_params(src, 48, 0.5, 0.25, 0)
    triple = sample_n(src, 48, seed=11)
    ctxt = he_encrypt(params, src, triple.x, b"msg", np.random.default_rng(3), SCHEME_OTP)
    bad = HybridCiphertext(
        IkemCiphertext(ctxt.c1.g ^ 1, ctxt.c1.s_prime, ctxt.c1.s), ctxt.c2
    )
    assert he_decrypt(params, src, triple.y, bad) is BOTTOM


def test_failure_events_match_decapsulation_exactly():
    # the DEM is perfectly correct, so the hybrid fails iff decap does
    src = satellite_source(0.08, 0.08, 0.3)
    params = reliability_params(src, n=6, eps=0.4, ell=16)
    rng = np.random.default_rng(21)
    mismatches = 0
    bottoms = 0
    for _ in range(400):
        triple = sample_with_rng(src, 6, rng)
        state = rng.bit_generator.state
        ctxt = he_encrypt(params, src, triple.x, b"mm", rng, SCHEME_OTP)
        rng.bit_generator.state = state
        kem_ctxt, key = encap(params, src, triple.x, rng)
        assert kem_ctxt == ctxt.c1  # same rng state, same encapsulation
        plain = he_decrypt(params, src, triple.y, ctxt)
        kem_out = decap(params, src, triple.y, kem_ctxt)
        if plain is BOTTOM:
            bottoms += 1
            assert kem_out is BOTTOM
        else:
            assert kem_out is not BOTTOM
            if plain != b"mm":
                mismatches += 1
                assert kem_out != key
    assert mismatches + bottoms < 400  # sanity: some trials succeed
