"""One-time data encapsulation: pads, keystream, perfect secrecy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrkem import SCHEME_OTP, SCHEME_STREAM, DemCiphertext, IkemKey
from corrkem.dem import decrypt, encrypt
from corrkem.errors import FormatError

# keystream block for the all-zero 256-bit key, zero nonce, counter 0,
# from the cipher's published specification test vectors
CHACHA_ZERO_KEYSTREAM = bytes.fromhex(
    "76b8e0ada0f13d90405d6ae55386bd28"
    "bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a37"
    "6a43b8f41518a11cc387b669b2ee6586"
)


def test_otp_zero_key_is_identity():
    key = IkemKey(0, 64)
    msg = b"\xde\xad\xbe\xef"
    assert encrypt(key, msg, SCHEME_OTP).body == msg


def test_otp_xor_table():
    # byte-scale version of the 4-bit truth table: 0xAA ^ 0x66 = 0xCC
    key = IkemKey(0xAA, 8)
    out = encrypt(key, b"\x66", SCHEME_OTP)
    assert out.body == b"\xcc"
    assert decrypt(key, out) == b"\x66"


def test_otp_uses_top_bits_for_short_messages():
    key = IkemKey(0b1010_1100_1, 9)  # 9-bit key, top byte is 0xAC << ...
    out = encrypt(key, b"\x00", SCHEME_OTP)
    assert out.body == bytes([0b1010_1100])


def test_otp_rejects_long_messages():
    with pytest.raises(FormatError, match="16 bits of data exceed the 8-bit key"):
        encrypt(IkemKey(0, 8), b"ab", SCHEME_OTP)
    with pytest.raises(FormatError, match="16 bits of data exceed the 8-bit key"):
        decrypt(IkemKey(0, 8), DemCiphertext(b"ab", "OTP"))


def test_otp_roundtrip_exhaustive_single_byte():
    for key_bits in range(256):
        key = IkemKey(key_bits, 8)
        for m in (0, 1, 127, 200, 255):
            msg = bytes([m])
            assert decrypt(key, encrypt(key, msg, SCHEME_OTP)) == msg


@settings(max_examples=300, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.integers(min_value=0))
def test_otp_roundtrip_property(message, key_seed):
    length = max(1, 8 * len(message))
    key = IkemKey(key_seed % (1 << length), length)
    assert decrypt(key, encrypt(key, message, SCHEME_OTP)) == message


def test_otp_perfect_secrecy_exhaustive():
    # with uniform keys the ciphertext distribution is exactly uniform
    # for every message: SD between any two message distributions is 0
    dists = {}
    for m in (0x00, 0x41, 0x9F, 0xFF):
        counts = np.zeros(256)
        for key_bits in range(256):
            body = encrypt(IkemKey(key_bits, 8), bytes([m]), SCHEME_OTP).body[0]
            counts[body] += 1
        dists[m] = counts / 256
    msgs = list(dists)
    for i in range(len(msgs)):
        for j in range(i + 1, len(msgs)):
            assert 0.5 * np.abs(dists[msgs[i]] - dists[msgs[j]]).sum() == 0.0


def test_stream_keystream_matches_published_vector():
    key = IkemKey(0, 256)
    out = encrypt(key, b"\x00" * 64, SCHEME_STREAM)
    assert out.body == CHACHA_ZERO_KEYSTREAM


def test_stream_roundtrip_1kib():
    rng = np.random.default_rng(8)
    key = IkemKey(int.from_bytes(rng.bytes(32), "big"), 256)
    msg = rng.bytes(1024)
    out = encrypt(key, msg, SCHEME_STREAM)
    assert len(out.body) == len(msg)
    assert decrypt(key, out) == msg


def test_stream_distinct_keys_distinct_bodies():
    rng = np.random.default_rng(10)
    msg = b"fixed message with entropy 0123456789"
    seen = set()
    for _ in range(1000):
        key = IkemKey(int.from_bytes(rng.bytes(32), "big"), 256)
        seen.add(encrypt(key, msg, SCHEME_STREAM).body)
    assert len(seen) == 1000


def test_stream_rejects_wrong_key_length():
    with pytest.raises(FormatError, match="stream scheme needs 256-bit keys, got 128"):
        encrypt(IkemKey(0, 128), b"hi", SCHEME_STREAM)
    with pytest.raises(FormatError, match="stream scheme needs 256-bit keys, got 255"):
        decrypt(IkemKey(0, 255), DemCiphertext(b"hi", "STREAM"))


def test_ciphertext_length_leaks_only_message_length():
    otp_key = IkemKey(0x3FF, 64)
    stream_key = IkemKey(7, 256)
    for size in (0, 1, 5, 8):
        msg = bytes(range(size))
        assert len(encrypt(otp_key, msg, SCHEME_OTP).body) == size
        assert len(encrypt(stream_key, msg, SCHEME_STREAM).body) == size
