"""One-time data encapsulation under an encapsulated key.

Two schemes share the key space:

* OTP    - message XOR key prefix; information-theoretically secret,
           message capped at the key length.
* STREAM - message XOR ChaCha20 keystream; the key must be exactly
           256 bits.  The nonce is fixed to all zeros with counter 0,
           which is sound here because every key is used once.

Keys are the :class:`~corrkem.ikem.IkemKey` bit strings (int +
declared length) that decapsulation returns; the bit string maps to
bytes big-endian with zero-padded high bits, matching the key-file
wire format.
"""

from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms

from .errors import BadKeyLength, DimensionMismatch, KeyTooShort
from .ikem import IkemKey

SCHEME_OTP = "OTP"
SCHEME_STREAM = "STREAM"
STREAM_KEY_BITS = 256


@dataclass(frozen=True)
class DemCiphertext:
    body: bytes
    scheme_tag: str

    def __post_init__(self):
        if self.scheme_tag not in (SCHEME_OTP, SCHEME_STREAM):
            raise DimensionMismatch(f"unknown scheme {self.scheme_tag!r}")


def otp_encrypt(key: IkemKey, message: bytes) -> DemCiphertext:
    """XOR with the top bits of the key; needs |message| <= |key| bits."""
    nbits = 8 * len(message)
    if nbits > key.length:
        raise KeyTooShort(f"{nbits}-bit message, {key.length}-bit key")
    return DemCiphertext(_xor_prefix(key, message), SCHEME_OTP)


def otp_decrypt(key: IkemKey, ctxt: DemCiphertext) -> bytes:
    nbits = 8 * len(ctxt.body)
    if nbits > key.length:
        raise KeyTooShort(f"{nbits}-bit ciphertext, {key.length}-bit key")
    return _xor_prefix(key, ctxt.body)


def _xor_prefix(key: IkemKey, data: bytes) -> bytes:
    if not data:
        return b""
    nbits = 8 * len(data)
    prefix = key.bits >> (key.length - nbits)
    return (int.from_bytes(data, "big") ^ prefix).to_bytes(len(data), "big")


def stream_encrypt(key: IkemKey, message: bytes) -> DemCiphertext:
    """XOR with a ChaCha20 keystream; arbitrary message length."""
    return DemCiphertext(_chacha_xor(key, message), SCHEME_STREAM)


def stream_decrypt(key: IkemKey, ctxt: DemCiphertext) -> bytes:
    return _chacha_xor(key, ctxt.body)


def _chacha_xor(key: IkemKey, data: bytes) -> bytes:
    if key.length != STREAM_KEY_BITS:
        raise BadKeyLength(f"stream scheme needs {STREAM_KEY_BITS}-bit keys, got {key.length}")
    raw = key.bits.to_bytes(STREAM_KEY_BITS // 8, "big")
    algo = algorithms.ChaCha20(raw, b"\x00" * 16)  # zero counter, zero nonce
    return Cipher(algo, mode=None).encryptor().update(data)


def encrypt(key: IkemKey, message: bytes, scheme_tag: str) -> DemCiphertext:
    if scheme_tag == SCHEME_OTP:
        return otp_encrypt(key, message)
    if scheme_tag == SCHEME_STREAM:
        return stream_encrypt(key, message)
    raise DimensionMismatch(f"unknown scheme {scheme_tag!r}")


def decrypt(key: IkemKey, ctxt: DemCiphertext) -> bytes:
    if ctxt.scheme_tag == SCHEME_OTP:
        return otp_decrypt(key, ctxt)
    return stream_decrypt(key, ctxt)
