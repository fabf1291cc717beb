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
wire format.  :func:`encrypt` and :func:`decrypt` are the whole
interface; each scheme is one XOR, its own inverse.
"""

from dataclasses import dataclass

from .errors import FormatError
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
            raise FormatError(f"unknown scheme {self.scheme_tag!r}")


def _xor_otp(key: IkemKey, data: bytes) -> bytes:
    """XOR with the top bits of the key; needs |data| <= |key| bits."""
    nbits = 8 * len(data)
    if nbits > key.length:
        raise FormatError(f"{nbits} bits of data exceed the {key.length}-bit key")
    pad = key.bits >> (key.length - nbits)
    return (int.from_bytes(data, "big") ^ pad).to_bytes(len(data), "big")


def _xor_stream(key: IkemKey, data: bytes) -> bytes:
    """XOR with a ChaCha20 keystream; any data length."""
    if key.length != STREAM_KEY_BITS:
        raise FormatError(f"stream scheme needs {STREAM_KEY_BITS}-bit keys, got {key.length}")
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms  # only this scheme needs it
    raw = key.bits.to_bytes(STREAM_KEY_BITS // 8, "big")
    algo = algorithms.ChaCha20(raw, b"\x00" * 16)  # zero counter, zero nonce
    return Cipher(algo, mode=None).encryptor().update(data)


# Both schemes XOR a pad into the data, so each is its own inverse.
_XOR = {SCHEME_OTP: _xor_otp, SCHEME_STREAM: _xor_stream}


def encrypt(key: IkemKey, message: bytes, scheme_tag: str) -> DemCiphertext:
    xor = _XOR.get(scheme_tag)
    if xor is None:
        raise FormatError(f"unknown scheme {scheme_tag!r}")
    return DemCiphertext(xor(key, message), scheme_tag)


def decrypt(key: IkemKey, ctxt: DemCiphertext) -> bytes:
    return _XOR[ctxt.scheme_tag](key, ctxt.body)
