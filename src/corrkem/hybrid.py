"""Hybrid encryption over the preprocessing resource.

Gen is :func:`corrkem.source.sample_n`, one n-fold correlated draw.
Enc encapsulates a key from the sender's sample and feeds it to the
one-time DEM, Dec decapsulates and decrypts.  A decapsulation failure
propagates as BOTTOM without ever touching the DEM; mismatched
session digests are a format error, not a protocol failure.
"""

from dataclasses import dataclass

import numpy as np

from .dem import SCHEME_OTP, DemCiphertext, decrypt, encrypt
from .ikem import BOTTOM, IkemCiphertext, IkemParams, decap, encap
from .source import JointSource


@dataclass(frozen=True)
class HybridCiphertext:
    c1: IkemCiphertext
    c2: DemCiphertext


def he_encrypt(
    params: IkemParams,
    source: JointSource,
    x_vec,
    message: bytes,
    rng: np.random.Generator,
    scheme_tag: str = SCHEME_OTP,
) -> HybridCiphertext:
    """Encapsulate a key and encrypt under it; the DEM raises
    FormatError when ell does not fit the scheme."""
    c1, key = encap(params, source, x_vec, rng)
    c2 = encrypt(key, message, scheme_tag)
    return HybridCiphertext(c1, c2)


def he_decrypt(params: IkemParams, source: JointSource, y_vec, ctxt: HybridCiphertext):
    """The message, or BOTTOM exactly when decapsulation fails."""
    key = decap(params, source, y_vec, ctxt.c1)
    if key is BOTTOM:
        return BOTTOM
    return decrypt(key, ctxt.c2)
