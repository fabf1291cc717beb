"""Information-theoretic key encapsulation from correlated randomness.

Three parties receive private samples of a public joint distribution
during preprocessing.  The sender encapsulates a key with two strongly
universal hashes; the receiver recovers it by typical-set list
decoding; the eavesdropper's advantage is bounded information-
theoretically.  A one-time DEM and the hybrid composition sit on top,
and :mod:`corrkem.harness` re-derives the security bounds by exact
enumeration at micro scale and Monte Carlo at desk scale.
"""

from ._kernels import BACKEND
from .dem import SCHEME_OTP, SCHEME_STREAM, DemCiphertext
from .hybrid import HybridCiphertext, he_decrypt, he_encrypt
from .ikem import (
    BOTTOM,
    IkemCiphertext,
    IkemKey,
    IkemParams,
    decap,
    derive_lengths,
    derive_params,
    encap,
    enumerate_typical,
    hash_width,
    reliability_params,
    source_digest,
)
from .source import (
    JointSource,
    SampleTriple,
    avg_cond_min_entropy,
    make_table_source,
    product_source,
    sample_n,
    satellite_source,
    surprisal,
)
from .uhf import UhfSeed, UhfSpec, hash_value, pairwise_independence_census, sample_seed

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BOTTOM",
    "DemCiphertext",
    "HybridCiphertext",
    "IkemCiphertext",
    "IkemKey",
    "IkemParams",
    "JointSource",
    "SCHEME_OTP",
    "SCHEME_STREAM",
    "SampleTriple",
    "UhfSeed",
    "UhfSpec",
    "avg_cond_min_entropy",
    "decap",
    "derive_lengths",
    "derive_params",
    "encap",
    "enumerate_typical",
    "hash_value",
    "hash_width",
    "he_decrypt",
    "he_encrypt",
    "make_table_source",
    "pairwise_independence_census",
    "product_source",
    "reliability_params",
    "sample_n",
    "sample_seed",
    "satellite_source",
    "source_digest",
    "surprisal",
]
