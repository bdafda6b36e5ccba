"""Update compression: codecs, error feedback, and the registry.

The subsystem the Link plugs in for lossy pseudo-gradient transport:
quantization (fp16/int8/int4, stochastic rounding) and sparsification
(top-k/rand-k) stages composed behind the lossless zlib container,
with per-client error-feedback memory so biased codecs stay
convergent.  ``make_codec("none")`` returns ``None`` — the Link's
lossless default, the same container over float32 arrays.
"""

from .codec import (
    COMPRESSION_SPECS,
    DEFAULT_REGISTRY,
    Codec,
    CodecRegistry,
    CodecStage,
    Fp16Codec,
    Fp16Stage,
    Int4Codec,
    Int4Stage,
    Int8Codec,
    Int8Stage,
    RandKCodec,
    RandKStage,
    TopKCodec,
    TopKStage,
    make_codec,
)
from .error_feedback import ErrorFeedback

__all__ = [
    "Codec",
    "CodecStage",
    "CodecRegistry",
    "Fp16Codec",
    "Int8Codec",
    "Int4Codec",
    "TopKCodec",
    "RandKCodec",
    "Fp16Stage",
    "Int8Stage",
    "Int4Stage",
    "TopKStage",
    "RandKStage",
    "ErrorFeedback",
    "make_codec",
    "DEFAULT_REGISTRY",
    "COMPRESSION_SPECS",
]
