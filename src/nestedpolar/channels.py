"""Seeded stochastic channel samplers shared by the wiretap and relay drivers.

All randomness flows through numpy's PCG64.  A sampler stream is addressed
by (master_seed, stream_id); identical addresses replay identical
realizations, which is what makes trials independently farmable and every
experiment byte-reproducible.  Erasures are drawn by thresholding uniforms
(erase iff draw < eps), so runs that differ only in an erasure probability
are coupled monotonically when they share a stream.  Each sampler maps an
array of words, one per row, to its channel outputs in the same shape.

The erasure pattern does not depend on the input: one uniform is drawn per
position whatever the symbol there.  ERASED is all ones in int8, so on twin
generators ``bec_sample_rows(x, p, rng)`` equals the sampler's output on the
all-zero word ORed with x, and for a pattern e over {ERASED, 0} the cascade
of ``e | x`` is the cascade of e ORed with x.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf2 import _check_integer
from .sc import ERASED

__all__ = [
    "GENERATOR_NAME",
    "RngStream",
    "bec_sample_rows",
    "bsc_sample_rows",
    "cascade_rows",
]

# Recorded in experiment CSV headers for reproducibility.
GENERATOR_NAME = "numpy-PCG64"

# bsc_llr_magnitude clamps to this, so the BSC sampler emits no larger LLR
# magnitude, even at crossover 0, and the genie's combines stay well-scaled.
LLR_CAP = 40.0


@dataclass(frozen=True)
class RngStream:
    """Address of an independent PCG64 substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            _check_integer(getattr(self, name), name, 0)
        if self.master_seed >= 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence([self.master_seed, self.stream_id])
        return np.random.Generator(np.random.PCG64(seq))


def bec_sample_rows(x: np.ndarray, erasure_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Erase each position of an integer or bool array of 0/1 symbols or
    three-valued words independently (erased stays erased); returns int8.
    ``cascade_rows`` is this sampler.  One uniform is drawn per position,
    erased or not, so the pattern does not depend on the input."""
    if not 0.0 <= erasure_prob <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {erasure_prob}")
    if x.dtype.kind not in "biu":
        raise ValueError(f"x must be an integer or bool array, got dtype {x.dtype}")
    # ERASED is all ones, so the erased mask times ERASED ORed with x erases
    # without a branch on the unpredictable mask
    y = (rng.random(x.shape) < erasure_prob).view(np.int8)
    np.multiply(y, np.int8(ERASED), out=y)
    return np.bitwise_or(y, x, out=y, dtype=np.int8, casting="unsafe")


cascade_rows = bec_sample_rows


def bsc_llr_magnitude(crossover_prob: float) -> float:
    """Per-symbol LLR magnitude ln((1-p)/p), clamped to the decoder cap."""
    if crossover_prob == 0.0:
        return LLR_CAP
    return min(math.log((1.0 - crossover_prob) / crossover_prob), LLR_CAP)


def bsc_sample_rows(x: np.ndarray, crossover_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each position of a (batch, N) integer or bool array of 0/1
    symbols independently, iff its uniform draw is below the crossover
    probability; returns the (batch, N) uint8 received bits, each of LLR
    magnitude ``bsc_llr_magnitude(crossover_prob)``."""
    if not 0.0 <= crossover_prob <= 0.5:
        raise ValueError(f"crossover probability must be in [0, 1/2], got {crossover_prob}")
    if x.dtype.kind not in "biu":
        raise ValueError(f"x must be 0 or 1 of an integer or bool dtype, got {x.dtype}")
    if x.size and (x.min() < 0 or x.max() > 1):
        raise ValueError(f"x must be 0 or 1, got values in [{x.min()}, {x.max()}]")
    y = (rng.random(x.shape) < crossover_prob).view(np.uint8)
    return np.bitwise_xor(y, x, out=y, dtype=np.uint8, casting="unsafe")
