"""Seeded stochastic channel samplers shared by the wiretap and relay drivers.

All randomness flows through numpy's PCG64.  A sampler stream is addressed
by (master_seed, stream_id); identical addresses replay identical
realizations, which is what makes trials independently farmable and every
experiment byte-reproducible.  Erasures are drawn by thresholding uniforms
(erase iff draw < eps), so runs that differ only in an erasure probability
are coupled monotonically when they share a stream.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf2 import BitVector
from .sc import ERASED, LLR_CAP, ReceivedWord

__all__ = [
    "GENERATOR_NAME",
    "RngStream",
    "bec_sample",
    "cascade_erasure",
    "bsc_sample",
    "bec_sample_rows",
    "bsc_sample_rows",
    "cascade_rows",
]

# Recorded in experiment CSV headers for reproducibility.
GENERATOR_NAME = "numpy-PCG64"


@dataclass(frozen=True)
class RngStream:
    """Address of an independent PCG64 substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence([self.master_seed, self.stream_id])
        return np.random.Generator(np.random.PCG64(seq))


def bec_sample_rows(x: np.ndarray, erasure_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Erase each position of a (batch, N) uint8 array independently."""
    draws = rng.random(x.shape)
    return np.where(draws < erasure_prob, np.int8(ERASED), x.astype(np.int8))


def cascade_rows(y: np.ndarray, extra_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Further erase a batch of three-valued words; erased stays erased.

    Draws one uniform per position (erased or not) so the stream layout is
    independent of the input pattern.
    """
    draws = rng.random(y.shape)
    return np.where(draws < extra_prob, np.int8(ERASED), y)


def bec_sample(x: BitVector, erasure_prob: float, rng: np.random.Generator) -> ReceivedWord:
    """Pass a codeword through a binary erasure channel."""
    if not 0.0 <= erasure_prob <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {erasure_prob}")
    return ReceivedWord.from_symbols(bec_sample_rows(x.bits[None, :], erasure_prob, rng)[0])


def cascade_erasure(y1: ReceivedWord, extra_prob: float, rng: np.random.Generator) -> ReceivedWord:
    """Degrade an erasure-channel output by further independent erasures."""
    if y1.kind != "erasure":
        raise ValueError("cascade_erasure expects an erasure received word")
    if not 0.0 <= extra_prob <= 1.0:
        raise ValueError(f"erasure probability must be in [0, 1], got {extra_prob}")
    return ReceivedWord.from_symbols(cascade_rows(y1.values[None, :], extra_prob, rng)[0])


def bsc_llr_magnitude(crossover_prob: float) -> float:
    """Per-symbol LLR magnitude ln((1-p)/p), clamped to the decoder cap."""
    if crossover_prob == 0.0:
        return LLR_CAP
    return min(math.log((1.0 - crossover_prob) / crossover_prob), LLR_CAP)


def bsc_sample(x: BitVector, crossover_prob: float, rng: np.random.Generator) -> ReceivedWord:
    """Pass a codeword through a binary symmetric channel, emitting LLRs."""
    if not 0.0 <= crossover_prob <= 0.5:
        raise ValueError(f"crossover probability must be in [0, 1/2], got {crossover_prob}")
    return ReceivedWord.from_llrs(bsc_sample_rows(x.bits[None, :], crossover_prob, rng)[0])


def bsc_sample_rows(x: np.ndarray, crossover_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each position of a (batch, N) uint8 array independently; returns
    the (batch, N) float64 LLRs."""
    flips = rng.random(x.shape) < crossover_prob
    return (1.0 - 2.0 * (x ^ flips)) * bsc_llr_magnitude(crossover_prob)
