"""Bit-channel reliability and information/secure set selection.

For the BEC the per-index parameters come from the exact polarization
recursion z -> (2z - z^2, z^2); for the BSC they are genie-aided
Monte-Carlo estimates of each bit-channel's error indicator.
Selection is size-based: the k most reliable indices, ties broken toward
the smaller index, which is the finite-length stand-in for the asymptotic
threshold sets.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import RngStream, bsc_llr_magnitude, bsc_sample_rows
from .gf2 import _check_index_set, _check_integer, _check_probability, _check_seed
from .polar import CodeParams, transform_rows
from .sc import genie_llr_rows

__all__ = [
    "BSC",
    "ReliabilityProfile",
    "bec_reliability",
    "mc_reliability",
    "select_info_set",
    "select_secure_subset",
]


@dataclass(frozen=True)
class BSC:
    """Binary symmetric channel."""

    crossover_prob: float

    def __post_init__(self):
        _check_probability(self.crossover_prob, "crossover probability", 0.5)


@dataclass(frozen=True)
class ReliabilityProfile:
    """Per-bit-channel unreliability, index-aligned with the encoder.

    ``exact`` is True only for profiles produced by the BEC recursion,
    where z[i] is exactly the erasure probability of bit-channel i.
    ``order`` lists every index from most to least reliable (ascending z,
    ties toward the smaller index); it is computed once and read-only,
    and both selectors read it.
    """

    params: CodeParams
    z: np.ndarray
    exact: bool
    order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.shape != (self.params.N,):
            raise ValueError(f"profile must have length {self.params.N}, got {z.shape}")
        if not np.all((z >= 0.0) & (z <= 1.0)):  # NaN fails both
            raise ValueError("profile values must lie in [0, 1]")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        order = np.argsort(z, kind="stable")
        order.setflags(write=False)
        object.__setattr__(self, "order", order)


def bec_reliability(n: int, erasure_prob: float) -> ReliabilityProfile:
    """Exact Bhattacharyya parameters of all 2^n BEC bit-channels.

    Each polarization stage maps z to (2z - z^2, z^2), interleaved so the
    output is in the same index order the encoder and decoder use.  The
    stage preserves the mean exactly and values are clamped to [0, 1] to
    absorb rounding.
    """
    params = CodeParams(n)
    _check_probability(erasure_prob, "erasure_prob")
    z = np.array([erasure_prob], dtype=np.float64)
    for _ in range(n):
        nxt = np.empty(2 * z.size, dtype=np.float64)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        np.clip(nxt, 0.0, 1.0, out=nxt)
        z = nxt
    return ReliabilityProfile(params, z, exact=True)


# Positions of one codeword chunk, one PRNG substream each.
_CHUNK_POSITIONS = 4_000_000


def _genie_batch_rows(chunk: int) -> int:
    """Rows of one genie batch of a ``chunk``-row chunk: half of it, rounded
    up, which at n=10 (3906-row chunks) still runs the genie's levels 0-4
    on codes."""
    return -(-chunk // 2)


def mc_reliability(channel: BSC, n: int, trials: int, seed: int) -> ReliabilityProfile:
    """Genie-aided SC Monte-Carlo estimate of each BSC bit-channel's error rate.

    Random inputs are encoded, passed through the channel, and decoded
    with every past decision replaced by the true bit; the per-index
    indicator is a hard-decision error.  Deterministic given (channel, n,
    trials, seed).

    The codewords go in chunks of about 4M positions (3906 rows at n=10),
    one PRNG substream each.  A chunk draws its inputs u (a byte per
    position) at once, then encodes, samples and runs the genie on batches
    of half a chunk.  A batch holds its codewords until they are sampled,
    its received bits y, and the genie's true bits and flags (a byte per
    position each) and uint16 codes (two bytes).  The flips and the
    genie's passes go in blocks of 2^18 positions, so one n=10 chunk peaks
    at about 19 MB.  Each row's flags depend on that row alone, and the
    batches draw their flips in stream order, so the batching changes no
    output.
    """
    _check_integer(trials, "trials", 1)
    _check_seed(seed)
    params = CodeParams(n)
    N = params.N
    counts = np.zeros(N, dtype=np.int64)
    chunk = max(1, _CHUNK_POSITIONS // N)
    batch = _genie_batch_rows(chunk)
    magnitude = bsc_llr_magnitude(channel.crossover_prob)
    done = 0
    chunk_index = 0
    while done < trials:
        size = min(chunk, trials - done)
        rng = RngStream(seed, chunk_index).generator()
        u = rng.integers(0, 2, size=(size, N), dtype=np.uint8)
        for r in range(0, size, batch):
            ub = u[r : r + batch]
            y = bsc_sample_rows(transform_rows(ub), channel.crossover_prob, rng)
            counts += genie_llr_rows(y, magnitude, ub).sum(axis=0)
        done += size
        chunk_index += 1
    return ReliabilityProfile(params, counts / trials, exact=False)


def select_info_set(profile: ReliabilityProfile, k: int) -> np.ndarray:
    """The k most reliable indices (the first k of ``profile.order``), sorted."""
    _check_integer(k, "k")
    if not 0 <= k <= profile.params.N:
        raise ValueError(f"k must be in [0, {profile.params.N}], got {k}")
    return np.sort(profile.order[:k])


def select_secure_subset(info_set, wiretap_profile: ReliabilityProfile, b: int) -> np.ndarray:
    """The b members of ``info_set`` with smallest wiretap-channel z, sorted:
    the first b entries of ``wiretap_profile.order`` that lie in the set."""
    info = _check_index_set(info_set, wiretap_profile.params.N, "info_set")
    _check_integer(b, "b", 0)
    if b > info.size:
        raise ValueError(f"subset size {b} exceeds |info_set| = {info.size}")
    order = wiretap_profile.order
    return np.sort(order[np.isin(order, info)][:b])
