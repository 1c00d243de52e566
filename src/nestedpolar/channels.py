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

``RngStreams`` seeds a batch of addresses (master_seed, stream_id) in one
vectorised pass of SeedSequence's hashing and PCG64's seeding step, which
NumPy fixes across versions (NEP 19); each address starts exactly where
``RngStream(master_seed, stream_id).generator()`` does.  Iterating the
batch restates one generator per address.  ``bec_sample_rows`` takes such
a batch with one address per row of a 2-D x: row r is drawn exactly as a
one-row call on the r-th address's generator would draw it, so a batch of
rows from separate substreams costs one call and no stacking.  The batch's
``bits(k)`` gives each address the k bits ``integers(0, 2, k,
dtype=np.uint8)`` draws, read off raw 64-bit words.
"""
from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .gf2 import _check_dtype, _check_integer, _check_probability, _check_seed, _check_values
from .sc import ERASED

__all__ = [
    "GENERATOR_NAME",
    "RngStream",
    "RngStreams",
    "bec_sample_rows",
    "bsc_sample_rows",
    "cascade_rows",
]

# Recorded in experiment CSV headers for reproducibility.
GENERATOR_NAME = "numpy-PCG64"

# Cells of one block of BSC uniform draws: 2 MB of float64, so that a
# chunk of many rows never holds a float64 draw per position at once.
_SAMPLE_BLOCK_CELLS = 1 << 18

# bsc_llr_magnitude clamps to this, so the genie reads the BSC's received
# bits as LLRs of no larger magnitude, even at crossover 0, and its combines
# stay well-scaled.
LLR_CAP = 40.0


@dataclass(frozen=True)
class RngStream:
    """Address of an independent PCG64 substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_seed(self.master_seed, "master_seed")
        _check_integer(self.stream_id, "stream_id", 0)

    def generator(self) -> np.random.Generator:
        # SeedSequence([seed, id]) hashes the little-endian 32-bit words of
        # each int in turn; handed those words as one uint32 array, it seeds
        # the same state and skips its slow per-int conversion
        words = _uint32_words(int(self.master_seed)) + _uint32_words(int(self.stream_id))
        seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
        return np.random.Generator(np.random.PCG64(seq))


def _uint32_words(value: int) -> list[int]:
    """The little-endian 32-bit words of a nonnegative int; 0 is one word."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


# SeedSequence's hashing constants and PCG64's 128-bit multiplier, as NumPy
# fixes them (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hash step on uint32 arrays, with its constant
    stepping by ``mult`` per call.  The constant steps alike for every row,
    so it is one Python int; the rows wrap mod 2**32 as uint32 arrays."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & 0xFFFFFFFF
        value *= np.uint32(hash_const)
        value ^= value >> np.uint32(16)
        return value
    return hashmix


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(8, np.uint32)`` for each row of a
    (batch, L) uint32 entropy array, in one pass over the batch."""
    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        result ^= result >> np.uint32(16)
        return result

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))
    generate = _hasher(_INIT_B, _MULT_B)
    return np.stack([generate(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)


class RngStreams:
    """A batch of substream addresses (master_seed, stream_id), one per id,
    seeded in one vectorised pass.

    Iterating the batch yields, address by address, a generator in the
    state ``RngStream(master_seed, stream_id).generator()`` starts in.  It
    is one generator, restated through ``bit_generator.state`` for each
    address, so each yielded generator is valid only until the next one is
    taken (its ``seed_seq`` is not the address's)."""

    def __init__(self, master_seed: int, stream_ids):
        _check_seed(master_seed, "master_seed")
        ids = list(stream_ids)
        for stream_id in ids:
            _check_integer(stream_id, "stream_id", 0)
        # SeedSequence hashes the 32-bit words of the seed, then of the id;
        # one pass per entropy length
        entropy = [_uint32_words(int(master_seed)) + _uint32_words(int(i)) for i in ids]
        words = np.empty((len(ids), 8), dtype=np.uint32)
        for length in set(map(len, entropy)):
            rows = [r for r, e in enumerate(entropy) if len(e) == length]
            words[rows] = _seed_words(np.array([entropy[r] for r in rows], dtype=np.uint32))
        # generate_state(4, np.uint64) reads the words as little-endian
        # uint64; PCG64 seeds state (hi, lo) = words 0, 1 and sequence 2, 3
        # as pcg_setseq_128_srandom_r does: inc = 2 initseq + 1, then two
        # steps of state = state * MULT + inc from 0 with initstate added
        self._states = []
        for s_hi, s_lo, q_hi, q_lo in words.astype("<u4").view("<u8").tolist():
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
            self._states.append({"state": state, "inc": inc})

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        bit_generator = rng.bit_generator
        for state in self._states:
            bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
            yield rng

    def bits(self, k: int) -> np.ndarray:
        """(len(self), k) uint8: row r is the k bits that
        ``integers(0, 2, k, dtype=np.uint8)`` draws first from address r.
        That draw takes the top bit of each byte of 32-bit draws, low byte
        first, and PCG64 splits each 64-bit word low half first; so the bits
        are the top bits of the little-endian bytes of the first ceil(k / 8)
        raw words, read here without the per-bit bounded-integer path."""
        _check_integer(k, "k", 0)
        bits = np.empty((len(self), k), dtype=np.uint8)
        for row, rng in zip(bits, self):
            raw = rng.bit_generator.random_raw(-(-k // 8)).astype("<u8", copy=False)
            np.right_shift(raw.view(np.uint8)[:k], 7, out=row)
        return bits


def bec_sample_rows(x: np.ndarray, erasure_prob: float, rng) -> np.ndarray:
    """Erase each position of an integer or bool array of 0/1 symbols or
    three-valued words independently (erased stays erased); returns int8.
    ``cascade_rows`` is this sampler.  One uniform is drawn per position,
    erased or not, so the pattern does not depend on the input.  ``rng`` is
    one generator, or an ``RngStreams`` batch of one address per row of a
    2-D ``x``."""
    _check_probability(erasure_prob, "erasure_prob")
    x = _check_dtype("x", x)
    if isinstance(rng, np.random.Generator):
        y = rng.random(x.shape) < erasure_prob
    elif isinstance(rng, RngStreams):
        if x.ndim != 2 or len(rng) != len(x):
            raise ValueError(
                f"rng must be one generator per row of a 2-D x, got {len(rng)} for shape {x.shape}"
            )
        y = np.empty(x.shape, dtype=bool)
        for row, g in zip(y, rng):
            np.less(g.random(row.shape), erasure_prob, out=row)
    else:
        raise ValueError(f"rng must be a numpy Generator or an RngStreams batch, got {type(rng).__name__}")
    # ERASED is all ones, so the erased mask times ERASED ORed with x erases
    # without a branch on the unpredictable mask
    y = y.view(np.int8)
    np.multiply(y, np.int8(ERASED), out=y)
    return np.bitwise_or(y, x, out=y, dtype=np.int8, casting="unsafe")


cascade_rows = bec_sample_rows


def bsc_llr_magnitude(crossover_prob: float) -> float:
    """Per-symbol LLR magnitude ln((1-p)/p), clamped to the decoder cap."""
    _check_probability(crossover_prob, "crossover probability", 0.5)
    if crossover_prob == 0.0:
        return LLR_CAP
    return min(math.log((1.0 - crossover_prob) / crossover_prob), LLR_CAP)


def bsc_sample_rows(x: np.ndarray, crossover_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip each position of a (batch, N) integer or bool array of 0/1
    symbols independently, iff its uniform draw is below the crossover
    probability; returns the (batch, N) uint8 received bits, each of LLR
    magnitude ``bsc_llr_magnitude(crossover_prob)``.  The uniforms are
    drawn a block of rows at a time; the generator fills each block in
    stream order, so the draws are those of one whole-array draw."""
    _check_probability(crossover_prob, "crossover probability", 0.5)
    x = _check_values("x", x, 0, "0 or 1")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    y = np.empty(x.shape, dtype=np.uint8)
    rows = max(1, _SAMPLE_BLOCK_CELLS * len(x) // max(1, x.size))
    for r in range(0, len(x), rows):
        flips = rng.random(x[r : r + rows].shape) < crossover_prob
        np.bitwise_xor(flips, x[r : r + rows], out=y[r : r + rows], dtype=np.uint8, casting="unsafe")
    return y
