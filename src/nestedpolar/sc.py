"""Successive cancellation decoding.

Every decoder here is one walk of the SC tree.  At each node a check-node
combine f gives the left child's messages, a variable-node combine g gives
the right child's once the left subtree's bits are known, and at each bit
a leaf rule turns the bit's messages into the bit fed forward.  Two
message domains supply f and g:

* three-valued (0 / 1 / erased) messages for the binary erasure channel,
  where the walk is exact erasure propagation, and
* log-likelihood ratios for general symmetric channels, with the
  check-node combine computed in the log domain as
  logaddexp(0, a+b) - logaddexp(a, b), which equals the hyperbolic-tangent
  rule without overflow.

The walk holds a batch's messages position-major: axis 0 is the code
position, in bit-reversed order so that a node's two halves are the
contiguous slices msgs[:h] and msgs[h:], and the other axes belong to the
domain.

* Erasure messages are bit-sliced: each position holds two planes of
  uint64 words, erased and value, with bit r of word w for row 64 w + r
  (rows past the batch are zero padding, never erased).  The check
  combine is e = ea | eb, v = va ^ vb, and the variable combine is
  e = ea & eb, v = vb ^ (eb & (vb ^ va ^ xl)), so one word operation
  combines 64 rows, and a value under a set erased bit means nothing.
  The decoder keeps its decisions and the erased bits of its information
  leaves as words and unpacks them once at the end.
* LLR messages are (position, row) float64.  The decoders pass the
  transposed view of a row-major bit-reversed copy of the input, not a
  position-major copy: each row's messages then stay contiguous, as the
  combines read them, and no second (batch, N) float array is made.

Two leaf rules run on either domain: a decoder decides information bits
from their messages and outputs frozen bits as given; a genie records
whether the bit's message was erased (or decided wrongly) and feeds the
true bit forward.

The erasure decoder also gives the walk a node rule, as in simplified SC
(Alamdar-Yazdi & Kschischang 2011), that stops at two kinds of subtree of
2^m bits; both shortcuts return exactly what the full walk would:

* rate-0 (all bits frozen): u is the frozen values and the re-encoded
  bits are u F^(x)m, because a frozen leaf never reads its message;
* rate-1 (all bits information) with no erased message in any row: u is
  msgs F^(x)m and the re-encoded bits are msgs (F^(x)m is an involution),
  because below such a node f and g see no erasure, so no decision is
  undetermined and every decision agrees with the messages.

Both run the butterfly on the words, all rows at once.  Every other node
descends as usual, a rate-1 node with an erasure among its rows included;
its children try the rule again.

LLR sign convention: positive means bit 0 is more likely; a tie (LLR
exactly zero) decides 0, matching a likelihood-ratio-at-least-one rule.
Decoding order is the natural index order of u.

The batch entry points (`decode_bec_rows`, `decode_llr_rows`, genie
variants) process many received words at once and are what the
Monte-Carlo drivers call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BitVector
from .polar import PolarCodeSpec, bit_reversal_permutation, butterfly_rows

__all__ = [
    "ERASED",
    "LLR_CAP",
    "ReceivedWord",
    "DecodeResult",
    "sc_decode_bec",
    "sc_decode_llr",
    "decode_bec_rows",
    "decode_llr_rows",
    "genie_bec_rows",
    "genie_llr_rows",
]

# Sentinel for an erased symbol in three-valued words.
ERASED = -1

# Input LLR magnitudes are clamped to this; keeps combines well-scaled.
LLR_CAP = 40.0


class ReceivedWord:
    """Channel output over one block: hard symbols with erasures, or LLRs."""

    __slots__ = ("_values", "_kind")

    def __init__(self, values, kind: str):
        if kind not in ("erasure", "llr"):
            raise ValueError(f"unknown received-word kind {kind!r}")
        if kind == "erasure":
            arr = np.asarray(values, dtype=np.int8)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("received word must be a nonempty 1-D sequence")
            ok = (arr == 0) | (arr == 1) | (arr == ERASED)
            if not ok.all():
                raise ValueError(f"erasure symbols must be 0, 1 or {ERASED}")
        else:
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError("received word must be a nonempty 1-D sequence")
            if not np.isfinite(arr).all():
                raise ValueError("LLR values must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        self._values = arr
        self._kind = kind

    @classmethod
    def from_symbols(cls, symbols) -> "ReceivedWord":
        return cls(symbols, "erasure")

    @classmethod
    def from_llrs(cls, values) -> "ReceivedWord":
        return cls(values, "llr")

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def erased_mask(self) -> np.ndarray:
        if self._kind != "erasure":
            raise ValueError("erased_mask is only defined for erasure words")
        return self._values == ERASED

    def __repr__(self) -> str:
        return f"ReceivedWord(kind={self._kind!r}, length={len(self)})"


@dataclass(frozen=True)
class DecodeResult:
    """Hard SC output: full u estimate, its restriction to A, erasure count."""

    u_hat: BitVector
    info_bits: BitVector
    undetermined_count: int


def _check_word(spec: PolarCodeSpec, word: ReceivedWord, kind: str) -> None:
    if word.kind != kind:
        raise ValueError(f"expected a {kind} received word, got {word.kind}")
    if len(word) != spec.N:
        raise ValueError(f"received word length {len(word)} != block length {spec.N}")


# ---------------------------------------------------------------------------
# the SC tree walk


def _sc_walk(msgs: np.ndarray, f, g, leaf, node=None) -> None:
    """Walk the SC tree once over the channel messages of a batch.

    msgs holds one message per code position on axis 0, in bit-reversed
    order, so the two halves of a node are msgs[:h] and msgs[h:]; the
    other axes are the message domain's.  At each node, f(a, b) gives the
    left child's messages from the halves a, b; once the left subtree
    returns its re-encoded bits xl, g(a, b, xl) gives the right child's.
    leaf(i, m) receives the messages msgs[0] of bit i and returns the bits
    to feed forward for it.  If given, node(lo, msgs) is asked first at
    each internal node covering bits lo, lo+1, ...; an array it returns is
    taken as the subtree's re-encoded bits and the walk does not descend,
    None lets it descend.
    """

    def rec(msgs: np.ndarray, lo: int) -> np.ndarray:
        L = msgs.shape[0]
        if L == 1:
            return leaf(lo, msgs[0])[None]
        if node is not None:
            x = node(lo, msgs)
            if x is not None:
                return x
        h = L // 2
        a = msgs[:h]
        b = msgs[h:]
        xl = rec(f(a, b), lo)
        xr = rec(g(a, b, xl), lo + h)
        return np.concatenate([xl ^ xr, xr])

    rec(msgs, 0)


# Erasure messages are (L, 2, W) uint64 arrays: plane 0 holds the erased
# bits, plane 1 the value bits (see the module docstring).


def _pack(bits: np.ndarray) -> np.ndarray:
    """(L, W) uint64 words of an (L, batch) array: bit r of word [j, w] is
    set iff bits[j, 64 w + r] is nonzero; padding bits are 0."""
    L, nbatch = bits.shape
    words = np.zeros((L, 8 * (-(-nbatch // 64))), dtype=np.uint8)
    # packbits is several times faster on rows that are contiguous
    words[:, : -(-nbatch // 8)] = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    return words.view(np.uint64)


def _unpack(words: np.ndarray, nbatch: int) -> np.ndarray:
    """The (batch, L) uint8 bits of (L, W) words."""
    return np.unpackbits(words.view(np.uint8).T, axis=0, count=nbatch, bitorder="little")


def _bec_messages(y: np.ndarray) -> np.ndarray:
    """The bit-reversed (N, 2, W) messages of a (batch, N) erasure array."""
    yr = np.ascontiguousarray(y.T)[bit_reversal_permutation(y.shape[1].bit_length() - 1)]
    return np.stack([_pack(yr == ERASED), _pack(yr)], axis=1)


def _bec_check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # erased iff either is, value va ^ vb: (ea ^ eb) | ea == ea | eb
    out = a ^ b
    e = out[:, 0]
    e |= a[:, 0]
    return out


def _bec_var(a: np.ndarray, b: np.ndarray, xl: np.ndarray) -> np.ndarray:
    # b where b is known, else a with its value ^ xl; with t = a ^ b ^ (0, xl),
    # b ^ (eb & t) gives eb ^ (eb & (ea ^ eb)) == ea & eb and vb ^ (eb & (va ^ vb ^ xl))
    t = a ^ b
    v = t[:, 1]
    v ^= xl
    t &= b[:, :1]
    t ^= b
    return t


def _llr_check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, a + b) - np.logaddexp(a, b)


def _llr_var(a: np.ndarray, b: np.ndarray, xl: np.ndarray) -> np.ndarray:
    return b + a * (1.0 - 2.0 * xl)


def _llr_messages(llr: np.ndarray) -> np.ndarray:
    """The bit-reversed (N, batch) messages of a (batch, N) LLR array: a
    transposed view of a row-major copy, so each row's messages stay
    contiguous as the combines read them."""
    N = llr.shape[1]
    return np.asarray(llr, dtype=np.float64).take(bit_reversal_permutation(N.bit_length() - 1), axis=1).T


# ---------------------------------------------------------------------------
# batch entry points


def decode_bec_rows(
    y: np.ndarray, info_mask: np.ndarray, frozen_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of erasure words.

    y is (batch, N) int8 over {0, 1, ERASED}; frozen_values is (N,) or
    (batch, N) uint8 and is read wherever info_mask is False.  Returns the
    decoded (batch, N) u array and the per-word count of information-bit
    decisions that had to be made on an erased message (decided 0).
    """
    nbatch, N = y.shape
    # frozen bits from the start; the walk writes each information bit
    u = _pack(np.broadcast_to(frozen_values, (nbatch, N)).T)
    # erased bits of the information leaves' messages, after a zero row so
    # that the stack at the end is never empty
    erased = [np.zeros_like(u[0])]
    n_info = np.concatenate([[0], np.cumsum(info_mask)]).tolist()  # info bits before each index

    def leaf(i: int, m: np.ndarray) -> np.ndarray:
        if info_mask[i]:
            u[i] = m[1] & ~m[0]
            erased.append(m[0])
        return u[i]

    def node(lo: int, msgs: np.ndarray) -> np.ndarray | None:
        L = msgs.shape[0]
        k = n_info[lo + L] - n_info[lo]
        # butterfly_rows on the (W, L) transpose re-encodes every row's bits
        if k == 0:
            x = u[lo : lo + L].copy()
            butterfly_rows(x.T)
            return x
        if k == L and not msgs[:, 0].any():
            u[lo : lo + L] = msgs[:, 1]
            butterfly_rows(u[lo : lo + L].T)
            return msgs[:, 1]
        return None

    _sc_walk(_bec_messages(y), _bec_check, _bec_var, leaf, node)
    return _unpack(u, nbatch), _unpack(np.stack(erased), nbatch).sum(axis=1, dtype=np.int64)


def genie_bec_rows(y: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Per-position erasure indicators of genie-aided SC over a batch.

    Every decision is replaced by the true bit before propagating, so the
    returned (batch, N) boolean array marks exactly the positions whose
    synthesized bit-channel erased in that trial.
    """
    u = _pack(u_true.T)
    flags = np.empty_like(u)

    def leaf(i: int, m: np.ndarray) -> np.ndarray:
        flags[i] = m[0]
        return u[i]

    _sc_walk(_bec_messages(y), _bec_check, _bec_var, leaf)
    return _unpack(flags, y.shape[0]).view(bool)


def decode_llr_rows(
    llr: np.ndarray, info_mask: np.ndarray, frozen_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of LLR words; returns (u array, zero-LLR tie counts)."""
    nbatch, N = llr.shape
    fv = np.broadcast_to(frozen_values, (nbatch, N))
    uhat = np.zeros((nbatch, N), dtype=np.uint8)
    ties = np.zeros(nbatch, dtype=np.int64)

    def leaf(i: int, m: np.ndarray) -> np.ndarray:
        if info_mask[i]:
            u = (m < 0).astype(np.uint8)
            ties[m == 0] += 1
        else:
            u = fv[:, i]
        uhat[:, i] = u
        return u

    _sc_walk(_llr_messages(llr), _llr_check, _llr_var, leaf)
    return uhat, ties


def genie_llr_rows(llr: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Per-position hard-decision error indicators of genie-aided SC."""
    flags = np.zeros(llr.shape, dtype=bool)

    def leaf(i: int, m: np.ndarray) -> np.ndarray:
        flags[:, i] = (m < 0).astype(np.uint8) != u_true[:, i]
        return u_true[:, i]

    _sc_walk(_llr_messages(llr), _llr_check, _llr_var, leaf)
    return flags


# ---------------------------------------------------------------------------
# single-word entry points


def sc_decode_bec(spec: PolarCodeSpec, word: ReceivedWord) -> DecodeResult:
    """Exact erasure-propagation SC decoding of one received word.

    Frozen positions always output their frozen value.  An information
    bit whose message is erased is decided 0 and counted in
    ``undetermined_count``.
    """
    _check_word(spec, word, "erasure")
    uhat, undet = decode_bec_rows(word.values[None, :], spec.info_mask, spec.frozen_template)
    u = BitVector(uhat[0])
    return DecodeResult(u, BitVector(uhat[0][spec.info_set]), int(undet[0]))


def sc_decode_llr(spec: PolarCodeSpec, word: ReceivedWord) -> DecodeResult:
    """LLR-domain SC decoding of one received word.

    Inputs are clamped to +/-LLR_CAP.  ``undetermined_count`` reports how
    many information decisions hit an exactly-zero LLR (decided 0).
    """
    _check_word(spec, word, "llr")
    llr = np.clip(word.values, -LLR_CAP, LLR_CAP)
    uhat, ties = decode_llr_rows(llr[None, :], spec.info_mask, spec.frozen_template)
    u = BitVector(uhat[0])
    return DecodeResult(u, BitVector(uhat[0][spec.info_set]), int(ties[0]))
