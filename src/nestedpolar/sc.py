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
* LLR messages are (position, row) float64.  The decoder passes the
  transposed view of a row-major bit-reversed copy of the input, not a
  position-major copy: each row's messages then stay contiguous, as the
  combines read them, and no second (batch, N) float array is made.

Only the decoders walk the tree.  A decoder decides information bits from
their messages and outputs frozen bits as given.  A genie feeds every
bit's true value forward instead, so every bit the walk would feed forward
is known in advance, and both genies go through the n levels of the tree
once, every node of a level at once.

The LLR genie `genie_llr_rows` holds the messages position-major and
bit-reversed, (N, batch) and contiguous, so at depth d
reshape(2^d, 2, -1) gives the halves a and b of every node of the level.
Each level sets a <- f(a, b), the left children's messages, and
b <- g(a, b, xl), the right children's.  The bits x start as
u F^(x)n in natural order, which are the root's re-encoded bits in slot
order because bit reversal commutes with F^(x)n; at each level
x[a] ^= x[b] turns every node's re-encoded bits into its left child's
xl.  After n levels slot i holds leaf i's message and x holds u, and a
flag is a hard decision (m < 0) that differs from u.

BSC LLRs take two values, +-ln((1-p)/p), so near the root the messages
take few distinct values (6, 19, 74, 341 and 2743 after levels 0-4 of one
3906-row chunk at n=10; below that nearly all are distinct).  While the
input holds at most two float64 bit patterns, the messages are int32 codes
into a table of K values.  At each level f runs once per distinct (a, b)
pair that occurs and g once per distinct (a, b, xl) triple, found by a
bincount over the 2 K^2 triple indices, and the results, merged by bit
pattern so that +0.0 and -0.0 stay apart, are the next level's table.
This is exact: f and g are elementwise ufuncs, which give the same bits
for the same float64 inputs, so every message is bit for bit the one a
tree walk computes (the walk is kept as the tests' reference).  Codes are
kept while 2 K^2 is at most an eighth of the N * batch messages (levels
0-4 at n=10); the remaining levels run in float64 on blocks of rows
whose messages take 2 MB, so that the combines' temporaries stay in
cache.

The erasure genie needs no true bits at all: whether a message is erased
never depends on a value (the check combine erases iff either input is,
the variable combine iff both are), so `genie_bec_rows` takes each row's
erased bits, packed along the row, through the n levels of the tree with
a few word operations per level, for every node and row at once.
`undetermined_bec_rows` counts the erased information leaves on the same
words: the decoder's undetermined counts, without the walk.

The erasure genie's flags also tell which rows a full SC walk could decode
to anything but the sent bits.  A row whose frozen values are the sent
ones and none of whose information leaves has an erased message decodes
to the sent bits: by induction over the decoding order every unerased
message carries the sent value.  The relay simulation SC-walks only the
rows with an erased information decision, by the rule stated in the
`relay` module docstring.

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

The entry points (`decode_bec_rows`, `decode_llr_rows`, `genie_bec_rows`,
`genie_llr_rows`, `undetermined_bec_rows`) take a (batch, N) array of
received words, one per row, after checking the shapes of their
arguments, that erasure words hold only 0, 1 or ERASED and frozen values
only 0 or 1, both of an integer or bool dtype, and that LLRs are finite.
"""
from __future__ import annotations

import numpy as np

from .polar import bit_reversal_permutation, butterfly_rows

__all__ = [
    "ERASED",
    "LLR_CAP",
    "decode_bec_rows",
    "decode_llr_rows",
    "genie_bec_rows",
    "genie_llr_rows",
    "undetermined_bec_rows",
]

# Sentinel for an erased symbol in three-valued words.
ERASED = -1

# decode_llr_rows clamps input LLR magnitudes to this, and the BSC sampler
# emits none larger; keeps combines well-scaled.
LLR_CAP = 40.0


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
    """(L, W) little-endian uint64 words of an (L, M) array: bit r of word
    [j, w] is set iff bits[j, 64 w + r] is nonzero; padding bits are 0."""
    L, M = bits.shape
    words = np.zeros((L, 8 * -(-M // 64)), dtype=np.uint8)
    # packbits is several times faster on rows that are contiguous
    words[:, : -(-M // 8)] = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    return words.view("<u8")


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
    contiguous as the combines read them.  Rejects a non-finite LLR; min and
    max propagate NaN, so two scans decide it without a (batch, N) temporary."""
    N = llr.shape[1]
    msgs = np.asarray(llr, dtype=np.float64).take(bit_reversal_permutation(N.bit_length() - 1), axis=1).T
    if msgs.size and not np.isfinite([msgs.min(), msgs.max()]).all():
        raise ValueError("LLR values must be finite")
    return msgs


# ---------------------------------------------------------------------------
# batch entry points


def _check_shapes(name: str, words, **per_position) -> tuple[int, int]:
    """(batch, N) of the batch ``words``, checked in O(1): it is 2-D with N a
    power of two, info_mask is (N,), and any other per-position argument is
    (N,) or (batch, N).  The ValueError names the argument at fault."""
    shape = np.shape(words)
    if len(shape) != 2 or not shape[1] or shape[1] & (shape[1] - 1):
        raise ValueError(f"{name} must have shape (batch, N) with N a power of two, got {shape}")
    nbatch, N = shape
    for arg, value in per_position.items():
        allowed = [(N,)] if arg == "info_mask" else [(N,), (nbatch, N)]
        if np.shape(value) not in allowed:
            raise ValueError(f"{arg} must have shape {' or '.join(map(str, allowed))}, got {np.shape(value)}")
    return nbatch, N


def _check_values(name: str, values, low: int, allowed: str) -> None:
    """Reject entries outside the integers low..1 (erasure symbols are -1, 0
    and 1, frozen values 0 and 1): an integer or bool dtype and one min/max
    scan decide it, with no temporary of the array's size."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"{name} must be {allowed} of an integer dtype, got {arr.dtype}")
    if arr.size and (arr.min() < low or arr.max() > 1):
        raise ValueError(f"{name} must be {allowed}, got values in [{arr.min()}, {arr.max()}]")


def _check_erasure_symbols(y: np.ndarray) -> None:
    _check_values("y symbols", y, ERASED, f"0, 1 or ERASED ({ERASED})")


def decode_bec_rows(
    y: np.ndarray, info_mask: np.ndarray, frozen_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of erasure words.

    y is (batch, N) int8 over {0, 1, ERASED}; frozen_values is (N,) or
    (batch, N) uint8 or bool over {0, 1} and is read wherever info_mask is
    False.  Returns the decoded (batch, N) u array and the per-word count of
    information-bit decisions that had to be made on an erased message
    (decided 0).
    """
    nbatch, N = _check_shapes("y", y, info_mask=info_mask, frozen_values=frozen_values)
    _check_erasure_symbols(y)
    _check_values("frozen_values", frozen_values, 0, "0 or 1")
    if not nbatch:  # the node rule would still visit the tree for no rows
        return np.zeros((0, N), dtype=np.uint8), np.zeros(0, dtype=np.int64)
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


# Bits of a little-endian uint64 word whose bit index has bit s clear, for
# the in-word strides s = 1, 2, ..., 32 of the level-wise erasure pass.
_LOW_HALVES = {
    1 << d: np.array(m, dtype="<u8")
    for d, m in enumerate([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                           0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF])
}

# Number of set bits of each byte value.
_BYTE_WEIGHTS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)


def _erased_leaf_words(y: np.ndarray) -> np.ndarray:
    """(batch, ceil(N/64)) little-endian uint64 words whose bit p of a row
    says whether SC leaf rev(p) of that row has an erased message, rev the
    n-bit reversal; padding bits are 0.

    No tree walk: a node of the SC tree pairs the code positions that differ
    in one bit, bit 0 at the root and bit d at depth d, in natural order.
    Each pair's erased flags a, b become the left child's a | b and the
    right child's a & b, in place, for all pairs of a level at once: with a
    shift and a mask inside a word for the strides below 64, and on whole
    words above.  After n levels, position p holds leaf rev(p).
    """
    nbatch, N = y.shape
    words = _pack(y == ERASED)
    s = 1
    while s < min(N, 64):
        low, shift = _LOW_HALVES[s], np.uint64(s)
        a = words & low
        b = (words >> shift) & low
        words = a | b | ((a & b) << shift)
        s *= 2
    while s < N:
        pairs = words.reshape(nbatch, N // (2 * s), 2, s // 64)
        a, b = pairs[:, :, 0], pairs[:, :, 1]
        both = a & b
        a |= b
        b[...] = both
        s *= 2
    return words


def genie_bec_rows(y: np.ndarray) -> np.ndarray:
    """Per-position erasure indicators of genie-aided SC over a batch.

    Every decision is replaced by the true bit before propagating, so the
    returned (batch, N) boolean array marks exactly the positions whose
    synthesized bit-channel erased in that trial.  On the BEC whether a
    message is erased does not depend on any bit value, so the true bits
    are not needed.  No tree walk is made (see ``_erased_leaf_words``).
    """
    nbatch, N = _check_shapes("y", y)
    _check_erasure_symbols(y)
    flags = np.unpackbits(_erased_leaf_words(y).view(np.uint8), axis=1, count=N, bitorder="little")
    return flags.take(bit_reversal_permutation(N.bit_length() - 1), axis=1).view(bool)


def undetermined_bec_rows(y: np.ndarray, info_mask: np.ndarray) -> np.ndarray:
    """Per-row count of the information decisions SC makes on an erased
    message: ``decode_bec_rows(y, info_mask, ...)[1]`` for any frozen
    values, and ``genie_bec_rows(y)[:, info_mask].sum(axis=1)``,
    without a tree walk or unpacking the flags."""
    nbatch, N = _check_shapes("y", y, info_mask=info_mask)
    _check_erasure_symbols(y)
    mask = _pack(np.asarray(info_mask, dtype=bool)[None, bit_reversal_permutation(N.bit_length() - 1)])
    info_erased = _erased_leaf_words(y) & mask
    return _BYTE_WEIGHTS[info_erased.view(np.uint8)].sum(axis=1, dtype=np.int64)


def decode_llr_rows(
    llr: np.ndarray, info_mask: np.ndarray, frozen_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of LLR words; returns (u array, zero-LLR tie counts).

    llr is (batch, N) and must be finite; magnitudes are clamped to LLR_CAP.
    frozen_values is as for ``decode_bec_rows``.
    """
    nbatch, N = _check_shapes("llr", llr, info_mask=info_mask, frozen_values=frozen_values)
    _check_values("frozen_values", frozen_values, 0, "0 or 1")
    msgs = _llr_messages(llr)
    # msgs views a fresh copy, so clamping it leaves the caller's array alone
    np.clip(msgs, -LLR_CAP, LLR_CAP, out=msgs)
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

    _sc_walk(msgs, _llr_check, _llr_var, leaf)
    return uhat, ties


def _genie_code_level(codes: np.ndarray, x: np.ndarray, table: np.ndarray, d: int) -> np.ndarray:
    """Level d of the LLR genie on messages held as int32 codes into table,
    in place; returns the table the new codes index.  Each combine runs once
    per distinct input that occurs, found by a bincount over the (a, b, xl)
    triples, and the results are merged by bit pattern."""
    K = table.size
    c = codes.reshape(1 << d, 2, -1)
    xs = x.reshape(1 << d, 2, -1)
    xl = xs[:, 0]
    xl ^= xs[:, 1]
    a, b = c[:, 0], c[:, 1]
    t = a * K
    t += b
    t <<= 1
    t |= xl
    seen = np.flatnonzero(np.bincount(t.ravel(), minlength=2 * K * K))
    pair = seen >> 1
    pairs, pair_of = np.unique(pair, return_inverse=True)
    checks = _llr_check(table[pairs // K], table[pairs % K])
    var = _llr_var(table[pair // K], table[pair % K], seen & 1)
    values, new = np.unique(np.concatenate([checks, var]).view(np.int64), return_inverse=True)
    lut = np.empty((2, 2 * K * K), dtype=np.int32)
    lut[0, seen] = new[pair_of]  # the checks' codes come first
    lut[1, seen] = new[pairs.size :]
    b[...] = lut[1][t]
    a[...] = lut[0][t]
    return values.view(np.float64)


def _genie_float_level(m: np.ndarray, x: np.ndarray, d: int) -> None:
    """Level d of the LLR genie on (N, rows) float64 messages, in place."""
    v = m.reshape(1 << d, 2, -1)
    xs = x.reshape(1 << d, 2, -1)
    xl = xs[:, 0]
    xl ^= xs[:, 1]
    a, b = v[:, 0], v[:, 1]
    checks = _llr_check(a, b)
    b[...] = _llr_var(a, b, xl)
    a[...] = checks


# Cells (positions x rows) of one block of the LLR genie's float levels:
# 2 MB of float64, so that the combines' temporaries stay in cache.
_GENIE_BLOCK_CELLS = 1 << 18


def genie_llr_rows(llr: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Per-position hard-decision error indicators of genie-aided SC; llr
    must be finite and is used unclamped, u_true is (N,) or (batch, N) over
    {0, 1}.  One pass over the levels of the SC tree, with no walk (see the
    module docstring)."""
    nbatch, N = _check_shapes("llr", llr, u_true=u_true)
    _check_values("u_true", u_true, 0, "0 or 1")
    if not nbatch:
        return np.zeros((0, N), dtype=bool)
    llr = np.asarray(llr, dtype=np.float64)
    if not np.isfinite([llr.min(), llr.max()]).all():
        raise ValueError("LLR values must be finite")
    n = N.bit_length() - 1
    rev = bit_reversal_permutation(n)
    # the true bits re-encoded, position-major; level d turns the bits of
    # the level-d nodes into those of their children
    x = np.array(np.broadcast_to(u_true, (nbatch, N)).T, dtype=np.uint8, order="C")
    butterfly_rows(x.T)
    bits = llr.view(np.int64)
    lo, hi = bits.min(), bits.max()
    d, codes = 0, None
    if lo == hi or np.count_nonzero(bits == lo) + np.count_nonzero(bits == hi) == bits.size:
        table = np.unique([lo, hi]).view(np.float64)
        codes = np.ascontiguousarray((bits != lo)[:, rev].T, dtype=np.int32)
        # while the triple index is small next to the batch, and fits int32
        while d < n and 2 * table.size**2 <= min(N * nbatch // 8, 1 << 31):
            table = _genie_code_level(codes, x, table, d)
            d += 1
    flags = np.empty((nbatch, N), dtype=bool)
    rows = max(1, _GENIE_BLOCK_CELLS // N)
    for r0 in range(0, nbatch, rows):
        r1 = min(r0 + rows, nbatch)
        m = table[codes[:, r0:r1]] if codes is not None else llr[r0:r1].take(rev, axis=1).T.copy()
        xb = x[:, r0:r1].copy()
        for e in range(d, n):
            _genie_float_level(m, xb, e)
        # after the last level xb holds the true bits themselves
        flags[r0:r1] = ((m < 0) != xb).T
    return flags
