"""Successive cancellation decoding: one decoder and two genies.

`decode_bec_rows` SC-decodes words received over the binary erasure
channel, where SC decoding is exact erasure propagation on three-valued
(0 / 1 / erased) messages.  It walks the SC tree once: at each node a
check-node combine f gives the left child's messages, a variable-node
combine g gives the right child's once the left subtree's re-encoded bits
xl are known, and at each leaf an information bit is decided from its
message (0 when it is erased) and a frozen bit takes its frozen value.

The walk holds a batch's messages position-major: axis 0 is the code
position, in bit-reversed order so that a node's two halves are the
contiguous slices msgs[:h] and msgs[h:].  The messages are bit-sliced:
each position holds two planes of uint64 words, erased and value, with
bit r of word w for row 64 w + r (rows past the batch are zero padding,
never erased).  The check combine is e = ea | eb, v = va ^ vb, and the
variable combine is e = ea & eb, v = vb ^ (eb & (vb ^ va ^ xl)), so one
word operation combines 64 rows, and a value under a set erased bit
means nothing.  The decoder keeps its decisions as words and unpacks
them once at the end; its counts of undetermined decisions are the
erasure genie's (below).

The decoder has a node rule, as in simplified SC (Alamdar-Yazdi &
Kschischang 2011), that stops at two kinds of subtree of 2^m bits; both
shortcuts return exactly what the full walk would:

* rate-0 (all bits frozen): u is the frozen values and the re-encoded
  bits are u F^(x)m, because a frozen leaf never reads its message;
* rate-1 (all bits information) with no erased message in any row: u is
  msgs F^(x)m and the re-encoded bits are msgs (F^(x)m is an involution),
  because below such a node f and g see no erasure, so no decision is
  undetermined and every decision agrees with the messages.

Both run the butterfly on the words, all rows at once.  Every other node
descends as usual, a rate-1 node with an erasure among its rows included;
its children try the rule again.

A genie feeds every bit's true value forward instead of its decision, so
every bit the walk would feed forward is known in advance, and a genie
goes through the n levels of the tree once, every node of a level at once.

The LLR genie `genie_llr_rows` gives the bit-channel errors of SC on the
binary symmetric channel, in log-likelihood ratios: positive means bit 0
is more likely, and a tie (LLR exactly zero) decides 0, matching a
likelihood-ratio-at-least-one rule.  The check-node combine is the
Jacobian-logarithm form of the hyperbolic-tangent rule (Hagenauer, Offer &
Papke 1996), computed on the magnitudes with the sign applied last:
sign(a) sign(b) max(0, min(|a|, |b|) + log1p(exp(-(|a| + |b|)))
- log1p(exp(-||a| - |b||))), the sign bit the XOR of the inputs' sign
bits.  The magnitude depends on |a| and |b| alone, so the combine is
exactly odd in each argument and symmetric, and exactly 0 when either
input is +-0; so an exact bit-channel tie comes out as an LLR of exactly
0 and decides 0, as sequential ML does.  Its exp and log1p are numpy's
vectorised loops, so the last bit of a message, and on rare near-ties a
decision, follows the SIMD level numpy dispatches to.  The genie holds the
messages position-major and bit-reversed, (N, batch) and contiguous, so
at depth d reshape(2^d, 2, -1) gives the halves a and b of every node of
the level.  Each level sets a <- f(a, b), the left children's messages,
and b <- g(a, b, xl), the right children's.  The bits x start as
u F^(x)n in natural order, which are the root's re-encoded bits in slot
order because bit reversal commutes with F^(x)n; at each level
x[a] ^= x[b] turns every node's re-encoded bits into its left child's
xl.  After n levels slot i holds leaf i's message and x holds u, and a
flag is a hard decision (m < 0) that differs from u.

The genie reads BSC outputs: received bit 0 is the LLR L = ln((1-p)/p),
given by the caller, and bit 1 is -L, so near the root the messages take
few distinct values (5, 12, 30, 112 and 868 after levels 0-4 of one
1953-row batch at n=10; below that nearly all are distinct).  They are
uint16 codes into a table of K values, from the received bits themselves
(bit-reversed, position-major) into [L, -L].  At each level f runs once
per distinct (a, b) pair that occurs and g once per distinct (a, b, xl)
triple, found by marking the triple indices that occur in a table of
2 K^2 flags, and the results, merged by bit pattern so that +0.0 and -0.0
stay apart, are the next level's table.  Both passes over the triples,
the marking and the lookup of the new codes, take 2^16 messages at a time
and compute their triple indices afresh, in intp so that a K cannot wrap,
so a level builds no temporary beyond one block and its tables on top of
the batch's own arrays (the codes, the bits x and the caller's y and u).
No static bound keeps the codes below 2^16 (a level may output up to
3 K^2 values), so a level whose new table has more than 65536 entries
first widens them to int32: the dtype follows the measured table size.
This is exact: f and g are elementwise passes of ufuncs, which give the
same bits for the same float64 inputs, so every message is bit for bit
the one a tree walk computes (the walk is kept as the tests' reference).
Codes are kept while 2 K^2 is at most an eighth of the N * batch
messages (levels 0-4 at n=10); the remaining levels run in float64 on
blocks of rows whose messages take 512 KB, so that the block and the
check combine's three buffers of half its size stay in cache.

The erasure genie needs no true bits at all: whether a message is erased
never depends on a value (the check combine erases iff either input is,
the variable combine iff both are), so `_erased_leaf_words` takes each
row's erased bits, packed along the row, through the n levels of the tree
with a few word operations per level, for every node and row at once.
`undetermined_bec_rows` counts the erased information leaves on those
words, without the walk; these are the only undetermined counts, and
`decode_bec_rows` returns them beside its decisions.

A row whose frozen values are the sent ones, with no erased information
decision, decodes to the sent bits (by induction over the decoding order,
every unerased message carries the sent value); the `relay` module
docstring states the rule that the relay simulation builds on this.

Decoding order is the natural index order of u.  The entry points take a
(batch, N) array of received words, one per row, after checking the
shapes of their arguments, that erasure words hold only 0, 1 or ERASED
and information masks, frozen values and true bits only 0 or 1, all of an
integer or bool dtype, and that the LLR magnitude is finite and at least 0.
"""
from __future__ import annotations

import numpy as np

from .gf2 import _check_real, _check_shapes, _check_values, _pack
from .polar import bit_reversal_permutation, butterfly_rows

__all__ = [
    "ERASED",
    "decode_bec_rows",
    "genie_llr_rows",
    "undetermined_bec_rows",
]

# Sentinel for an erased symbol in three-valued words.
ERASED = -1


# Erasure messages are (L, 2, W) uint64 arrays: plane 0 holds the erased
# bits, plane 1 the value bits (see the module docstring).


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


# The sign bit of a float64, as an int64.
_SIGN_BIT = np.int64(-(1 << 63))


def _llr_check(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # max(0, m + log1p(exp(-s)) - log1p(exp(-d))) on the magnitudes, with
    # m = min, s = M + m and d = M - m, M = max; three buffers, reused with
    # out=.  The sign bit is set last, to the XOR of the inputs' sign bits.
    mag = np.abs(a)
    work = np.abs(b)
    out = np.minimum(mag, work)
    np.maximum(mag, work, out=mag)
    np.negative(mag, out=mag)
    np.add(out, mag, out=work)  # -d
    np.subtract(mag, out, out=mag)  # -s
    for t in (mag, work):
        np.exp(t, out=t)
        np.log1p(t, out=t)
    out += mag
    out -= work
    np.maximum(out, 0.0, out=out)
    sign = np.bitwise_xor(a.view(np.int64), b.view(np.int64), out=mag.view(np.int64))
    sign &= _SIGN_BIT
    bits = out.view(np.int64)
    bits |= sign
    return out


def _llr_var(a: np.ndarray, b: np.ndarray, xl: np.ndarray) -> np.ndarray:
    return b + a * (1.0 - 2.0 * xl)


# ---------------------------------------------------------------------------
# batch entry points


def decode_bec_rows(
    y: np.ndarray, info_mask: np.ndarray, frozen_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of erasure words.

    y is (batch, N) int8 over {0, 1, ERASED}; info_mask is (N,) over {0, 1};
    frozen_values is (N,) or (batch, N) uint8 or bool over {0, 1} and is
    read wherever info_mask is 0.  Returns the decoded (batch, N) u array
    and the per-word count of information-bit decisions that had to be made
    on an erased message (decided 0).
    """
    undetermined = undetermined_bec_rows(y, info_mask)  # checks y and info_mask
    nbatch, N = _check_shapes("y", y, frozen_values=frozen_values)
    _check_values("frozen_values", frozen_values, 0, "0 or 1")
    if not nbatch:  # the node rule would still visit the tree for no rows
        return np.zeros((0, N), dtype=np.uint8), undetermined
    # frozen bits from the start; the walk writes each information bit
    u = _pack(np.broadcast_to(frozen_values, (nbatch, N)).T)
    n_info = np.concatenate([[0], np.cumsum(info_mask)]).tolist()  # info bits before each index

    def walk(msgs: np.ndarray, lo: int) -> np.ndarray:
        """Decode the subtree over bits lo, lo+1, ... from its messages msgs;
        returns its re-encoded bits."""
        L = msgs.shape[0]
        if L == 1:
            if info_mask[lo]:
                u[lo] = msgs[0, 1] & ~msgs[0, 0]
            return u[lo : lo + 1]
        # the node rule; butterfly_rows on the (W, L) transpose re-encodes
        # every row's bits
        k = n_info[lo + L] - n_info[lo]
        if k == 0:
            x = u[lo : lo + L].copy()
            butterfly_rows(x.T)
            return x
        if k == L and not msgs[:, 0].any():
            u[lo : lo + L] = msgs[:, 1]
            butterfly_rows(u[lo : lo + L].T)
            return msgs[:, 1]
        h = L // 2
        a = msgs[:h]
        b = msgs[h:]
        xl = walk(_bec_check(a, b), lo)
        xr = walk(_bec_var(a, b, xl), lo + h)
        return np.concatenate([xl ^ xr, xr])

    walk(_bec_messages(y), 0)
    # walk's closure holds walk itself; unbinding it frees this call's
    # state (u, n_info) now rather than at the next cyclic collection
    del walk
    return _unpack(u, nbatch), undetermined


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


def undetermined_bec_rows(y: np.ndarray, info_mask: np.ndarray) -> np.ndarray:
    """Per-row count of the information decisions SC makes on an erased
    message, for any frozen values, without a tree walk or unpacking the
    flags; ``decode_bec_rows`` returns these counts.  With a one-hot
    info_mask it says, per row, whether that one bit-channel erased."""
    nbatch, N = _check_shapes("y", y, info_mask=info_mask)
    _check_values("y symbols", y, ERASED, f"0, 1 or ERASED ({ERASED})")
    _check_values("info_mask", info_mask, 0, "0 or 1")
    mask = _pack(np.asarray(info_mask, dtype=bool)[None, bit_reversal_permutation(N.bit_length() - 1)])
    info_erased = _erased_leaf_words(y) & mask
    return _BYTE_WEIGHTS[info_erased.view(np.uint8)].sum(axis=1, dtype=np.int64)


# Cells of one block of the LLR genie: of the triple indices of a code
# level, or (positions x rows) of the float levels, 512 KB of float64, so
# that the combines' temporaries stay in cache.
_GENIE_BLOCK_CELLS = 1 << 16


def _tiles(shape: tuple[int, int], cells: int):
    """Index pairs that tile a 2-D array of ``shape`` in row-major order,
    each of at most ``cells`` cells (one when ``cells`` is below 1): whole
    rows while they fit, else slices of one row."""
    nrows, ncols = shape
    width = max(1, min(ncols, cells))
    step = max(1, cells // max(1, ncols))
    for r in range(0, nrows, step):
        for c in range(0, ncols, width):
            yield np.s_[r : r + step, c : c + width]


def _genie_code_level(
    codes: np.ndarray, x: np.ndarray, table: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Level d of the LLR genie on messages held as uint16 or int32 codes
    into table, in place; returns the codes, widened to int32 first if the
    new table has more than 65536 entries, and the table they index.  Each
    combine runs once per distinct input that occurs, found by marking the
    (a, b, xl) triples that occur, and the results are merged by bit
    pattern.  The passes over the triple indices go a block at a time, so
    no index copy or gather result larger than a block is built."""
    K = table.size
    xs = x.reshape(1 << d, 2, -1)
    xl = xs[:, 0]
    xl ^= xs[:, 1]
    a, b = codes.reshape(1 << d, 2, -1).swapaxes(0, 1)
    tiles = list(_tiles(a.shape, _GENIE_BLOCK_CELLS))

    def triples(tile) -> np.ndarray:
        # in intp, where a * K cannot wrap and which the indexing below
        # takes without a copy
        t = a[tile].astype(np.intp)
        t *= K
        t += b[tile]
        t <<= 1
        t |= xl[tile]
        return t

    hit = np.zeros(2 * K * K, dtype=bool)
    for tile in tiles:
        hit[triples(tile)] = True
    seen = np.flatnonzero(hit)
    pair = seen >> 1
    pairs, pair_of = np.unique(pair, return_inverse=True)
    checks = _llr_check(table[pairs // K], table[pairs % K])
    var = _llr_var(table[pair // K], table[pair % K], seen & 1)
    values, new = np.unique(np.concatenate([checks, var]).view(np.int64), return_inverse=True)
    if values.size > 1 << 16 and codes.dtype == np.uint16:
        codes = codes.astype(np.int32)
        a, b = codes.reshape(1 << d, 2, -1).swapaxes(0, 1)
    lut = np.empty((2, 2 * K * K), dtype=codes.dtype)
    lut[0, seen] = new[pair_of]  # the checks' codes come first
    lut[1, seen] = new[pairs.size :]
    # every index is below 2 K^2; mode "clip" writes straight into the
    # strided out, where "raise" would buffer it
    for tile in tiles:
        t = triples(tile)
        np.take(lut[0], t, out=a[tile], mode="clip")
        np.take(lut[1], t, out=b[tile], mode="clip")
    return codes, values.view(np.float64)


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


def genie_llr_rows(y: np.ndarray, magnitude: float, u_true: np.ndarray) -> np.ndarray:
    """Per-position hard-decision error indicators of genie-aided SC on the
    (batch, N) BSC output bits y, read as the LLRs +magnitude (0) and
    -magnitude (1), magnitude finite, at least 0 and used unclamped; u_true
    is (N,) or (batch, N) over {0, 1}.  One pass over the levels of the SC
    tree, with no walk (see the module docstring)."""
    nbatch, N = _check_shapes("y", y, u_true=u_true)
    _check_values("y", y, 0, "0 or 1")
    _check_values("u_true", u_true, 0, "0 or 1")
    _check_real(magnitude, "magnitude")
    if not (np.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(f"magnitude must be finite and at least 0, got {magnitude}")
    if not nbatch:
        return np.zeros((0, N), dtype=bool)
    n = N.bit_length() - 1
    # the true bits re-encoded, position-major; level d turns the bits of
    # the level-d nodes into those of their children
    x = np.array(np.broadcast_to(u_true, (nbatch, N)).T, dtype=np.uint8, order="C")
    butterfly_rows(x.T)
    table = np.array([magnitude, -magnitude], dtype=np.float64)
    codes = np.ascontiguousarray(np.asarray(y)[:, bit_reversal_permutation(n)].T, dtype=np.uint16)
    d = 0
    # while the triple index is small next to the batch, and fits int32
    while d < n and 2 * table.size**2 <= min(N * nbatch // 8, 1 << 31):
        codes, table = _genie_code_level(codes, x, table, d)
        d += 1
    flags = np.empty((nbatch, N), dtype=bool)
    rows = max(1, _GENIE_BLOCK_CELLS // N)
    for r0 in range(0, nbatch, rows):
        r1 = min(r0 + rows, nbatch)
        m = table[codes[:, r0:r1]]
        xb = x[:, r0:r1].copy()
        for e in range(d, n):
            _genie_float_level(m, xb, e)
        # after the last level xb holds the true bits themselves
        flags[r0:r1] = ((m < 0) != xb).T
    return flags
