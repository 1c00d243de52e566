"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and shares no code with the
package: dense numpy elimination, explicit Kronecker products, exhaustive
enumeration.  Oracles stay independent of the paths they check.  The one
exception, ``mc_reliability_whole_chunks``, pins only how the BSC
construction batches its rows, so it runs the package's own sampler and
genie, which the other oracles pin.
"""
import itertools

import numpy as np

from nestedpolar.channels import RngStream, bsc_llr_magnitude, bsc_sample_rows
from nestedpolar.polar import transform_rows
from nestedpolar.sc import genie_llr_rows

F = np.array([[1, 0], [1, 1]], dtype=np.uint8)


def naive_rank(matrix) -> int:
    """GF(2) rank by textbook row reduction on a dense array."""
    m = np.array(matrix, dtype=np.uint8) % 2
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        for i in range(nrows):
            if i != r and m[i, c]:
                m[i] ^= m[r]
        r += 1
        if r == nrows:
            break
    return r


def kron_power(n: int) -> np.ndarray:
    """Explicit n-th Kronecker power of F."""
    m = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        m = np.kron(F, m)
    return m


def bitrev(i: int, n: int) -> int:
    return int(format(i, f"0{n}b")[::-1], 2) if n else 0


def reference_generator(n: int) -> np.ndarray:
    """G with row i equal to row bitrev(i) of the Kronecker power."""
    m = kron_power(n)
    return m[[bitrev(i, n) for i in range(1 << n)]]


def naive_vec_mat_mul(v, m) -> np.ndarray:
    return (np.asarray(v, dtype=np.int64) @ np.asarray(m, dtype=np.int64)) % 2


def genie_erased_bits(erased) -> np.ndarray:
    """Which bits stay erased under one erasure pattern, given all past bits.

    Bit i is recoverable iff row i of the generator restricted to unerased
    columns is independent of the rows below it (past bits are given,
    future bits are unknown).  The rows are taken from the bottom up, each
    as an integer bit mask, into an echelon basis of the rows below: row i
    is dependent on them iff it reduces to zero against that basis.  This
    equals rank(rows i..) == rank(rows i+1..) with ``naive_rank``, and
    stays fast enough for n = 10.
    """
    erased = np.asarray(erased, dtype=bool)
    N = erased.size
    sub = reference_generator(N.bit_length() - 1)[:, ~erased]
    basis = {}  # leading bit -> basis row
    out = np.zeros(N, dtype=bool)
    for i in range(N - 1, -1, -1):
        r = int.from_bytes(np.packbits(sub[i]).tobytes(), "big")
        while r and r.bit_length() in basis:
            r ^= basis[r.bit_length()]
        if r:
            basis[r.bit_length()] = r
        out[i] = not r
    return out


def exhaustive_bec_bitchannel_z(n: int, eps: float) -> np.ndarray:
    """Exact bit-channel erasure probabilities by pattern enumeration.

    Each pattern's unrecoverable bits (``genie_erased_bits``) are weighted
    by the pattern probability; the sum is the exact Bhattacharyya
    parameter.
    """
    N = 1 << n
    z = np.zeros(N)
    for pattern in itertools.product([False, True], repeat=N):
        erased = np.array(pattern)
        p = (eps ** erased.sum()) * ((1 - eps) ** (N - erased.sum()))
        if p == 0.0:
            continue
        z[genie_erased_bits(erased)] += p
    return z


# Enumeration guard of ``equivocation_bruteforce``.
BRUTEFORCE_MAX_INFO = 20


def equivocation_bruteforce(code, erased) -> float:
    """Exact H(S | Z = z) of a ``NestedCodeSpec`` by enumerating every
    (message, randomization) pair.

    Encodes with ``reference_generator`` and groups the codewords by their
    unerased restriction, then computes the conditional message entropy of
    each group from the uniform prior.  Linearity makes the value identical
    for every consistent observation; that is asserted during the
    enumeration.  Guarded to |A| <= 20.
    """
    k = code.info_set.size
    if k > BRUTEFORCE_MAX_INFO:
        raise ValueError(f"brute force limited to |A| <= {BRUTEFORCE_MAX_INFO}, got {k}")
    erased_arr = np.asarray(erased, dtype=np.int64)
    keep = np.setdiff1d(np.arange(code.N), erased_arr)
    g = reference_generator(code.params.n)
    ms, rs = code.message_len, code.randomization_len
    groups: dict[bytes, np.ndarray] = {}
    t_all = ((np.arange(1 << rs)[:, None] >> np.arange(rs)) & 1).astype(np.uint8)
    for s_index in range(1 << ms):
        s_bits = (s_index >> np.arange(ms)) & 1
        u = np.zeros((1 << rs, code.N), dtype=np.uint8)
        u[:, code.message_set] = s_bits.astype(np.uint8)
        u[:, code.secure_set] = t_all
        x = naive_vec_mat_mul(u, g)
        for row in x[:, keep]:
            key = row.tobytes()
            counts = groups.get(key)
            if counts is None:
                counts = np.zeros(1 << ms, dtype=np.int64)
                groups[key] = counts
            counts[s_index] += 1
    value = None
    for counts in groups.values():
        total = counts.sum()
        p = counts[counts > 0] / total
        entropy = float(-(p * np.log2(p)).sum())
        if value is None:
            value = entropy
        elif abs(entropy - value) > 1e-9:
            raise AssertionError("conditional entropy differs across observations")
    return value if value is not None else 0.0


def sequential_ml_decode(llrs, info_mask, frozen_values) -> np.ndarray:
    """Bit-by-bit maximum-likelihood decoding by summing over future bits.

    Decides each bit from the exact likelihood ratio of the synthesized
    channel given its own earlier decisions; ratio >= 1 decides 0.  The
    ratio is compared with a relative slack of 1e-9, so that an exact tie
    (an exactly-zero LLR somewhere in the bit's combine) still decides 0
    when the float sums below break it by rounding.  Only usable at tiny
    block lengths.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    N = llrs.size
    n = N.bit_length() - 1
    g = reference_generator(n)
    # per-position likelihoods of observing y_j given x_j = 0 / 1
    p_given0 = np.exp(llrs) / (1.0 + np.exp(llrs))
    p_given1 = 1.0 - p_given0
    u_hat = np.zeros(N, dtype=np.uint8)
    for i in range(N):
        if not info_mask[i]:
            u_hat[i] = frozen_values[i]
            continue
        totals = [0.0, 0.0]
        for bit in (0, 1):
            u_hat[i] = bit
            for future in itertools.product([0, 1], repeat=N - i - 1):
                u = u_hat.copy()
                u[i + 1 :] = future
                x = naive_vec_mat_mul(u, g)
                lik = np.prod(np.where(x == 0, p_given0, p_given1))
                totals[bit] += lik
        u_hat[i] = 0 if totals[0] >= totals[1] * (1 - 1e-9) else 1
    return u_hat


def _bec_sc_messages(y):
    """Arikan's SC recursion for one erasure word, as a coroutine.

    Yields the message of bit 0, 1, ... in turn (0, 1 or None for erased)
    and receives each bit's decision.  Splits on the recursion
    x = (s G_{N/2}, t G_{N/2}) with s_j = u_2j + u_2j+1 and t_j = u_2j+1.
    """
    if len(y) == 1:
        yield y[0]
        return
    half = len(y) // 2
    top = _bec_sc_messages(y[:half])  # carries s
    bottom = _bec_sc_messages(y[half:])  # carries t
    a, b = next(top), next(bottom)
    for j in range(half):
        # u_2j = s_j + t_j: known only when both are
        u_even = yield (None if a is None or b is None else a ^ b)
        # u_2j+1 = t_j = s_j + u_2j: either copy will do
        u_odd = yield (b if b is not None else None if a is None else a ^ u_even)
        if j + 1 < half:
            a, b = top.send(u_even ^ u_odd), bottom.send(u_odd)


def bec_sc_reference(y, info_mask, frozen_values):
    """SC decoding of each row of y (ints over {0, 1, -1 for erased}).

    Information bits are decided from their message, 0 when it is erased
    (and counted); frozen bits take frozen_values, of shape (N,) or
    (batch, N).  Returns (u_hat uint8 (batch, N), undetermined int64 (batch,)).
    """
    y = np.asarray(y)
    nbatch, N = y.shape
    fv = np.broadcast_to(frozen_values, (nbatch, N))
    u_hat = np.zeros((nbatch, N), dtype=np.uint8)
    undetermined = np.zeros(nbatch, dtype=np.int64)
    for r in range(nbatch):
        word = [None if v == -1 else int(v) for v in y[r]]
        messages = _bec_sc_messages(word)
        m = next(messages)
        for i in range(N):
            if not info_mask[i]:
                u = int(fv[r, i])
            elif m is None:
                u = 0
                undetermined[r] += 1
            else:
                u = m
            u_hat[r, i] = u
            if i + 1 < N:
                m = messages.send(u)
    return u_hat, undetermined


def genie_llr_walk(llr, u_true) -> np.ndarray:
    """Genie-aided SC over a batch of LLR words by a walk of the SC tree.

    The recursion the level-wise ``genie_llr_rows`` replaced, with the same
    combines (check logaddexp(0, a+b) - logaddexp(a, b), variable
    b + a (1 - 2 xl)) in the same float order, so the two agree bit for
    bit.  Messages are (position, row) with positions bit-reversed, so a
    node's halves are m[:h] and m[h:]; each leaf flags a hard decision
    that differs from its true bit and feeds the true bit forward.
    u_true is (N,) or (batch, N).
    """
    llr = np.asarray(llr, dtype=np.float64)
    nbatch, N = llr.shape
    n = N.bit_length() - 1
    u = np.broadcast_to(np.asarray(u_true, dtype=np.uint8), (nbatch, N))
    flags = np.zeros((nbatch, N), dtype=bool)

    def rec(m, lo):
        if m.shape[0] == 1:
            flags[:, lo] = (m[0] < 0) != u[:, lo]
            return u[:, lo][None]
        h = m.shape[0] // 2
        a, b = m[:h], m[h:]
        xl = rec(np.logaddexp(0.0, a + b) - np.logaddexp(a, b), lo)
        xr = rec(b + a * (1.0 - 2.0 * xl), lo + h)
        return np.concatenate([xl ^ xr, xr])

    rec(llr[:, [bitrev(i, n) for i in range(N)]].T, 0)
    return flags


def bec_sample_float_rule(x, erasure_prob: float, rng) -> np.ndarray:
    """The erasure sampler's defining rule: one uniform per position, erase
    (-1) iff the draw is below the erasure probability, else keep x's
    symbol as int8."""
    x = np.asarray(x)
    return np.where(rng.random(x.shape) < erasure_prob, np.int8(-1), x.astype(np.int8))


def bsc_sample_float_rule(x, crossover_prob: float, rng) -> np.ndarray:
    """The BSC sampler's defining rule: one whole-array uniform draw, flip
    each 0/1 symbol of x iff its draw is below the crossover probability;
    uint8."""
    x = np.asarray(x).astype(np.uint8)
    return np.where(rng.random(x.shape) < crossover_prob, 1 - x, x).astype(np.uint8)


def mc_reliability_whole_chunks(crossover_prob: float, n: int, trials: int, seed: int,
                                chunk_positions: int = 4_000_000) -> np.ndarray:
    """The BSC construction's z with one genie call per chunk: chunks of
    max(1, chunk_positions // N) rows, one substream each, whose inputs,
    flips and genie flags are drawn and computed for the whole chunk at
    once.  ``mc_reliability`` must equal it bit for bit, however it
    batches a chunk's rows."""
    N = 1 << n
    chunk = max(1, chunk_positions // N)
    counts = np.zeros(N, dtype=np.int64)
    for index, start in enumerate(range(0, trials, chunk)):
        rng = RngStream(seed, index).generator()
        u = rng.integers(0, 2, size=(min(chunk, trials - start), N), dtype=np.uint8)
        y = bsc_sample_rows(transform_rows(u), crossover_prob, rng)
        counts += genie_llr_rows(y, bsc_llr_magnitude(crossover_prob), u).sum(axis=0)
    return counts / trials
