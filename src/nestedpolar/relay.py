"""Block-Markov decode-and-forward over a degraded erasure relay channel.

Topology: the source broadcasts; the relay hears the source-relay (SR)
channel; the destination hears a physically degraded source-destination
(SD) copy, obtained from the very same SR realization by further
erasures, plus an orthogonal relay-destination (RD) channel.

Per block the source sends a nested codeword carrying |A| fresh bits.
The relay decodes all of A and forwards the coset part A\\B over RD in
the next block; the destination first recovers that coset from the relay,
freezes it into the nested code, and then resolves the remaining B bits
from its stored SD output of the previous block.  Relay mistakes
propagate into the forwarded coset; there is no genie at the relay or the
destination.

The relay rule: a stage SC-walks a row if and only if the row has an
information decision made on an erased message (``undetermined_bec_rows``,
which reads only erasures); every other row takes the sent bits, so words
are encoded and received only for the rows in doubt.  The SR and RD links
send and decode zeros outside their information sets, and a row whose
frozen values are the sent ones with no erased information decision decodes
to the sent bits, so every outcome is what SC decoding gives.  The SD stage
freezes the sent coset: a row whose coset arrived wrong is a destination
error whatever B decodes to, and every other row received the sent coset.

Finite-length sizing is driven by the computable union bound: each
stage's summed bit-channel parameters are pushed under a target by
shrinking one margin knob.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import RngStreams, bec_sample_rows, cascade_rows
from .construction import bec_reliability
from .gf2 import _check_integer, _check_probability, _check_real, _check_seed
from .polar import CodeParams, PolarCodeSpec, transform_rows
from .sc import decode_bec_rows, undetermined_bec_rows
from .wiretap import NestedCodeSpec

__all__ = [
    "RelayChannelSpec",
    "RelayScheme",
    "RelayRunReport",
    "build_relay_scheme",
    "calibrate_margin",
    "simulate_relay",
]


@dataclass(frozen=True)
class RelayChannelSpec:
    """Erasure rates of the three links; SD is the SR cascade."""

    e_sr: float
    e_deg: float
    e_rd: float

    def __post_init__(self):
        for name in ("e_sr", "e_deg", "e_rd"):
            _check_probability(getattr(self, name), name)

    @property
    def e_sd(self) -> float:
        return self.e_sr + (1.0 - self.e_sr) * self.e_deg

    @property
    def c_sr(self) -> float:
        return 1.0 - self.e_sr

    @property
    def c_sd(self) -> float:
        return 1.0 - self.e_sd

    @property
    def c_rd(self) -> float:
        return 1.0 - self.e_rd


@dataclass(frozen=True)
class RelayScheme:
    """Constructed codes for one operating point."""

    source_code: NestedCodeSpec
    rd_code: PolarCodeSpec
    blocks: int
    regime: int
    margin: float
    stage_bounds: tuple[float, float, float]  # sum z over (A on SR, B on SD, rd info on RD)

    def __post_init__(self):
        _check_integer(self.blocks, "blocks", 1)
        if self.rd_code.info_len != self.source_code.message_len:
            raise ValueError("relay code must carry exactly |A\\B| bits")

    @property
    def achieved_rate(self) -> Fraction:
        a = self.source_code.info_set.size
        n_len = self.source_code.N
        return Fraction(self.blocks * a, n_len * (self.blocks + 1))


def _scheme_designer(spec: RelayChannelSpec, n: int, blocks: int):
    """Rank each link's indices once; return (size, build).  ``size`` maps a
    margin to its A, B and RD masks and their stage bounds (sums of the masked
    z in index order), raising ValueError where the coset overfills RD, and
    ``build`` turns a margin and its ``size`` into the RelayScheme."""
    _check_integer(blocks, "blocks", 1)
    params = CodeParams(n)
    N = params.N
    z_sr, z_sd, z_rd = (bec_reliability(n, e) for e in (spec.e_sr, spec.e_sd, spec.e_rd))
    sr_rank, sd_rank, rd_rank = ranks = np.empty((3, N), dtype=np.int64)
    for rank, p in zip(ranks, (z_sr, z_sd, z_rd)):
        rank[p.order] = np.arange(N)  # each index's place in the link's reliability order
    regime = 1 if spec.c_sr <= spec.c_sd + spec.c_rd else 2

    def size(margin: float):
        if regime == 1:
            k_a, k_sd, k_rd = (round(margin * N * c) for c in (spec.c_sr, spec.c_sd, spec.c_rd))
            in_a = sr_rank < k_a
            in_b = in_a & (sd_rank < k_sd)
            coset = k_a - np.count_nonzero(in_b)
            if coset > k_rd:
                raise ValueError(f"infeasible at margin {margin}: coset size {coset} exceeds RD budget {k_rd}")
        else:
            k_b, k_a = (round(margin * N * c) for c in (spec.c_sd, spec.c_sd + spec.c_rd))
            in_b = sd_rank < k_b
            coset = k_a - k_b
            # the SR cut below which exactly `coset` indices lie outside B
            cut = np.searchsorted(np.cumsum(~in_b[z_sr.order]), coset) + 1 if coset else 0
            in_a = in_b | (sr_rank < cut)
        in_rd = rd_rank < coset
        bounds = (float(z_sr.z[in_a].sum()), float(z_sd.z[in_b].sum()), float(z_rd.z[in_rd].sum()))
        return in_a, in_b, in_rd, bounds

    def build(margin: float, in_a, in_b, in_rd, bounds) -> RelayScheme:
        source = NestedCodeSpec(params, np.flatnonzero(in_a), np.flatnonzero(in_b))
        rd_code = PolarCodeSpec(params, np.flatnonzero(in_rd))
        return RelayScheme(source, rd_code, blocks, regime, margin, bounds)

    return size, build


def build_relay_scheme(
    spec: RelayChannelSpec, n: int, blocks: int, margin: float
) -> RelayScheme:
    """Size and select all three stages at one margin.

    Regime 1 (C_SR <= C_SD + C_RD): A is the round(margin N C_SR) best SR
    indices and B is A intersected with the round(margin N C_SD) best SD
    indices; the leftover coset A\\B must fit the RD budget
    round(margin N C_RD).  Regime 2: B is the round(margin N C_SD) best SD
    indices and A grows B with the best remaining SR indices up to
    round(margin N (C_SD + C_RD)).  The relay's own code always carries
    |A\\B| bits on the best RD indices.
    """
    _check_real(margin, "margin")
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    size, build = _scheme_designer(spec, n, blocks)
    return build(margin, *size(margin))


def calibrate_margin(
    spec: RelayChannelSpec, n: int, blocks: int, target: float
) -> RelayScheme:
    """Largest margin on the grid 1, 0.995, ..., 0.005 whose stage sizes fit
    and whose three stage union bounds all sit at or below ``target``.  The
    profiles are built once for the scan; each margin's bounds are the exact
    ``stage_bounds`` that ``build_relay_scheme`` gives it, and the scheme is
    built only for the margin returned."""
    _check_real(target, "target")
    if not target >= 0.0:  # NaN fails it
        raise ValueError(f"target must be at least 0, got {target}")
    size, build = _scheme_designer(spec, n, blocks)
    for i in range(200):
        margin = round(1.0 - 0.005 * i, 12)
        try:
            *masks, bounds = size(margin)
        except ValueError:  # the coset overfills RD at this margin
            continue
        if max(bounds) <= target:
            return build(margin, *masks, bounds)
    raise ValueError(f"no margin meets stage bound target {target}")


@dataclass(frozen=True)
class RelayRunReport:
    """Stage-by-stage outcomes of a simulated run."""

    relay_errors: np.ndarray  # (trials, blocks) bool: relay misdecoded A
    rd_errors: np.ndarray  # destination misdecoded the forwarded coset
    dest_errors: np.ndarray  # delivered message differs from the source's
    undetermined: np.ndarray  # (trials, blocks, 3) int64: erased SC decisions per SR, RD, SD stage
    achieved_rate: Fraction
    overall_error_rate: float
    trials: int
    seed: int

    def __post_init__(self):
        for name in ("relay_errors", "rd_errors", "dest_errors"):
            arr = np.asarray(getattr(self, name), dtype=bool).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        undet = np.array(self.undetermined, dtype=np.int64)
        undet.setflags(write=False)
        object.__setattr__(self, "undetermined", undet)


# substream roles within a (trial, block) cell
_ROLE_MESSAGE, _ROLE_SR, _ROLE_DEG, _ROLE_RD = range(4)


def simulate_relay(
    scheme: RelayScheme, spec: RelayChannelSpec, trials: int, seed: int
) -> RelayRunReport:
    """Run the block-Markov pipeline end to end.

    Uses blocks+1 slots: the source is active in blocks 1..blocks, the
    relay forwards block k's coset during block k+1, and the destination
    resolves block k once that arrives.  Each stage (SR, RD, SD) is one
    call of one step: send the bits, erase each word, SC-decode it with
    the stage's information mask and the other sent bits frozen, and
    compare every row with what was sent.  A stage's erasure patterns are
    one sampler call on the all-zero words, given an ``RngStreams`` batch
    of one substream per trial, and each is ORed with its word to receive
    it; the SD patterns are the SR patterns further erased, preserving
    physical degradedness.  Each block's messages are the batch's raw-word
    ``bits``, the very bits ``integers(0, 2, |A|, dtype=np.uint8)`` would
    draw.  The rows the step SC-walks, and the undetermined counts
    (``undetermined_bec_rows``), follow the module docstring's rule.
    Deterministic given the seed: each (trial, block, role) draws from its
    own substream, so erasure-rate changes couple monotonically.
    """
    _check_integer(trials, "trials", 1)
    _check_seed(seed)
    code = scheme.source_code
    N, blocks, a_set = code.N, scheme.blocks, code.info_set
    msg_pos = np.isin(a_set, code.message_set)  # A\B positions within A
    sr_mask = code.bob_spec().info_mask
    sd_mask = PolarCodeSpec(code.params, code.secure_set).info_mask
    zeros = np.broadcast_to(np.zeros(N, dtype=np.int8), (trials, N))

    def generators(block: int, role: int) -> RngStreams:
        """The (trial, block, role) substreams of every trial, in trial order."""
        step = (blocks + 1) * 4
        return RngStreams(seed, range(block * 4 + role, trials * step, step))

    def sc_decode(e, info_mask, sent_set, bits):
        """The stage step: SC-decode with info_mask the words that carry bits
        on sent_set and zeros elsewhere, erased by the patterns e, the sent
        bits frozen; only the rows in doubt are encoded and walked (module
        docstring).  Returns every row's decoded bits on sent_set (the sent
        bits where no walk was needed) and every row's undetermined count."""
        undet = undetermined_bec_rows(e, info_mask)
        doubt = np.flatnonzero(undet)
        u = np.zeros((doubt.size, N), dtype=np.uint8)
        u[:, sent_set] = bits[doubt]
        y = e[doubt] | transform_rows(u).view(np.int8)
        # the decoder reads u only outside info_mask, as the frozen values
        u_hat, _ = decode_bec_rows(y, info_mask, u)
        decoded = bits.copy()
        decoded[doubt] = u_hat[:, sent_set]
        return decoded, undet

    relay_err, rd_err, dest_err = np.zeros((3, trials, blocks), dtype=bool)
    undet = np.zeros((trials, blocks, 3), dtype=np.int64)

    for k in range(blocks):
        msgs = generators(k, _ROLE_MESSAGE).bits(a_set.size)

        # relay decodes the whole information set from its SR output
        e_sr = bec_sample_rows(zeros, spec.e_sr, generators(k, _ROLE_SR))
        relay_bits, undet[:, k, 0] = sc_decode(e_sr, sr_mask, a_set, msgs)
        relay_err[:, k] = np.any(relay_bits != msgs, axis=1)
        # the destination stores its SD copy: the SR output, further erased
        e_sd = cascade_rows(e_sr, spec.e_deg, generators(k, _ROLE_DEG))
        del e_sr

        # relay re-encodes A\B (its own, possibly wrong, estimate) over RD
        coset_dest, undet[:, k, 1] = sc_decode(
            bec_sample_rows(zeros, spec.e_rd, generators(k + 1, _ROLE_RD)),
            scheme.rd_code.info_mask, scheme.rd_code.info_set, relay_bits[:, msg_pos],
        )
        rd_err[:, k] = np.any(coset_dest != msgs[:, msg_pos], axis=1)

        # destination decodes B from stored SD with the sent coset frozen
        dest_bits, undet[:, k, 2] = sc_decode(e_sd, sd_mask, a_set, msgs)
        dest_err[:, k] = rd_err[:, k] | np.any(dest_bits != msgs, axis=1)

    return RelayRunReport(
        relay_errors=relay_err,
        rd_errors=rd_err,
        dest_errors=dest_err,
        undetermined=undet,
        achieved_rate=scheme.achieved_rate,
        overall_error_rate=float(dest_err.mean()),
        trials=trials,
        seed=seed,
    )
