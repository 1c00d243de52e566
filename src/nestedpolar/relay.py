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

from .channels import RngStream, bec_sample_rows, cascade_rows
from .construction import bec_reliability, select_info_set
from .gf2 import _check_integer, _check_seed
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
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

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


class _InfeasibleMargin(ValueError):
    """The stage sizes at this margin do not fit together."""


def _scheme_designer(spec: RelayChannelSpec, n: int, blocks: int):
    """Build the three BEC profiles once; return margin -> RelayScheme, which
    raises ``_InfeasibleMargin`` when the stage sizes at that margin do not fit."""
    params = CodeParams(n)
    N = params.N
    z_sr = bec_reliability(n, spec.e_sr)
    z_sd = bec_reliability(n, spec.e_sd)
    z_rd = bec_reliability(n, spec.e_rd)
    regime = 1 if spec.c_sr <= spec.c_sd + spec.c_rd else 2

    def design(margin: float) -> RelayScheme:
        if regime == 1:
            k_a = round(margin * N * spec.c_sr)
            k_sd = round(margin * N * spec.c_sd)
            k_rd = round(margin * N * spec.c_rd)
            info = select_info_set(z_sr, k_a)
            best_sd = select_info_set(z_sd, k_sd)
            secure = np.intersect1d(info, best_sd, assume_unique=True)
            coset = info.size - secure.size
            if coset > k_rd:
                raise _InfeasibleMargin(
                    f"infeasible at margin {margin}: coset size {coset} exceeds RD budget {k_rd}"
                )
        else:
            k_b = round(margin * N * spec.c_sd)
            k_a = round(margin * N * (spec.c_sd + spec.c_rd))
            secure = select_info_set(z_sd, k_b)
            outside = z_sr.order[~np.isin(z_sr.order, secure)]
            info = np.sort(np.concatenate([secure, outside[: k_a - k_b]]))

        source = NestedCodeSpec(params, info, secure)
        rd_info = select_info_set(z_rd, source.message_len)
        rd_code = PolarCodeSpec(params, rd_info)
        bounds = (float(z_sr.z[info].sum()), float(z_sd.z[secure].sum()), float(z_rd.z[rd_info].sum()))
        return RelayScheme(source, rd_code, blocks, regime, margin, bounds)

    return design


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
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must be in (0, 1], got {margin}")
    return _scheme_designer(spec, n, blocks)(margin)


def calibrate_margin(
    spec: RelayChannelSpec, n: int, blocks: int, target: float
) -> RelayScheme:
    """Largest margin on the grid 1, 0.995, ..., 0.005 whose three stage union
    bounds all sit at or below ``target``.  The profiles are built once for the
    scan; only margins whose stage sizes do not fit are skipped."""
    design = _scheme_designer(spec, n, blocks)
    for i in range(200):
        try:
            scheme = design(round(1.0 - 0.005 * i, 12))
        except _InfeasibleMargin:
            continue
        if max(scheme.stage_bounds) <= target:
            return scheme
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
    resolves block k once that arrives.  The SR and RD stages are one link
    step each: put the bits on a code's information set, erase each word,
    SC-decode it with that code.  A word's erasure pattern is the sampler
    on the all-zero word, ORed with the word to receive it; the SD pattern
    is the SR pattern further erased, preserving physical degradedness.
    The rows each stage SC-walks, and the undetermined counts
    (``undetermined_bec_rows``), follow the module docstring's rule.
    Deterministic given the seed: each (trial, block, role) draws from its
    own substream, so erasure-rate changes couple monotonically.
    """
    _check_integer(trials, "trials", 1)
    _check_seed(seed)
    code = scheme.source_code
    N, blocks = code.N, scheme.blocks
    a_set = code.info_set
    msg_pos = np.isin(a_set, code.message_set)  # A\B positions within A
    source_spec = code.bob_spec()
    sd_mask = np.zeros(N, dtype=bool)
    sd_mask[code.secure_set] = True
    zero_word = np.zeros(N, dtype=np.int8)

    def per_trial(block: int, role: int, draw) -> np.ndarray:
        """Stack draw(t, rng) over the trials, rng from the (t, block, role) substream."""
        return np.stack([
            draw(t, RngStream(seed, (t * (blocks + 1) + block) * 4 + role).generator())
            for t in range(trials)
        ])

    def sc_decode(e, info_mask, sent_set, bits):
        """SC-decode with info_mask the words that carry bits on sent_set and
        zeros elsewhere, erased by the patterns e; the decoder freezes the
        sent bits.  Only the rows in doubt are encoded and walked (module
        docstring); returns their indices, their decoded bits on sent_set
        and every row's undetermined count."""
        undet = undetermined_bec_rows(e, info_mask)
        doubt = np.flatnonzero(undet)
        u = np.zeros((doubt.size, N), dtype=np.uint8)
        u[:, sent_set] = bits[doubt]
        y = e[doubt] | transform_rows(u).view(np.int8)
        # the decoder reads u only outside info_mask, as the frozen values
        u_hat, _ = decode_bec_rows(y, info_mask, u)
        return doubt, u_hat[:, sent_set], undet

    def link(link_spec: PolarCodeSpec, bits, erasure_prob: float, block: int, role: int):
        """Send bits on link_spec's information set and zeros elsewhere, draw
        each word's erasure pattern from its own substream and SC-decode it
        with link_spec; returns the patterns, the decoded information bits
        and the undetermined counts."""
        e = per_trial(block, role, lambda t, rng: bec_sample_rows(zero_word, erasure_prob, rng))
        doubt, decoded_rows, undet = sc_decode(e, link_spec.info_mask, link_spec.info_set, bits)
        decoded = bits.copy()
        decoded[doubt] = decoded_rows
        return e, decoded, undet

    relay_err, rd_err, dest_err = np.zeros((3, trials, blocks), dtype=bool)
    undet = np.zeros((trials, blocks, 3), dtype=np.int64)

    for k in range(blocks):
        msgs = per_trial(k, _ROLE_MESSAGE, lambda t, rng: rng.integers(0, 2, a_set.size, dtype=np.uint8))

        # relay decodes the whole information set from its SR output
        e_sr, relay_bits, undet[:, k, 0] = link(source_spec, msgs, spec.e_sr, k, _ROLE_SR)
        relay_err[:, k] = np.any(relay_bits != msgs, axis=1)
        # the destination stores its SD copy: the SR output, further erased
        e_sd = per_trial(k, _ROLE_DEG, lambda t, rng: cascade_rows(e_sr[t], spec.e_deg, rng))

        # relay re-encodes A\B (its own, possibly wrong, estimate) over RD
        _, coset_dest, undet[:, k, 1] = link(
            scheme.rd_code, relay_bits[:, msg_pos], spec.e_rd, k + 1, _ROLE_RD
        )
        rd_err[:, k] = np.any(coset_dest != msgs[:, msg_pos], axis=1)

        # destination decodes B from stored SD with the sent coset frozen: a
        # row whose coset arrived wrong is already a destination error, and
        # only a row in doubt can decode B wrongly
        doubt, dest_bits, undet[:, k, 2] = sc_decode(e_sd, sd_mask, a_set, msgs)
        dest_err[:, k] = rd_err[:, k]
        dest_err[doubt, k] |= np.any(dest_bits != msgs[doubt], axis=1)

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
