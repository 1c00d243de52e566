"""Nested polar codes for erasure wiretap and relay channels.

A channel-coding library and batch simulator: polar construction on
erasure and symmetric channels, successive cancellation decoding on
erasure channels, coset-structured nested codes for secrecy, exact
eavesdropper equivocation through GF(2) rank computations, and a
block-Markov decode-and-forward relay pipeline.  Encoders, samplers and
decoders take batches, one word per row of an array.
"""

__version__ = "0.2.0"

from .gf2 import BitMatrix
from .polar import (
    CodeParams,
    PolarCodeSpec,
    bit_reversal_permutation,
    generator_matrix,
    transform_rows,
)
from .construction import (
    BSC,
    ReliabilityProfile,
    bec_reliability,
    mc_reliability,
    select_info_set,
    select_secure_subset,
)
from .sc import (
    ERASED,
    decode_bec_rows,
    genie_llr_rows,
    undetermined_bec_rows,
)
from .channels import RngStream, bec_sample_rows, bsc_sample_rows
from .wiretap import (
    EquivocationReport,
    NestedCodeSpec,
    WiretapConfig,
    build_wiretap_code,
    equivocation_rank,
    parity_checks,
    run_wiretap_experiment,
)
from .relay import (
    RelayChannelSpec,
    RelayRunReport,
    RelayScheme,
    build_relay_scheme,
    calibrate_margin,
    simulate_relay,
)

__all__ = [
    "__version__",
    "BitMatrix",
    "CodeParams", "PolarCodeSpec", "bit_reversal_permutation",
    "generator_matrix", "transform_rows",
    "BSC", "ReliabilityProfile",
    "bec_reliability", "mc_reliability", "select_info_set", "select_secure_subset",
    "ERASED", "decode_bec_rows", "genie_llr_rows", "undetermined_bec_rows",
    "RngStream", "bec_sample_rows", "bsc_sample_rows",
    "EquivocationReport", "NestedCodeSpec", "WiretapConfig",
    "build_wiretap_code", "equivocation_rank", "parity_checks",
    "run_wiretap_experiment",
    "RelayChannelSpec", "RelayRunReport", "RelayScheme",
    "build_relay_scheme", "calibrate_margin", "simulate_relay",
]
