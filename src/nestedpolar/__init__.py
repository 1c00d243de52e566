"""Nested polar codes for erasure wiretap and relay channels.

A channel-coding library and batch simulator: polar construction and
successive cancellation decoding on erasure (and symmetric) channels,
coset-structured nested codes for secrecy, exact eavesdropper
equivocation through GF(2) rank computations, and a block-Markov
decode-and-forward relay pipeline.
"""

__version__ = "0.1.0"

from .gf2 import (
    BitMatrix,
    BitVector,
    null_space_basis,
    rank,
    select_columns,
    select_rows,
    vec_mat_mul,
)
from .polar import (
    CodeParams,
    PolarCodeSpec,
    bit_reversal_permutation,
    encode,
    generator_matrix,
    polar_transform,
)
from .construction import (
    BEC,
    BSC,
    ReliabilityProfile,
    bec_reliability,
    mc_reliability,
    select_info_set,
    select_secure_subset,
)
from .sc import (
    ERASED,
    DecodeResult,
    ReceivedWord,
    sc_decode_bec,
    sc_decode_llr,
)
from .channels import RngStream, bec_sample, bsc_sample, cascade_erasure
from .wiretap import (
    EquivocationReport,
    NestedCodeSpec,
    WiretapConfig,
    alice_encode,
    bob_decode,
    build_wiretap_code,
    equivocation_bruteforce,
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
    "BitMatrix", "BitVector", "null_space_basis", "rank",
    "select_columns", "select_rows", "vec_mat_mul",
    "CodeParams", "PolarCodeSpec", "bit_reversal_permutation",
    "encode", "generator_matrix", "polar_transform",
    "BEC", "BSC", "ReliabilityProfile",
    "bec_reliability", "mc_reliability", "select_info_set", "select_secure_subset",
    "ERASED", "DecodeResult", "ReceivedWord", "sc_decode_bec", "sc_decode_llr",
    "RngStream", "bec_sample", "bsc_sample", "cascade_erasure",
    "EquivocationReport", "NestedCodeSpec", "WiretapConfig",
    "alice_encode", "bob_decode", "build_wiretap_code",
    "equivocation_bruteforce", "equivocation_rank", "parity_checks",
    "run_wiretap_experiment",
    "RelayChannelSpec", "RelayRunReport", "RelayScheme",
    "build_relay_scheme", "calibrate_margin", "simulate_relay",
]
