"""Nested coset coding for the degraded erasure wiretap channel.

The sender hides a message in the choice of coset: codewords are
x = t G_B + s G_{A\\B} with t uniform, where A is chosen by main-channel
reliability and B (the positions sacrificed to randomization) collects
the members of A the eavesdropper receives most reliably.  Encoding puts s
on ``message_set`` and t on ``secure_set`` of u rows for ``transform_rows``;
Bob runs ``decode_bec_rows`` on ``bob_spec()``.

For erasure channels the eavesdropper's residual uncertainty about s is
measured exactly, with no decoder in the loop: given the erased position
set E, it equals rank of the subcode parity checks restricted to E minus
rank of the overall-code parity checks restricted to E.  The tests check
the rank path against an exhaustive enumeration of the codewords at toy
sizes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import RngStream
from .construction import bec_reliability, select_info_set, select_secure_subset
from .gf2 import (
    BitMatrix,
    IncrementalRank,
    _check_index_set,
    _check_integer,
    _check_real,
    _check_seed,
    null_space_basis,  # noqa: F401  (unused; the benchmark tracer still resolves this name)
    pack_columns,
)
from .polar import (
    CodeParams,
    PolarCodeSpec,
    bit_reversal_permutation,
    generator_matrix,
)

__all__ = [
    "NestedCodeSpec",
    "WiretapConfig",
    "EquivocationReport",
    "build_wiretap_code",
    "parity_checks",
    "equivocation_rank",
    "run_wiretap_experiment",
]

class NestedCodeSpec:
    """Nested polar code: overall information set A and subcode set B ⊂ A.

    Messages ride on A\\B (one coset per message); the |B| randomization
    bits pick the codeword within the coset; everything outside A is
    frozen to zero.
    """

    __slots__ = ("params", "info_set", "secure_set", "message_set")

    def __init__(self, params: CodeParams, info_set, secure_set):
        info = _check_index_set(info_set, params.N, "info_set")
        sec = _check_index_set(secure_set, params.N, "secure_set")
        if not np.all(np.isin(sec, info)):
            raise ValueError("secure_set must be a subset of info_set")
        msg = np.setdiff1d(info, sec, assume_unique=True)
        for arr in (info, sec, msg):
            arr.setflags(write=False)
        self.params = params
        self.info_set = info
        self.secure_set = sec
        self.message_set = msg

    @property
    def N(self) -> int:
        return self.params.N

    @property
    def message_len(self) -> int:
        return self.message_set.size

    @property
    def randomization_len(self) -> int:
        return self.secure_set.size

    def bob_spec(self) -> PolarCodeSpec:
        """Decoder view at the legitimate receiver: info set A, frozen zeros."""
        return PolarCodeSpec(self.params, self.info_set)

    def __repr__(self) -> str:
        return (
            f"NestedCodeSpec(N={self.N}, |A|={self.info_set.size}, "
            f"|B|={self.randomization_len})"
        )


@dataclass(frozen=True)
class WiretapConfig:
    """Design point and experiment parameters for a wiretap run."""

    e_m: float
    e_w: float
    rate: float
    n: int
    trials: int
    seed: int

    def __post_init__(self):
        _check_real(self.e_m, "e_m")
        _check_real(self.e_w, "e_w")
        if not 0.0 <= self.e_m <= self.e_w <= 1.0:
            raise ValueError(f"need 0 <= e_m <= e_w <= 1, got e_m={self.e_m}, e_w={self.e_w}")
        _check_real(self.rate, "rate")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        _check_integer(self.trials, "trials", 1)
        _check_seed(self.seed)
        N = CodeParams(self.n).N
        b, k = self.sizes
        if b < 0 or k > N:
            raise ValueError(f"infeasible sizes: |B|={b}, |A|={k} with N={N}")

    @property
    def sizes(self) -> tuple[int, int]:
        """(|B|, |A|) = (round(N (C_M - rate)), |B| + round(N rate))."""
        N = CodeParams(self.n).N
        b = round(N * (1.0 - self.e_m - self.rate))
        return b, b + round(N * self.rate)


@dataclass(frozen=True)
class EquivocationReport:
    """Monte-Carlo equivocation at one evaluated wiretap erasure rate."""

    e_w: float
    mean_equivocation_rate: float
    equivocations: np.ndarray
    upper_bound: float
    trials: int
    info_size: int
    secure_size: int
    block_length: int
    seed: int

    def __post_init__(self):
        eq = np.asarray(self.equivocations, dtype=np.int64)
        eq = eq.copy()
        eq.setflags(write=False)
        object.__setattr__(self, "equivocations", eq)
        limit = (self.info_size - self.secure_size) / self.block_length + 1e-12
        if not 0.0 <= self.mean_equivocation_rate <= limit:
            raise ValueError("mean equivocation rate outside [0, |A\\B|/N]")


def build_wiretap_code(cfg: WiretapConfig) -> NestedCodeSpec:
    """Pick A and B at the sizes ``cfg.sizes``.

    A holds the most reliable main-channel indices and B the members of A
    with the smallest wiretap-channel parameters at the design e_w.
    """
    b, k = cfg.sizes
    main = bec_reliability(cfg.n, cfg.e_m)
    wire = bec_reliability(cfg.n, cfg.e_w)
    info = select_info_set(main, k)
    secure = select_secure_subset(info, wire, b)
    return NestedCodeSpec(CodeParams(cfg.n), info, secure)


def parity_checks(code: NestedCodeSpec) -> tuple[BitMatrix, BitMatrix]:
    """Parity-check matrices (H, H_s) of the overall code and the subcode.

    G is its own inverse (G G = I over GF(2)), so column j of G is
    orthogonal to every row of G but row j.  The checks are therefore read
    off the generator: H = G[:, free]^T with free = A^c, and H_s likewise
    with free = B^c, one row per free position.  The rows are in
    *ascending bit-reversed index* of their free position.  Ranks do not
    depend on the order, but their cost does: ``IncrementalRank`` pivots
    on the highest set bit of a packed column, and in this order the fig1
    rank loop takes about as many XOR steps as on the old reduced-echelon
    basis, while natural or descending bit-reversed orders take 2.5-6.5x as
    long.
    """
    n = code.params.n
    g = generator_matrix(n).entries
    rev = bit_reversal_permutation(n)

    def checks(kept: np.ndarray) -> BitMatrix:
        free = np.ones(code.N, dtype=bool)
        free[kept] = False
        # rev is an involution, so rev[free[rev]] lists the free positions
        # in ascending order of their bit-reversed index.
        return BitMatrix(g[:, rev[free[rev]]].T)

    return checks(code.info_set), checks(code.secure_set)


def equivocation_rank(h: BitMatrix, h_s: BitMatrix, erased) -> int:
    """Eavesdropper equivocation, in bits, for one erased position set.

    rank of the subcode checks restricted to the erased columns minus
    rank of the overall-code checks restricted to the same columns;
    non-negative because the overall code's dual lies inside the
    subcode's dual.  Each rank is an ``IncrementalRank`` over the packed
    erased columns, the engine the sweep uses.
    """
    idx = _check_index_set(erased, h.cols, "erased").tolist()

    def erased_rank(m: BitMatrix) -> int:
        cols = pack_columns(m)
        acc = IncrementalRank(m.rows)
        for j in idx:
            acc.add(cols[j])
        return acc.rank

    return erased_rank(h_s) - erased_rank(h)


def run_wiretap_experiment(cfg: WiretapConfig, e_w_sweep) -> list[EquivocationReport]:
    """Design once at cfg.e_w, then evaluate equivocation at each swept e_w.

    Every trial draws one uniform per position from its own substream and
    reuses it at every sweep point (erase iff draw < e_w), so erasure sets
    are nested across points and the per-trial equivocation is monotone.
    The ranks are maintained incrementally while columns join in draw
    order, which prices a whole sweep at one elimination per trial.
    """
    points = np.asarray(e_w_sweep, dtype=np.float64)
    if points.ndim != 1 or points.size == 0:
        raise ValueError("e_w sweep must be a nonempty 1-D sequence")
    if not np.all((points >= 0.0) & (points <= 1.0)):  # False for NaN as well
        raise ValueError("swept e_w values must lie in [0, 1]")
    code = build_wiretap_code(cfg)
    h, h_s = parity_checks(code)
    h_cols = pack_columns(h)
    hs_cols = pack_columns(h_s)
    N = code.N
    ascending = np.argsort(points, kind="stable")
    eq = np.zeros((cfg.trials, points.size), dtype=np.int64)

    for t in range(cfg.trials):
        draws = RngStream(cfg.seed, t).generator().random(N)
        order = np.argsort(draws, kind="stable")
        cuts = np.searchsorted(draws[order], points[ascending], side="left")
        acc_h = IncrementalRank(h.rows)
        acc_s = IncrementalRank(h_s.rows)
        pos = 0
        for pi, cut in zip(ascending.tolist(), cuts.tolist()):
            for j in order[pos:cut].tolist():
                acc_h.add(h_cols[j])
                acc_s.add(hs_cols[j])
            pos = cut
            eq[t, pi] = acc_s.rank - acc_h.rank

    reports = []
    for pi, e_w in enumerate(points):
        reports.append(
            EquivocationReport(
                e_w=float(e_w),
                mean_equivocation_rate=float(eq[:, pi].mean() / N),
                equivocations=eq[:, pi],
                upper_bound=min(cfg.rate, float(e_w) - cfg.e_m),
                trials=cfg.trials,
                info_size=int(code.info_set.size),
                secure_size=int(code.randomization_len),
                block_length=N,
                seed=cfg.seed,
            )
        )
    return reports
