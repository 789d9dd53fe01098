"""B92 key distribution under cloning attacks.

Alice encodes bit 0 as u = cos(vartheta/2)|0> + sin(vartheta/2)|1> and bit 1
as v = sin(vartheta/2)|0> + cos(vartheta/2)|1>; both sit on the Eastern
meridian (Bloch angles vartheta and pi - vartheta) with overlap
O = <u|v>^2 = sin^2(vartheta). Bob discriminates with the three-outcome
POVM

    G1 = (1 - |u><u|) / (1 + <u|v>)
    G2 = (1 - |v><v|) / (1 + <u|v>)
    G3 = 1 - G1 - G2

whose conclusive outcomes never lie: G1 annihilates u (a click means v) and
G2 annihilates v (a click means u). On an intact pure state either
conclusive outcome fires with total probability 1 - sin(vartheta).

An eavesdropper clones each qubit independently, forwards one copy's
marginal to Bob and measures her own with the same POVM. Her information
gain is quantified in bits by the posterior-entropy chain

    P_mu_i = Tr(G_mu rho_i),  q_mu = sum_i P_mu_i / 2,
    Q_i_mu = P_mu_i / (2 q_mu),  H_mu = -sum_i Q_i_mu log2 Q_i_mu,
    I = 1 - sum_mu q_mu H_mu,

and the disturbance Bob can detect is the discrepancy D = 1 - <s|rho_s|s>.

simulate_protocol runs seeded Monte Carlo trials of the whole exchange,
sampling POVM outcomes by inverse CDF on their exact probabilities with a
counter-based RNG (one stream per trial), so runs are reproducible under
any parallel partition of the trial range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .qcore import DensityMatrix, PureQubit, bloch_amplitudes, fidelities
from .qcore import fidelity  # noqa: F401  (bench/tracer.py wraps b92.fidelity)
from .machines import CloningSpec, marginals
from .machines import clone  # noqa: F401  (bench/tracer.py wraps b92.clone)
from .textio import format_float

_POVM_PSD_TOL = -1e-12
_POVM_SUM_TOL = 1e-12


@dataclass(frozen=True)
class B92Pair:
    """The two signal states at a given vartheta in (0, pi/2]."""

    vartheta: float

    def __post_init__(self):
        vt = float(self.vartheta)
        if not np.isfinite(vt) or not 0.0 < vt <= np.pi / 2:
            raise ValueError(f"vartheta must lie in (0, pi/2], got {vt}")
        object.__setattr__(self, "vartheta", vt)

    @property
    def u(self) -> PureQubit:
        return PureQubit(self.vartheta, 0.0)

    @property
    def v(self) -> PureQubit:
        return PureQubit(np.pi - self.vartheta, 0.0)

    @property
    def overlap(self) -> float:
        """O = <u|v>^2 = sin^2(vartheta)."""
        return float(np.sin(self.vartheta) ** 2)


def b92_pair(vartheta: float) -> B92Pair:
    """Signal pair for the given half-angle parameter."""
    return B92Pair(vartheta)


@dataclass(frozen=True, eq=False)
class POVMTriple:
    """Three-outcome measurement (G1, G2 conclusive, G3 inconclusive)."""

    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def __post_init__(self):
        ops = []
        for name in ("g1", "g2", "g3"):
            op = np.array(getattr(self, name), dtype=np.complex128, copy=True)
            if op.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {op.shape}")
            if np.max(np.abs(op - op.conj().T)) > 1e-12:
                raise ValueError(f"{name} is not Hermitian")
            if np.linalg.eigvalsh(op)[0] < _POVM_PSD_TOL:
                raise ValueError(f"{name} is not positive semidefinite")
            op.setflags(write=False)
            ops.append(op)
        total = ops[0] + ops[1] + ops[2]
        if np.max(np.abs(total - np.eye(2))) > _POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "g1", ops[0])
        object.__setattr__(self, "g2", ops[1])
        object.__setattr__(self, "g3", ops[2])

    @property
    def elements(self) -> tuple:
        return (self.g1, self.g2, self.g3)


def _projectors(amps: np.ndarray) -> np.ndarray:
    """|s><s| (..., 2, 2) for amplitude stacks (..., 2)."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def _signals(varthetas) -> np.ndarray:
    """Amplitudes (..., 2, 2) of the signal pair at each vartheta: u, then v."""
    return np.stack([bloch_amplitudes(varthetas, 0.0),
                     bloch_amplitudes(np.pi - np.asarray(varthetas), 0.0)], axis=-2)


def _povm_arrays(u_amps: np.ndarray, v_amps: np.ndarray) -> np.ndarray:
    """Elements (..., 3, 2, 2) of Bob's POVM for signal amplitudes (..., 2)."""
    s = np.einsum("...i,...i->...", u_amps.conj(), v_amps).real[..., None, None]
    eye = np.eye(2, dtype=np.complex128)
    g1 = (eye - _projectors(u_amps)) / (1.0 + s)
    g2 = (eye - _projectors(v_amps)) / (1.0 + s)
    return np.stack([g1, g2, eye - g1 - g2], axis=-3)


def povm(pair: B92Pair) -> POVMTriple:
    """Bob's discrimination POVM for the pair; undefined at <u|v> = 1."""
    u_amps = pair.u.amplitudes
    v_amps = pair.v.amplitudes
    if np.vdot(u_amps, v_amps).real >= 1.0 - 1e-12:
        raise ValueError("signal states coincide (<u|v> = 1); no POVM discriminates them")
    return POVMTriple(*_povm_arrays(u_amps, v_amps))


def _probabilities(g_ops: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Tr(G_mu rho) (..., 3) for POVM elements (..., 3, 2, 2) and qubit states
    (..., 2, 2), broadcast over the leading axes. Raises ValueError if an
    imaginary part or the distance of a row sum from 1 exceeds 1e-12, then
    clips the rounding noise of probabilities that are 0 or 1 into [0, 1]."""
    vals = np.einsum("...mij,...ji->...m", g_ops, mats)
    worst = np.max(np.abs(vals.imag), initial=0.0)
    if worst > 1e-12:
        raise ValueError(f"outcome probability has imaginary part {worst:.3e}")
    probs = vals.real
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0) > _POVM_SUM_TOL
    if np.any(off):
        raise ValueError(f"outcome probabilities sum to {total[off].flat[0]}, not 1")
    return np.clip(probs, 0.0, 1.0)


def outcome_probs(ops: POVMTriple, rho: DensityMatrix) -> tuple:
    """Probabilities (p1, p2, p3) of the three outcomes on a qubit state."""
    if rho.dims != (2,):
        raise ValueError(f"outcome_probs needs a single-qubit state, dims {rho.dims}")
    return tuple(float(p) for p in _probabilities(np.stack(ops.elements), rho.matrix))


@dataclass(frozen=True)
class AttackAnalysis:
    """Analytic eavesdropping figures for one machine at one vartheta."""

    machine_name: str
    overlap: float
    mutual_information: float
    discrepancy: float
    outcome_probs: dict


def _attack(spec: CloningSpec, varthetas: np.ndarray) -> tuple:
    """Outcome table P_mu_i (n, 2, 3), information (n,) and discrepancy (n,)
    of a cloning attack at each of n half-angles in (0, pi/2].

    Eve applies the same POVM as Bob to her clone; priors are 1/2 each.
    Outcomes with zero total probability are skipped and 0 log 0 = 0.
    The discrepancy is the larger of the two per-state values (they
    coincide for machines symmetric across the meridian midpoint).
    """
    signals = _signals(varthetas)
    mats = marginals(spec, signals)
    g_ops = _povm_arrays(signals[:, 0], signals[:, 1])
    probs = _probabilities(g_ops[:, None], mats)  # (n, signal u|v, outcome)
    q = 0.5 * (probs[:, 0] + probs[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        post = 0.5 * probs / q[:, None]
        terms = np.where(post > 0.0, post * np.log2(post), 0.0)
    qh = np.where(q > 0.0, -q * terms.sum(axis=1), 0.0)  # q_mu H_mu
    info = np.clip(1.0 - qh[:, 0] - qh[:, 1] - qh[:, 2], 0.0, 1.0)
    disc = np.max(1.0 - fidelities(signals, mats), axis=1)
    return probs, info, disc


def attack_analysis(spec: CloningSpec, vartheta: float) -> AttackAnalysis:
    """Eve's mutual information and Bob's discrepancy for a cloning attack
    at one vartheta (see _attack for the conventions)."""
    pair = b92_pair(vartheta)
    probs, info, disc = _attack(spec, np.array([pair.vartheta]))
    return AttackAnalysis(
        machine_name=spec.name or spec.variant,
        overlap=pair.overlap,
        mutual_information=float(info[0]),
        discrepancy=float(disc[0]),
        outcome_probs={f"G{mu + 1}": (float(probs[0, 0, mu]), float(probs[0, 1, mu]))
                       for mu in range(3)},
    )


def info_curve(spec: CloningSpec, overlaps) -> np.ndarray:
    """Rows (O, I, D) for each requested overlap O = sin^2(vartheta) in (0, 1)."""
    overlaps = np.atleast_1d(np.asarray(overlaps, dtype=float))
    if overlaps.ndim != 1 or overlaps.size == 0:
        raise ValueError("need a non-empty 1-d list of overlaps")
    if not np.all((overlaps > 0.0) & (overlaps < 1.0)):
        raise ValueError("every overlap must lie strictly between 0 and 1")
    _, info, disc = _attack(spec, np.arcsin(np.sqrt(overlaps)))
    return np.column_stack([overlaps, info, disc])


@dataclass(frozen=True)
class ProtocolRun:
    """Tallies of a Monte Carlo protocol run."""

    seed: int
    n_trials: int
    conclusive: int
    inconclusive: int
    errors: int
    empirical_conclusive_rate: float
    empirical_error_rate: float

    def __post_init__(self):
        if self.conclusive + self.inconclusive != self.n_trials:
            raise ValueError("tallies do not sum to the trial count")
        if self.errors > self.conclusive:
            raise ValueError("more errors than conclusive outcomes")

    def to_text(self) -> str:
        """Deterministic key=value serialization (byte-identical per seed)."""
        return (
            f"seed={self.seed}\n"
            f"n_trials={self.n_trials}\n"
            f"conclusive={self.conclusive}\n"
            f"inconclusive={self.inconclusive}\n"
            f"errors={self.errors}\n"
            f"conclusive_rate={format_float(self.empirical_conclusive_rate)}\n"
            f"error_rate={format_float(self.empirical_error_rate)}\n"
        )


def simulate_protocol(spec: CloningSpec | None, vartheta: float, n: int,
                      seed: int) -> ProtocolRun:
    """Run n seeded trials of the protocol, optionally under attack.

    Per trial: Alice draws a uniform bit (0 -> u, 1 -> v); with a machine
    configured, the state is cloned and one copy's marginal goes to Bob;
    Bob samples a POVM outcome from its exact distribution. G1 decodes as
    bit 1, G2 as bit 0, G3 is inconclusive. An error is a conclusive
    outcome decoding to the wrong bit.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    seed = int(seed)
    signals = _signals(b92_pair(vartheta).vartheta)
    received = _projectors(signals) if spec is None else marginals(spec, signals)
    prob_rows = _probabilities(_povm_arrays(signals[0], signals[1]), received)
    cums = np.cumsum(prob_rows, axis=1)

    bits = (rng.trial_uniforms(seed, n, draw=0) >= 0.5).astype(np.int64)
    pick = rng.trial_uniforms(seed, n, draw=1)
    thresholds = cums[bits]  # (n, 3) cumulative rows for each trial's state
    outcome = (pick[:, None] >= thresholds[:, :2]).sum(axis=1)
    conclusive = outcome < 2
    decoded = np.where(outcome == 0, 1, 0)  # G1 -> v (bit 1), G2 -> u (bit 0)
    wrong = conclusive & (decoded != bits)

    n_conc = int(conclusive.sum())
    n_err = int(wrong.sum())
    return ProtocolRun(
        seed=seed,
        n_trials=n,
        conclusive=n_conc,
        inconclusive=n - n_conc,
        errors=n_err,
        empirical_conclusive_rate=n_conc / n,
        empirical_error_rate=(n_err / n_conc) if n_conc else 0.0,
    )
