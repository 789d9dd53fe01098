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

and the disturbance Bob can detect is the discrepancy D = <s_perp|rho_s|s_perp>,
the weight Bob's state puts on the state orthogonal to the signal (1 - F in
exact arithmetic).

simulate_protocol runs seeded Monte Carlo trials of the whole exchange,
sampling POVM outcomes by inverse CDF on their exact probabilities with a
counter-based RNG (one stream key per trial, two draws from it), so runs
are reproducible under any partition of the trial range; it runs the range
in chunks of CHUNK_TRIALS trials, so its memory does not grow with the
trial count. Each chunk compares its outcome draws with the two cumulative
thresholds of the signal sent, looked up from 2-entry tables.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import rng
from .qcore import HERM_TOL, TRACE_TOL, _integer, _numbers, _perp, _projectors, _real
from .qcore import bloch_amplitudes, fidelities
from .qcore import fidelity  # noqa: F401  (bench/tracer.py wraps b92.fidelity)
from .machines import CloningSpec, marginals
from .machines import clone  # noqa: F401  (bench/tracer.py wraps b92.clone)

CHUNK_TRIALS = 1 << 15  # trials simulated per block of variates


def _check_vartheta(vartheta) -> float:
    """vartheta as a float, if it is a real number (_real) in (0, pi/2]; ValueError otherwise."""
    vt = _real(vartheta, "vartheta")
    if not 0.0 < vt <= np.pi / 2:
        raise ValueError(f"vartheta must lie in (0, pi/2], got {vt}")
    return vt


def _check_run(vartheta, n, seed) -> tuple:
    """(vartheta, n, seed) as (float, int, int); ValueError, in this order,
    unless n and seed are integers (not bools) with 1 <= n < 2**64 and
    0 <= seed < 2**64, and vartheta passes _check_vartheta. The bound on n
    is rng.trial_uniforms' range of trial indices: a longer run is refused
    here, before its first trial, not when its last chunk is drawn."""
    n = _integer(n, f"need at least one trial and fewer than 2**64, as an integer, got {n!r}",
                 1, 2 ** 64 - 1)
    seed = _integer(seed, f"seed must be an integer in [0, 2**64), got {seed!r}", 0, 2 ** 64 - 1)
    return _check_vartheta(vartheta), n, seed


def _signals(varthetas) -> np.ndarray:
    """Amplitudes (..., 2, 2) of the signal pair at each vartheta: u, then v."""
    return np.stack([bloch_amplitudes(varthetas, 0.0),
                     bloch_amplitudes(np.pi - np.asarray(varthetas), 0.0)], axis=-2)


def _povm_arrays(signals: np.ndarray) -> np.ndarray:
    """Elements (..., 3, 2, 2) of Bob's POVM for signal pairs (..., 2, 2) as
    _signals gives them; complete and positive semidefinite for every
    vartheta in (0, pi/2], pi/2 included, where the two signals coincide."""
    u_amps, v_amps = signals[..., 0, :], signals[..., 1, :]
    s = np.einsum("...i,...i->...", u_amps.conj(), v_amps).real[..., None, None]
    eye = np.eye(2, dtype=np.complex128)
    g1 = (eye - _projectors(u_amps)) / (1.0 + s)
    g2 = (eye - _projectors(v_amps)) / (1.0 + s)
    return np.stack([g1, g2, eye - g1 - g2], axis=-3)


def _probabilities(g_ops: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Tr(G_mu rho) (..., 3) for POVM elements (..., 3, 2, 2) and qubit states
    (..., 2, 2), broadcast over the leading axes. Raises ValueError if an
    imaginary part exceeds HERM_TOL or a row sum (Tr rho) is off 1 by more
    than TRACE_TOL, then clips the rounding noise of 0 and 1 into [0, 1]."""
    vals = np.einsum("...mij,...ji->...m", g_ops, mats)
    worst = np.max(np.abs(vals.imag), initial=0.0)
    if worst > HERM_TOL:
        raise ValueError(f"outcome probability has imaginary part {worst:.3e}")
    probs = vals.real
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"outcome probabilities sum to {total[off].flat[0]}, not 1")
    return np.clip(probs, 0.0, 1.0)


def _attack(spec: CloningSpec, varthetas: np.ndarray) -> tuple:
    """Outcome table P_mu_i (n, 2, 3), information (n,) and discrepancy (n,)
    of a cloning attack at each of n half-angles in (0, pi/2].

    Eve applies the same POVM as Bob to her clone; priors are 1/2 each.
    Outcomes with zero total probability are skipped and 0 log 0 = 0, and
    I is exactly 0 where her outcome probabilities for u and v are equal.
    The discrepancy is the larger of the two per-state values (they
    coincide for machines symmetric across the meridian midpoint). A
    channel puts weight 1 - F on s_perp by construction; that closed form
    keeps D exactly 0 for the ideal channel, whose float |s><s| is not
    exactly rank one.
    """
    signals = _signals(varthetas)
    mats = marginals(spec, signals)
    g_ops = _povm_arrays(signals)
    probs = _probabilities(g_ops[:, None], mats)  # (n, signal u|v, outcome)
    q = 0.5 * (probs[:, 0] + probs[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        post = 0.5 * probs / q[:, None]
        terms = np.where(post > 0.0, post * np.log2(post), 0.0)
    qh = -q * terms.sum(axis=1)  # q_mu H_mu; where q_mu = 0 every term is 0
    info = np.clip(1.0 - qh[:, 0] - qh[:, 1] - qh[:, 2], 0.0, 1.0)
    info[np.all(probs[:, 0] == probs[:, 1], axis=1)] = 0.0
    if spec.variant == "channel":
        disc = np.full(len(signals), 1.0 - spec.clone_fidelity)
    else:
        disc = np.max(fidelities(_perp(signals), mats), axis=1)  # <s_perp|rho|s_perp>
    return probs, info, disc


_Attack = namedtuple("_Attack", "overlap mutual_information discrepancy outcome_probs")


def attack_analysis(spec: CloningSpec, vartheta: float) -> tuple:
    """Eve's mutual information and Bob's discrepancy for a cloning attack
    at one vartheta (see _attack for the conventions), as the named tuple
    (overlap, mutual_information, discrepancy, outcome_probs); outcome_probs
    maps "G1", "G2" and "G3" to the outcome's probabilities (on u, on v)."""
    vt = _check_vartheta(vartheta)
    probs, info, disc = _attack(spec, np.array([vt]))
    return _Attack(
        overlap=float(np.sin(vt) ** 2),
        mutual_information=float(info[0]),
        discrepancy=float(disc[0]),
        outcome_probs={f"G{mu + 1}": (float(probs[0, 0, mu]), float(probs[0, 1, mu]))
                       for mu in range(3)},
    )


def info_curve(spec: CloningSpec, overlaps) -> np.ndarray:
    """Rows (O, I, D) for each requested overlap O = sin^2(vartheta) in (0, 1)."""
    overlaps = np.atleast_1d(_numbers(overlaps, float, "overlaps"))
    if overlaps.ndim != 1 or overlaps.size == 0:
        raise ValueError("need a non-empty 1-d list of overlaps")
    if not np.all((overlaps > 0.0) & (overlaps < 1.0)):
        raise ValueError("every overlap must lie strictly between 0 and 1")
    _, info, disc = _attack(spec, np.arcsin(np.sqrt(overlaps)))
    return np.column_stack([overlaps, info, disc])


_Run = namedtuple("_Run", "seed n_trials conclusive inconclusive errors conclusive_rate "
                         "error_rate")


def simulate_protocol(spec: CloningSpec, vartheta: float, n: int, seed: int) -> tuple:
    """Run n seeded trials of the protocol under a cloning attack.

    Per trial: Alice draws a uniform bit (0 -> u, 1 -> v); the state is
    cloned by spec and one copy's marginal goes to Bob (the ideal channel,
    channel_spec(1.0), leaves the signal untouched); Bob samples a POVM
    outcome from its exact distribution. G1 decodes as bit 1, G2 as bit 0,
    G3 is inconclusive. An error is a conclusive outcome decoding to the
    wrong bit. The seed must lie in [0, 2**64), the range of the RNG's seed
    word, so that no two reported seeds give the same run.

    Returns the named tuple (seed, n_trials, conclusive, inconclusive,
    errors, conclusive_rate, error_rate): the tallies, conclusive outcomes
    per trial, and errors per conclusive outcome (0 when there is none).
    """
    vt, n, seed = _check_run(vartheta, n, seed)
    # G1 and G1+G2 thresholds, one entry per signal state (u, v)
    probs = _attack(spec, np.array([vt]))[0][0]  # (signal u|v, outcome)
    low, high = np.cumsum(probs, axis=1)[:, :2].T

    n_conc = n_err = 0
    for start in range(0, n, CHUNK_TRIALS):
        size = min(CHUNK_TRIALS, n - start)
        send, pick = rng.trial_uniforms(seed, size, (0, 1), start=start)
        bits = send >= 0.5
        # the outcome is G1 below the low threshold, G2 up to the high one
        # and G3 above it
        conclusive = pick < np.take(high, bits)
        past_g1 = pick >= np.take(low, bits)
        n_conc += int(np.count_nonzero(conclusive))
        # G1 decodes as bit 1 and G2 as bit 0, so a conclusive outcome is
        # wrong exactly when it is G2 and bit 1 was sent, or G1 and bit 0
        n_err += int(np.count_nonzero(conclusive & (past_g1 == bits)))
    return _Run(seed, n, n_conc, n - n_conc, n_err, n_conc / n,
                n_err / n_conc if n_conc else 0.0)
