"""Dense linear algebra for small Hilbert spaces.

States live over one to three subsystems ordered as (qubit a, qubit b,
apparatus); the apparatus dimension never exceeds 4, so everything is plain
dense complex128 arithmetic. All values are immutable after construction
(arrays are write-locked) and all operations are pure functions.

The batched functions (bloch_amplitudes, fidelities, check_qubit_densities)
work on plain array stacks and are all the clone-marginal kernel and the
CLI use; PureQubit, DensityMatrix, to_density, partial_trace and fidelity
are the per-state layer that machines.clone builds on.

Conventions:
    * A pure qubit is parameterized by Bloch angles (theta, phi) with
      amplitudes (cos(theta/2), e^{i phi} sin(theta/2)); the |0> amplitude
      is real and non-negative by construction.
    * Validation tolerances: Hermiticity and trace 1e-12, positivity -1e-10
      on the minimum eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


@dataclass(frozen=True)
class PureQubit:
    """Single-qubit pure state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta in [0, pi], phi in [0, 2*pi). phi is meaningless at the poles and
    is normalized to 0 there so equal states compare equal.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta, phi = map(float, check_bloch_angles(float(self.theta), float(self.phi)))
        if theta == 0.0 or theta == np.pi:
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def amplitudes(self) -> np.ndarray:
        """Length-2 complex amplitude vector (|0> component first)."""
        amps = bloch_amplitudes(self.theta, self.phi)
        amps.setflags(write=False)
        return amps


def check_bloch_angles(theta, phi):
    """Bloch angles as float arrays broadcast against each other, after
    checking that every angle is finite with theta in [0, pi] and phi in
    [0, 2*pi); raises ValueError otherwise."""
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise ValueError("angles must be finite")
    bad = (theta < 0.0) | (theta > np.pi)
    if np.any(bad):
        raise ValueError(f"theta must lie in [0, pi], got {float(theta[bad].flat[0])}")
    bad = (phi < 0.0) | (phi >= 2 * np.pi)
    if np.any(bad):
        raise ValueError(f"phi must lie in [0, 2*pi), got {float(phi[bad].flat[0])}")
    return theta, phi


def bloch_amplitudes(theta, phi=0.0) -> np.ndarray:
    """Amplitudes (..., 2) of the pure qubits at Bloch angles (theta, phi).

    The batched form of PureQubit: theta and phi broadcast against each
    other and are checked by check_bloch_angles, and the poles give exactly
    [1, 0] (theta = 0) and [0, 1] (theta = pi) whatever phi is.
    """
    theta, phi = check_bloch_angles(theta, phi)
    amps = np.empty(theta.shape + (2,), dtype=np.complex128)
    amps[..., 0] = np.cos(theta / 2)
    amps[..., 1] = np.exp(1j * phi) * np.sin(theta / 2)
    amps[theta == 0.0] = (1.0, 0.0)
    amps[theta == np.pi] = (0.0, 1.0)
    return amps


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite operator."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid subsystem dimensions {dims}")
        size = int(np.prod(dims))
        mat = np.array(self.matrix, dtype=np.complex128, copy=True)
        if mat.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        herm = np.max(np.abs(mat - mat.conj().T))
        if herm > HERM_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {herm:.3e})")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
        eigs = np.linalg.eigvalsh(mat)
        if eigs[0] < PSD_TOL or eigs[-1] > 1.0 - PSD_TOL:
            raise ValueError(
                f"eigenvalues [{eigs[0]:.3e}, {eigs[-1]:.6f}] outside [0, 1] tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)


def to_density(dims, amplitudes) -> DensityMatrix:
    """Rank-1 projector |a><a| of the amplitude vector a over subsystems of
    the given dimensions. DensityMatrix checks the result, so a vector of
    the wrong length, with a non-finite entry or whose norm is not 1 (the
    trace tolerance) is refused with ValueError."""
    a = np.asarray(amplitudes, dtype=np.complex128)
    return DensityMatrix(dims, np.outer(a, a.conj()))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all subsystems not listed in `keep`.

    Args:
        rho: density matrix over one or more subsystems.
        keep: indices of the subsystems to retain (kept in ascending order).

    Returns:
        Reduced DensityMatrix over the kept subsystems.
    """
    dims = rho.dims
    n = len(dims)
    kept = tuple(sorted(set(int(i) for i in keep)))
    if any(i < 0 or i >= n for i in kept):
        raise ValueError(f"subsystem index out of range for {n} subsystems: {kept}")
    if not kept or len(kept) == n:
        raise ValueError("keep must be a nonempty strict subset of subsystems")
    tens = rho.matrix.reshape(dims + dims)
    row_subs = list(range(n))
    col_subs = [i + n if i in kept else i for i in range(n)]
    out_subs = [i for i in kept] + [i + n for i in kept]
    reduced = np.einsum(tens, row_subs + col_subs, out_subs)
    kept_dims = tuple(dims[i] for i in kept)
    size = int(np.prod(kept_dims))
    return DensityMatrix(kept_dims, reduced.reshape(size, size))


def fidelity(state: PureQubit, rho: DensityMatrix) -> float:
    """Overlap <s|rho|s> between a pure qubit and a single-qubit mixed state."""
    if rho.dims != (2,):
        raise ValueError(f"fidelity needs a single-qubit density matrix, dims {rho.dims}")
    return float(fidelities(state.amplitudes, rho.matrix))


def fidelities(amps: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Overlaps <s|rho|s>, clipped to [0, 1], for stacks of qubit amplitudes
    (..., 2) and single-qubit density matrices (..., 2, 2)."""
    vals = np.einsum("...i,...i->...", amps.conj(), np.einsum("...ij,...j->...i", mats, amps))
    worst = np.max(np.abs(vals.imag), initial=0.0)
    if worst > 1e-12:
        raise ValueError(f"fidelity has non-negligible imaginary part {worst:.3e}")
    return np.clip(vals.real, 0.0, 1.0)


def check_qubit_densities(mats: np.ndarray) -> None:
    """The DensityMatrix checks for a stack (..., 2, 2) of Hermitian qubit
    matrices: finite entries, unit trace, and both eigenvalues (in closed
    form) inside [0, 1], each at the DensityMatrix tolerances."""
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    r00, r11 = mats[..., 0, 0].real, mats[..., 1, 1].real
    tr = r00 + r11
    worst = np.max(np.abs(tr - 1.0), initial=0.0)
    if worst > TRACE_TOL:
        raise ValueError(f"trace is off 1 by {worst:.3e}, beyond {TRACE_TOL}")
    radius = np.hypot((r00 - r11) / 2, np.abs(mats[..., 0, 1]))
    lo = np.min(tr / 2 - radius, initial=np.inf)
    hi = np.max(tr / 2 + radius, initial=-np.inf)
    if lo < PSD_TOL or hi > 1.0 - PSD_TOL:
        raise ValueError(f"eigenvalues [{lo:.3e}, {hi:.6f}] outside [0, 1] tolerance")
