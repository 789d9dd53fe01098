"""Dense linear algebra for small Hilbert spaces, and the package's input rules.

A pure qubit is its amplitude pair (alpha, beta), and bloch_amplitudes is
the one way to describe qubits by Bloch angles. The batched functions
(bloch_amplitudes, fidelities, check_qubit_densities) work on plain array
stacks and are all the clone-marginal kernel and the CLI use. The input
rules are _numbers for every number (_real for one), _integer for counts,
seeds and indices, and _unit_pairs for amplitude pairs. DensityMatrix,
to_density, partial_trace and fidelity are a per-state layer the package
does not export. All operations are pure functions; only a DensityMatrix's
matrix and a CloningSpec's vectors and gram are write-locked.

Conventions:
    * Bloch angles (theta, phi) give the amplitudes
      (cos(theta/2), e^{i phi} sin(theta/2)); the |0> amplitude is real and
      non-negative by construction.
    * Every tolerance is named once, below: validation (HERM_TOL, TRACE_TOL,
      PSD_TOL, UNITARITY_TOL), input amplitude pairs (JOINT_NORM_TOL,
      UNIT_CUT) and the realizable region (FEASIBILITY_TOL, BOUNDARY_TOL).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

# Each: what it bounds; worst (rounded up) over built-ins, boundary machines, goldens' inputs
HERM_TOL = 1e-12  # |rho - rho^H|, |Im| of <s|rho|s> and of Tr(G rho); worst 1.2e-16
TRACE_TOL = 1e-12  # |Tr rho - 1|, |POVM row sum - 1|; worst 4.5e-16
PSD_TOL = -1e-10  # how far an eigenvalue of rho may lie outside [0, 1]; worst 8.9e-16
UNITARITY_TOL = 1e-10  # |residual| of each unitarity condition on a spec; worst 4.5e-16
JOINT_NORM_TOL = 1e-8  # |norm - 1| of an input amplitude pair; worst 2.3e-16
UNIT_CUT = 1e-15  # a pair whose |norm - 1| exceeds this is divided by its norm; worst 2.3e-16
FEASIBILITY_TOL = 1e-12  # how far a triple may lie outside the realizable region; worst 4.5e-16
BOUNDARY_TOL = 1e-6  # distance of an active bound from an optimum; worst 0, inactive >= 0.1


def _numbers(values, dtype, what: str) -> np.ndarray:
    """values as a finite array of dtype (float or complex128). An integer or
    float ndarray (complex too for complex128) is taken without a copy; any
    other input is walked entry by entry, and a bool (numpy's too), string,
    None or other object raises ValueError even among numbers, as do an
    integer too large for a float and a value that is not finite."""
    real = dtype is float
    if isinstance(values, np.ndarray) and values.dtype.kind in ("iuf" if real else "iufc"):
        arr = values.astype(dtype, copy=False)
    else:
        entries = np.asarray(values, dtype=object)
        kind, noun = (numbers.Real, "real number") if real else (numbers.Complex, "number")
        for x in entries.flat:
            if isinstance(x, bool) or not isinstance(x, kind):
                noun = f"{noun}s" if entries.ndim else f"a {noun}"
                raise ValueError(f"{what} must be {noun}, got {type(x).__name__}")
        try:
            arr = entries.astype(dtype)
        except OverflowError:
            raise ValueError(f"{what} is out of range") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    return arr


def _real(value, what: str) -> float:
    """One real number, by _numbers' rule, as a float."""
    arr = _numbers(value, float, what)
    if arr.ndim:
        raise ValueError(f"{what} must be a real number, got shape {arr.shape}")
    return float(arr)


def _integer(value, message: str, lo=-np.inf, hi=np.inf) -> int:
    """An integer in [lo, hi] as an int; anything else, bools too, raises ValueError(message)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ValueError(message)
    return int(value)


def check_bloch_angles(theta, phi):
    """Bloch angles as float arrays broadcast against each other, after
    checking that every angle is a finite real number (_numbers), with
    theta in [0, pi] and phi in [0, 2*pi); raises ValueError otherwise."""
    theta, phi = np.broadcast_arrays(_numbers(theta, float, "angles"),
                                     _numbers(phi, float, "angles"))
    bad = (theta < 0.0) | (theta > np.pi)
    if np.any(bad):
        raise ValueError(f"theta must lie in [0, pi], got {float(theta[bad].flat[0])}")
    bad = (phi < 0.0) | (phi >= 2 * np.pi)
    if np.any(bad):
        raise ValueError(f"phi must lie in [0, 2*pi), got {float(phi[bad].flat[0])}")
    return theta, phi


def bloch_amplitudes(theta, phi=0.0) -> np.ndarray:
    """Amplitudes (..., 2) of the pure qubits at Bloch angles (theta, phi).

    theta and phi broadcast against each other and are checked by
    check_bloch_angles, and the poles give exactly [1, 0] (theta = 0, up to
    the sign of a zero) and [0, 1] (theta = pi) whatever phi is.
    """
    theta, phi = check_bloch_angles(theta, phi)
    amps = np.empty(theta.shape + (2,), dtype=np.complex128)
    amps[..., 0] = np.cos(theta / 2)
    amps[..., 1] = np.exp(1j * phi) * np.sin(theta / 2)
    amps[theta == np.pi] = (0.0, 1.0)
    return amps


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite operator."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        message = f"invalid subsystem dimensions {self.dims!r}"
        dims = tuple(_integer(d, message, 1) for d in self.dims)
        if not dims:
            raise ValueError(message)
        size = int(np.prod(dims))
        mat = _numbers(self.matrix, np.complex128, "matrix entries").copy()
        if mat.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} matrix, got {mat.shape}")
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
    """Rank-1 projector |a><a| of the amplitude vector a (_numbers) over
    subsystems of the given dimensions, checked by DensityMatrix."""
    a = _numbers(amplitudes, np.complex128, "amplitudes")
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
    message = f"keep must hold integer subsystem indices in [0, {n}), got {keep!r}"
    kept = tuple(sorted({_integer(i, message, 0, n - 1) for i in keep}))
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


def fidelity(amps, rho: DensityMatrix) -> float:
    """Overlap <s|rho|s> between one pure qubit, given as the amplitude pair
    s that bloch_amplitudes(theta, phi) returns, and a single-qubit mixed
    state: fidelities for one pair, under its amplitude rule. Anything but
    one pair and one qubit state is a ValueError."""
    s = np.asarray(amps)
    if s.shape != (2,):
        raise ValueError(f"fidelity needs one amplitude pair, got shape {s.shape}")
    if rho.dims != (2,):
        raise ValueError(f"fidelity needs a single-qubit density matrix, dims {rho.dims}")
    return float(fidelities(s, rho.matrix))


def _unit_pairs(amps) -> np.ndarray:
    """Amplitude stacks (..., 2) of numbers (_numbers) as complex pairs of
    norm 1. A pair whose norm is off 1 by more than JOINT_NORM_TOL is a
    ValueError; one off by more than UNIT_CUT is divided by its norm."""
    s = _numbers(amps, np.complex128, "input amplitudes")
    if s.shape[-1:] != (2,):
        raise ValueError(f"amplitudes must have a last axis of length 2, got shape {s.shape}")
    norm = np.sqrt(np.sum(s.real ** 2 + s.imag ** 2, axis=-1))
    far = np.abs(norm - 1.0) > JOINT_NORM_TOL
    if np.any(far):
        raise ValueError(f"input amplitudes {s[far][0]} have norm {norm[far][0]}, "
                         f"not 1 within {JOINT_NORM_TOL}")
    # pairs already unit to rounding are used as given: dividing them would
    # only add rounding, enough to move a CLI table in its last printed digit
    return np.where((np.abs(norm - 1.0) > UNIT_CUT)[..., None], s / norm[..., None], s)


def _projectors(amps: np.ndarray) -> np.ndarray:
    """|s><s| (..., 2, 2) for amplitude stacks (..., 2)."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def _perp(amps: np.ndarray) -> np.ndarray:
    """s_perp = (-conj(beta), conj(alpha)) (..., 2) for amplitude stacks (alpha, beta)."""
    return np.stack([-amps[..., 1].conj(), amps[..., 0].conj()], axis=-1)


def fidelities(amps, mats: np.ndarray) -> np.ndarray:
    """Overlaps <s|rho|s>, clipped to [0, 1], for stacks of qubit amplitudes
    (..., 2) and single-qubit density matrices (..., 2, 2). Like marginals,
    it refuses a pair whose norm is not 1 within JOINT_NORM_TOL."""
    amps = _unit_pairs(amps)
    vals = np.einsum("...i,...i->...", amps.conj(), np.einsum("...ij,...j->...i", mats, amps))
    worst = np.max(np.abs(vals.imag), initial=0.0)
    if worst > HERM_TOL:
        raise ValueError(f"fidelity has non-negligible imaginary part {worst:.3e}")
    return np.clip(vals.real, 0.0, 1.0)


def check_qubit_densities(mats: np.ndarray) -> None:
    """Checks a stack (..., 2, 2) of Hermitian qubit matrices: every entry
    finite, each trace 1 within TRACE_TOL, and the lower eigenvalue (closed
    form) at least PSD_TOL, which bounds the upper by 1 + TRACE_TOL - PSD_TOL."""
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    r00, r11 = mats[..., 0, 0].real, mats[..., 1, 1].real
    tr = r00 + r11
    worst = np.max(np.abs(tr - 1.0), initial=0.0)
    if worst > TRACE_TOL:
        raise ValueError(f"trace is off 1 by {worst:.3e}, beyond {TRACE_TOL}")
    radius = np.hypot((r00 - r11) / 2, np.abs(mats[..., 0, 1]))
    lo = np.min(tr / 2 - radius, initial=np.inf)
    if lo < PSD_TOL:
        raise ValueError(f"eigenvalues reach {lo:.3e}, below 0 beyond tolerance")
