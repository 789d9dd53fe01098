"""Symmetric 1-to-2 qubit cloning machines.

A machine in the explicit family is defined by four apparatus vectors
(Q0, Q1, Y0, Y1) in a d-dimensional apparatus space through the two basis
rules

    |0>|blank>|Q>  ->  |00> Q0 + (|01> + |10>) Y0
    |1>|blank>|Q>  ->  |11> Q1 + (|01> + |10>) Y1

extended linearly to any input qubit. Unitarity forces

    <Qi|Qi> + 2 <Yi|Yi> = 1   (i = 0, 1)      and      <Y0|Y1> = 0,

and the whole family is summarized by the real triple

    zeta = <Y0|Y0> = <Y1|Y1>,   eta = 2 <Y0|Q1>,   kappa = 2 <Q0|Y0>.

The Cauchy-Schwarz bounds 0 <= zeta <= 1/2 and 0 <= eta, kappa <=
2 sqrt(zeta (1 - 2 zeta)) are necessary but not sufficient for such vectors
to exist; realizability is the positive semidefiniteness of their 4x4 Gram
matrix for some free overlap q = <Q0|Q1>, which reduces to the closed
condition that the Gram margin 4 zeta (1 - 2 zeta) - (kappa^2 + eta^2) is
non-negative (cross-checked against a brute-force eigenvalue scan in the
test suite).

For a machine with that Gram matrix (gram_matrix(p, q), any q) and the input
cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, each clone's reduced state and
fidelity have closed forms:

    <0|rho|0> = cos^2(theta/2) - zeta cos(theta)
    <1|rho|1> = sin^2(theta/2) + zeta cos(theta)
    <0|rho|1> = kappa / 2 + (eta / 2) sin(theta) e^{-i phi}

    F(theta, phi) = 1 - zeta - (1 - 2 zeta - eta) sin^2(theta) / 2
                    + (kappa / 2) sin(theta) cos(phi)

The Eastern meridian is phi = 0 and the Western phi = pi; kappa > 0 favours
the Eastern side, where cos(phi) = 1.

For any input alpha|0> + beta|1> the reduced state of one clone depends
only on the 4x4 Gram matrix G of (Q0, Q1, Y0, Y1) and on (alpha, beta).
With C = alpha Y0 + beta Y1,

    rho_00 = |alpha|^2 <Q0|Q0> + <C|C>
    rho_11 = |beta|^2 <Q1|Q1> + <C|C>
    rho_01 = <C|alpha Q0> + <beta Q1|C>

each divided by the joint norm^2 = rho_00 + rho_11. marginals() evaluates
these for a whole batch of inputs at once and is the one single-clone
kernel: every fidelity curve and every B92 figure comes from it, and
clone() is its view for one amplitude pair as a DensityMatrix. The machine
is symmetric, so both clones have this same reduced state. The tests check
the kernel against brute-force references in tests/oracles.py.

The meridional machine is the member at (zeta, eta, kappa) =
(1/10, 2/5, 2/5); it copies every Eastern-meridian state with fidelity
between 0.90 and 0.95. Universal and equatorial machines are modeled as
constant-fidelity channels (F = 5/6 and 1/2 + sqrt(1/8)) acting on each
clone marginal independently, which is all the single-clone analysis here
needs; their joint two-clone correlations are out of scope.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, check_bloch_angles, check_qubit_densities
from .qcore import partial_trace  # noqa: F401  (bench/tracer.py wraps machines.partial_trace)
from .qcore import to_density  # noqa: F401  (bench/tracer.py wraps machines.to_density)

UNITARITY_TOL = 1e-10
JOINT_NORM_TOL = 1e-8  # largest |input amplitude norm - 1| marginals accepts
FEASIBILITY_TOL = 1e-12  # boundary read-backs land ~1e-16 outside the region

UNIVERSAL_FIDELITY = 5.0 / 6.0
EQUATORIAL_FIDELITY = 0.5 + np.sqrt(1.0 / 8.0)


@dataclass(frozen=True)
class BHParams:
    """Apparatus inner products (zeta, eta, kappa) of an explicit machine.

    The valid domain is the realizability region checked by feasible();
    construction itself only requires finite values so that arbitrary
    triples can be queried.
    """

    zeta: float
    eta: float
    kappa: float

    def __post_init__(self):
        vals = (float(self.zeta), float(self.eta), float(self.kappa))
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("machine parameters must be finite")
        object.__setattr__(self, "zeta", vals[0])
        object.__setattr__(self, "eta", vals[1])
        object.__setattr__(self, "kappa", vals[2])


def gram_margin(zeta, eta, kappa):
    """Realizability margin 4 zeta (1 - 2 zeta) - (kappa^2 + eta^2), for
    scalars or arrays. A triple in the box is realizable when the margin is
    at least -FEASIBILITY_TOL, boundary points included."""
    return 4.0 * zeta * (1.0 - 2.0 * zeta) - (kappa * kappa + eta * eta)


def feasible(p: BHParams) -> bool:
    """Whether (zeta, eta, kappa) describes a realizable machine.

    True iff 0 <= zeta <= 1/2, eta >= 0, kappa >= 0 and the Gram matrix of
    the four apparatus vectors is positive semidefinite for some overlap
    q = <Q0|Q1>, equivalently gram_margin(zeta, eta, kappa) >= 0; every
    bound is relaxed by FEASIBILITY_TOL.
    """
    z, e, k = p.zeta, p.eta, p.kappa
    tol = FEASIBILITY_TOL
    return (-tol <= z <= 0.5 + tol and e >= -tol and k >= -tol
            and gram_margin(z, e, k) >= -tol)


def _require_feasible(p: BHParams) -> None:
    if not feasible(p):
        raise ValueError(
            f"parameters (zeta={p.zeta}, eta={p.eta}, kappa={p.kappa}) are not "
            "realizable: kappa^2 + eta^2 must not exceed 4*zeta*(1 - 2*zeta)")


def gram_matrix(p: BHParams, q_overlap: float) -> np.ndarray:
    """4x4 Gram matrix of (Q0, Q1, Y0, Y1) at a given overlap q = <Q0|Q1>."""
    z, e, k = p.zeta, p.eta, p.kappa
    q = float(q_overlap)
    return np.array([
        [1 - 2 * z, q, k / 2, e / 2],
        [q, 1 - 2 * z, e / 2, k / 2],
        [k / 2, e / 2, z, 0.0],
        [e / 2, k / 2, 0.0, z],
    ])


def _real(value, what: str) -> float:
    """A real number as a float; bools, strings, complex numbers and ints too
    large for a float are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None


def _has_control(text: str) -> bool:
    """Whether text holds a control character (Unicode category Cc), which
    would break a report line."""
    return any(ch < " " or "\x7f" <= ch <= "\x9f" for ch in text)


@dataclass(frozen=True, eq=False)
class CloningSpec:
    """A cloning machine: explicit apparatus vectors or a fidelity channel.

    variant 'explicit' carries the four d-vectors (d in {2, 3, 4}); variant
    'channel' carries a single clone fidelity in [1/2, 1] and maps each
    clone marginal to F |s><s| + (1-F) |s_perp><s_perp|. Construction
    validates types, shapes and ranges (name a string without control
    characters, which would break a report line, apparatus_dim an
    integer, not a bool, fidelity a real number, not a bool) and raises
    ValueError for anything else; the unitarity equalities are checked by
    validate_unitarity so that near-miss specs can be diagnosed.
    """

    variant: str
    name: str = ""
    apparatus_dim: int | None = None
    q0: np.ndarray | None = None
    q1: np.ndarray | None = None
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    clone_fidelity: float | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {type(self.name).__name__}")
        if _has_control(self.name):
            raise ValueError(f"name must not contain control characters, got {self.name!r}")
        if self.variant == "explicit":
            d = self.apparatus_dim
            if (isinstance(d, bool) or not isinstance(d, numbers.Integral)
                    or d not in (2, 3, 4)):
                raise ValueError(f"apparatus_dim must be the integer 2, 3 or 4, got {d!r}")
            d = int(d)
            object.__setattr__(self, "apparatus_dim", d)
            for attr in ("q0", "q1", "y0", "y1"):
                vec = getattr(self, attr)
                if vec is None:
                    raise ValueError(f"explicit spec is missing vector {attr}")
                try:
                    arr = np.array(vec, dtype=np.complex128, copy=True)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"{attr} must be a vector of numbers") from None
                if arr.shape != (d,):
                    raise ValueError(f"{attr} must have length {d}, got {arr.shape}")
                if not np.all(np.isfinite(arr.view(np.float64))):
                    raise ValueError(f"{attr} has non-finite entries")
                arr.setflags(write=False)
                object.__setattr__(self, attr, arr)
            if self.clone_fidelity is not None:
                raise ValueError("explicit spec does not take clone_fidelity")
        elif self.variant == "channel":
            f = _real(self.clone_fidelity, "channel fidelity")
            if not 0.5 <= f <= 1.0:
                raise ValueError(f"channel fidelity must lie in [1/2, 1], got {f}")
            object.__setattr__(self, "clone_fidelity", f)
            if any(getattr(self, a) is not None for a in ("q0", "q1", "y0", "y1")):
                raise ValueError("channel spec does not take apparatus vectors")
            if self.apparatus_dim is not None:
                raise ValueError("channel spec does not take apparatus_dim")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    def bh_params(self) -> BHParams:
        """Extract (zeta, eta, kappa) from the apparatus vectors."""
        self._require_explicit("bh_params")
        zeta = float(np.vdot(self.y0, self.y0).real)
        eta = 2.0 * float(np.vdot(self.y0, self.q1).real)
        kappa = 2.0 * float(np.vdot(self.q0, self.y0).real)
        return BHParams(zeta, eta, kappa)

    def _require_explicit(self, what: str):
        if self.variant != "explicit":
            raise ValueError(f"{what} is only defined for explicit specs")


@dataclass(frozen=True)
class ValidationReport:
    """Named unitarity residuals of an explicit spec."""

    residuals: dict

    @property
    def passed(self) -> bool:
        """Whether every residual magnitude is within UNITARITY_TOL."""
        return all(abs(r) <= UNITARITY_TOL for r in self.residuals.values())


def validate_unitarity(spec: CloningSpec) -> ValidationReport:
    """Residuals of the unitarity conditions on an explicit spec.

    Reports the two row-norm sums <Qi|Qi> + 2 <Yi|Yi> - 1, the
    Y-orthogonality |<Y0|Y1>| that the cross terms between the two basis
    rules require to vanish, and the equal-Y-norm invariant. Passes iff all
    magnitudes are <= UNITARITY_TOL.
    """
    if spec.variant != "explicit":
        raise ValueError("validate_unitarity applies to explicit specs only")
    qq0 = np.vdot(spec.q0, spec.q0).real
    qq1 = np.vdot(spec.q1, spec.q1).real
    yy0 = np.vdot(spec.y0, spec.y0).real
    yy1 = np.vdot(spec.y1, spec.y1).real
    y0y1 = np.vdot(spec.y0, spec.y1)
    residuals = {
        "row0_norm": qq0 + 2 * yy0 - 1.0,
        "row1_norm": qq1 + 2 * yy1 - 1.0,
        "y_orthogonality": abs(y0y1),
        "y_norm_balance": yy0 - yy1,
    }
    return ValidationReport(residuals)


def synthesize(p: BHParams) -> CloningSpec:
    """Build explicit apparatus vectors realizing the given (zeta, eta, kappa).

    The free overlap q = <Q0|Q1> is unconstrained by any single-clone
    observable; it is fixed at the midpoint of its admissible interval
    [(kappa+eta)^2/(4 zeta) - (1-2 zeta), (1-2 zeta) - (kappa-eta)^2/(4 zeta)]
    (q = 0 when zeta = 0 and the Y vectors vanish), which maximizes the
    positivity margin. Vectors are rows of a spectral square root of the
    Gram matrix; eigenvalues below 1e-12 are clamped to zero, and the
    apparatus dimension is the resulting rank. A triple admitted only by
    FEASIBILITY_TOL that no unitary machine approximates (eta or kappa far
    above 2 sqrt(zeta) as zeta -> 0) raises ValueError.
    """
    _require_feasible(p)
    z, e, k = p.zeta, p.eta, p.kappa
    if z <= 0.0:
        q = 0.0
    else:
        lo = (k + e) ** 2 / (4 * z) - (1 - 2 * z)
        hi = (1 - 2 * z) - (k - e) ** 2 / (4 * z)
        q = (lo + hi) / 2
    gram = gram_matrix(p, q)
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.where(eigvals < 1e-12, 0.0, eigvals)
    cols = np.nonzero(eigvals > 0.0)[0]
    rows = eigvecs[:, cols] * np.sqrt(eigvals[cols])
    spec = CloningSpec(
        variant="explicit",
        name="synthesized",
        apparatus_dim=len(cols),
        q0=rows[0],
        q1=rows[1],
        y0=rows[2],
        y1=rows[3],
    )
    _require_unitary(spec)
    return spec


def meridional_spec() -> CloningSpec:
    """The machine optimal for the Eastern meridian: 0.90 <= F <= 0.95.

    Its apparatus vectors Y0 = (1/sqrt(10), 0), Y1 = (0, 1/sqrt(10)),
    Q0 = Q1 = (sqrt(2/5), sqrt(2/5)) span a two-dimensional space and
    realize (zeta, eta, kappa) = (1/10, 2/5, 2/5).
    """
    r10 = 1.0 / np.sqrt(10.0)
    r25 = np.sqrt(2.0 / 5.0)
    return CloningSpec(
        variant="explicit",
        name="meridional",
        apparatus_dim=2,
        q0=np.array([r25, r25]),
        q1=np.array([r25, r25]),
        y0=np.array([r10, 0.0]),
        y1=np.array([0.0, r10]),
    )


def wootters_zurek_spec() -> CloningSpec:
    """The basis-copying machine: exact on |0> and |1>, F = 1 - sin^2(theta)/2."""
    return CloningSpec(
        variant="explicit",
        name="wootters-zurek",
        apparatus_dim=2,
        q0=np.array([1.0, 0.0]),
        q1=np.array([0.0, 1.0]),
        y0=np.zeros(2),
        y1=np.zeros(2),
    )


def channel_spec(fidelity: float, name: str = "") -> CloningSpec:
    """Constant-fidelity channel model: each clone marginal is
    F |s><s| + (1-F) |s_perp><s_perp| regardless of the input state."""
    return CloningSpec(variant="channel", name=name, clone_fidelity=fidelity)


_BUILTINS = {
    "meridional": meridional_spec,
    "wootters-zurek": wootters_zurek_spec,
    "universal": lambda: channel_spec(UNIVERSAL_FIDELITY, "universal"),
    "equatorial": lambda: channel_spec(EQUATORIAL_FIDELITY, "equatorial"),
    "ideal": lambda: channel_spec(1.0, "ideal"),
}
BUILTIN_MACHINES = tuple(_BUILTINS)


def builtin_spec(name: str) -> CloningSpec:
    """Look up a built-in machine by name."""
    if name not in BUILTIN_MACHINES:
        raise ValueError(f"unknown machine {name!r}; built-ins: {', '.join(BUILTIN_MACHINES)}")
    return _BUILTINS[name]()


def clone(spec: CloningSpec, amps) -> DensityMatrix:
    """One clone's reduced state for one input amplitude pair, such as
    bloch_amplitudes(theta, phi) returns: the marginals() result as a
    DensityMatrix. Both clones share it."""
    return DensityMatrix((2,), marginals(spec, amps))


def _require_unitary(spec: CloningSpec) -> None:
    report = validate_unitarity(spec)
    if not report.passed:
        worst = max(report.residuals, key=lambda k: abs(report.residuals[k]))
        raise ValueError(
            f"spec violates unitarity: residual {worst} = {report.residuals[worst]:.3e}")


def marginals(spec: CloningSpec, amps) -> np.ndarray:
    """One clone's reduced states (..., 2, 2) for inputs alpha|0> + beta|1>
    given as amplitude stacks (..., 2), such as bloch_amplitudes returns.

    Every amplitude pair must have norm 1 within JOINT_NORM_TOL; a pair
    further off 1 than rounding (1e-15) is divided by its norm before either
    variant uses it. Explicit variant: the Gram formulas of the module
    docstring, after one unitarity validation of the spec. Channel variant:
    F |s><s| + (1-F) |s_perp><s_perp|.
    Every result passes the DensityMatrix checks (finite, unit trace,
    eigenvalues in [0, 1]) or a ValueError is raised.
    """
    s = np.asarray(amps, dtype=np.complex128)
    if s.shape[-1:] != (2,):
        raise ValueError(f"amplitudes must have a last axis of length 2, got shape {s.shape}")
    norm = np.sqrt(np.sum(s.real ** 2 + s.imag ** 2, axis=-1))
    far = ~(np.abs(norm - 1.0) <= JOINT_NORM_TOL)  # NaN counts as far
    if np.any(far):
        raise ValueError(f"input amplitudes {s[far][0]} have norm {norm[far][0]}, "
                         f"not 1 within {JOINT_NORM_TOL}")
    # pairs already unit to rounding are used as given: dividing them would
    # only add rounding, enough to move a CLI table in its last printed digit
    s = np.where((np.abs(norm - 1.0) > 1e-15)[..., None], s / norm[..., None], s)
    alpha, beta = s[..., 0], s[..., 1]
    if spec.variant == "channel":
        f = spec.clone_fidelity
        s_perp = np.stack([-beta.conj(), alpha.conj()], axis=-1)
        mats = (f * (s[..., :, None] * s.conj()[..., None, :])
                + (1 - f) * (s_perp[..., :, None] * s_perp.conj()[..., None, :]))
    else:
        _require_unitary(spec)
        vecs = np.stack([spec.q0, spec.q1, spec.y0, spec.y1])
        g = vecs.conj() @ vecs.T  # g[i, j] = <v_i|v_j>, order (Q0, Q1, Y0, Y1)
        a2 = alpha.real ** 2 + alpha.imag ** 2
        b2 = beta.real ** 2 + beta.imag ** 2
        cc = a2 * g[2, 2].real + b2 * g[3, 3].real + 2 * (alpha.conj() * beta * g[2, 3]).real
        r00 = a2 * g[0, 0].real + cc
        r11 = b2 * g[1, 1].real + cc
        r01 = (alpha * (alpha.conj() * g[2, 0] + beta.conj() * g[3, 0])
               + beta.conj() * (alpha * g[1, 2] + beta * g[1, 3]))
        norm2 = r00 + r11
        mats = np.empty(alpha.shape + (2, 2), dtype=np.complex128)
        mats[..., 0, 0] = r00 / norm2
        mats[..., 0, 1] = r01 / norm2
        mats[..., 1, 0] = r01.conj() / norm2
        mats[..., 1, 1] = r11 / norm2
    check_qubit_densities(mats)
    return mats


def reduced_output_closed_form(p: BHParams, theta, phi) -> np.ndarray:
    """One clone's reduced states (..., 2, 2) at Bloch angles (theta, phi), in
    the closed form of the module docstring. theta and phi broadcast against
    each other and are checked like bloch_amplitudes' angles."""
    _require_feasible(p)
    theta, phi = check_bloch_angles(theta, phi)
    shift = p.zeta * np.cos(theta)
    mats = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    mats[..., 0, 0] = np.cos(theta / 2) ** 2 - shift
    mats[..., 1, 1] = np.sin(theta / 2) ** 2 + shift
    mats[..., 0, 1] = p.kappa / 2 + (p.eta / 2) * np.sin(theta) * np.exp(-1j * phi)
    mats[..., 1, 0] = mats[..., 0, 1].conj()
    check_qubit_densities(mats)
    return mats


def fidelity_closed_form(p: BHParams, theta, phi):
    """Input-output fidelities F(theta, phi) of the module docstring, with
    theta and phi broadcast and checked as in reduced_output_closed_form."""
    _require_feasible(p)
    theta, phi = check_bloch_angles(theta, phi)
    z, e, k = p.zeta, p.eta, p.kappa
    st = np.sin(theta)
    return (1 - z) - 0.5 * (1 - e - 2 * z) * st * st + (k / 2) * st * np.cos(phi)


# ---------------------------------------------------------------------------
# machine-spec files: a small JSON document with fields `name`, `variant`,
# and either the four vectors as [re, im] pair lists (explicit) or a
# `fidelity` value (channel). Written deterministically so save -> load ->
# save is byte-stable.

def spec_to_dict(spec: CloningSpec) -> dict:
    doc = {"name": spec.name, "variant": spec.variant}
    if spec.variant == "explicit":
        doc["apparatus_dim"] = spec.apparatus_dim
        for key, vec in (("Q0", spec.q0), ("Q1", spec.q1),
                         ("Y0", spec.y0), ("Y1", spec.y1)):
            doc[key] = [[float(c.real), float(c.imag)] for c in vec]
    else:
        doc["fidelity"] = spec.clone_fidelity
    return doc


def spec_from_dict(doc: dict) -> CloningSpec:
    """Build a spec from a parsed machine file, rejecting every malformed field
    with a ValueError. The vector entries are checked here, as [re, im]
    pairs of real numbers; the other field types are CloningSpec's checks."""
    if not isinstance(doc, dict) or "variant" not in doc:
        raise ValueError("machine file must be a mapping with a 'variant' field")
    variant = doc["variant"]
    name = doc.get("name", "")
    if variant == "explicit":
        missing = [k for k in ("apparatus_dim", "Q0", "Q1", "Y0", "Y1") if k not in doc]
        if missing:
            raise ValueError(f"explicit machine file is missing fields: {missing}")
        vecs = {}
        for key in ("Q0", "Q1", "Y0", "Y1"):
            pairs = doc[key]
            if not isinstance(pairs, list) or not all(
                    isinstance(pair, list) and len(pair) == 2 for pair in pairs):
                raise ValueError(f"field {key} must be a list of [re, im] pairs")
            what = f"field {key}"
            vecs[key] = np.array([complex(_real(re, what), _real(im, what))
                                  for re, im in pairs], dtype=np.complex128)
        return CloningSpec(
            variant="explicit",
            name=name,
            apparatus_dim=doc["apparatus_dim"],
            q0=vecs["Q0"],
            q1=vecs["Q1"],
            y0=vecs["Y0"],
            y1=vecs["Y1"],
        )
    if variant == "channel":
        if "fidelity" not in doc:
            raise ValueError("channel machine file is missing the 'fidelity' field")
        return CloningSpec(variant="channel", name=name, clone_fidelity=doc["fidelity"])
    raise ValueError(f"unknown variant {variant!r} in machine file")


def save_spec(spec: CloningSpec, path) -> None:
    """Write a machine-spec file (JSON, LF line endings)."""
    text = json.dumps(spec_to_dict(spec), indent=2) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def load_spec(path) -> CloningSpec:
    """Read a machine-spec file written by save_spec."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"machine file {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(f"machine file {path} is nested too deeply") from None
    return spec_from_dict(doc)
