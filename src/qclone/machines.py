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
to exist; realizability is the positive semidefiniteness of their Gram
matrix (<Qi|Qi> = 1 - 2 zeta, <Qi|Yi> = kappa / 2, <Qi|Yj> = eta / 2 for
i != j, the Y entries above) for some free overlap q = <Q0|Q1>, which
reduces to the closed condition that the Gram margin 4 zeta (1 - 2 zeta) -
(kappa^2 + eta^2) is non-negative (cross-checked against a brute-force
eigenvalue scan in the test suite). synthesize builds such vectors in
closed form.

For a machine with that Gram matrix (any q) and the input
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
only on (alpha, beta) and the Gram matrix G = spec.gram of (Q0, Q1, Y0, Y1),
which CloningSpec takes once, at construction. With C = alpha Y0 + beta Y1,

    rho_00 = |alpha|^2 <Q0|Q0> + <C|C>
    rho_11 = |beta|^2 <Q1|Q1> + <C|C>
    rho_01 = <C|alpha Q0> + <beta Q1|C>

each divided by the joint norm^2 = rho_00 + rho_11. marginals() evaluates
these for a whole batch of inputs at once and is the one single-clone
kernel: every fidelity curve and every B92 figure comes from it. The
machine is symmetric, so both clones have this same reduced state. The
tests check the kernel against brute-force references in tests/oracles.py.

The meridional machine is the one synthesize builds at (zeta, eta, kappa) =
(1/10, 2/5, 2/5); it copies every Eastern-meridian state with fidelity
between 0.90 and 0.95. Universal and equatorial machines are modeled as
constant-fidelity channels (F = 5/6 and 1/2 + sqrt(1/8)) acting on each
clone marginal independently, which is all the single-clone analysis here
needs; their joint two-clone correlations are out of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import FEASIBILITY_TOL, UNITARITY_TOL, DensityMatrix, _integer, _numbers, _perp
from .qcore import _projectors, _real, _unit_pairs, check_bloch_angles, check_qubit_densities
from .qcore import partial_trace  # noqa: F401  (bench/tracer.py wraps machines.partial_trace)
from .qcore import to_density  # noqa: F401  (bench/tracer.py wraps machines.to_density)

UNIVERSAL_FIDELITY = 5.0 / 6.0
EQUATORIAL_FIDELITY = 0.5 + np.sqrt(1.0 / 8.0)


@dataclass(frozen=True)
class BHParams:
    """Apparatus inner products (zeta, eta, kappa) of an explicit machine.

    The valid domain is the realizability region checked by feasible();
    construction itself only requires finite real numbers (qcore._real, so
    not bools) so that arbitrary triples can be queried.
    """

    zeta: float
    eta: float
    kappa: float

    def __post_init__(self):
        for name in ("zeta", "eta", "kappa"):
            object.__setattr__(self, name, _real(getattr(self, name), name))


def gram_margin(zeta, eta, kappa):
    """Realizability margin 4 zeta (1 - 2 zeta) - (kappa^2 + eta^2), for
    scalars or arrays. A triple in the box is realizable when the margin is
    at least -FEASIBILITY_TOL, boundary points included."""
    return 4.0 * zeta * (1.0 - 2.0 * zeta) - (kappa * kappa + eta * eta)


def feasible(p: BHParams) -> bool:
    """Whether (zeta, eta, kappa) describes a realizable machine.

    True iff eta >= 0, kappa >= 0 and the Gram matrix of the four apparatus
    vectors is positive semidefinite for some overlap q = <Q0|Q1>,
    equivalently gram_margin(zeta, eta, kappa) >= 0, which also keeps zeta
    in [0, 1/2]; every bound is relaxed by FEASIBILITY_TOL.
    """
    return min(p.eta, p.kappa, gram_margin(p.zeta, p.eta, p.kappa)) >= -FEASIBILITY_TOL


def _require_feasible(p: BHParams) -> None:
    if not feasible(p):
        raise ValueError(
            f"parameters (zeta={p.zeta}, eta={p.eta}, kappa={p.kappa}) are not "
            "realizable: kappa^2 + eta^2 must not exceed 4*zeta*(1 - 2*zeta)")


def _has_control(text: str) -> bool:
    """Whether text holds a character that would break a report line: a
    control character (Unicode category Cc), or U+2028 LINE SEPARATOR or
    U+2029 PARAGRAPH SEPARATOR, where str.splitlines() also breaks."""
    return any(ch < " " or "\x7f" <= ch <= "\x9f" or ch in "\u2028\u2029" for ch in text)


@dataclass(frozen=True, eq=False)
class CloningSpec:
    """A cloning machine: explicit apparatus vectors or a fidelity channel.

    variant 'explicit' carries the four d-vectors (d in {2, 3, 4}); variant
    'channel' carries a single clone fidelity in [1/2, 1] and maps each
    clone marginal to F |s><s| + (1-F) |s_perp><s_perp|. Construction
    is the one check of every field's type, shape and range (name a string
    without a character that would break a report line, see _has_control,
    apparatus_dim an integer, fidelity a real number and vector entries
    numbers, by qcore's _integer, _real and _numbers) and raises ValueError
    for anything else. The vectors are stored as write-locked copies, as is
    gram, their Gram matrix <v_i|v_j> (None for a channel; not an argument).
    An explicit spec must then be a unitary machine: a residual of
    validate_unitarity (read from gram) beyond UNITARITY_TOL raises NotUnitary.
    """

    variant: str
    name: str = ""
    apparatus_dim: int | None = None
    q0: np.ndarray | None = None
    q1: np.ndarray | None = None
    y0: np.ndarray | None = None
    y1: np.ndarray | None = None
    clone_fidelity: float | None = None
    gram: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {type(self.name).__name__}")
        if _has_control(self.name):
            raise ValueError(f"name must not contain a line-breaking character, got {self.name!r}")
        if self.variant == "explicit":
            d = self.apparatus_dim
            d = _integer(d, f"apparatus_dim must be the integer 2, 3 or 4, got {d!r}", 2, 4)
            object.__setattr__(self, "apparatus_dim", d)
            for attr in ("q0", "q1", "y0", "y1"):
                vec = getattr(self, attr)
                if vec is None:
                    raise ValueError(f"explicit spec is missing vector {attr}")
                arr = _numbers(vec, np.complex128, attr).copy()
                if arr.shape != (d,):
                    raise ValueError(f"{attr} must have length {d}, got {arr.shape}")
                arr.setflags(write=False)
                object.__setattr__(self, attr, arr)
            if self.clone_fidelity is not None:
                raise ValueError("explicit spec does not take clone_fidelity")
            vecs = np.stack([self.q0, self.q1, self.y0, self.y1])
            gram = vecs.conj() @ vecs.T
            gram.setflags(write=False)
            object.__setattr__(self, "gram", gram)
            residuals = validate_unitarity(self)
            if not all(abs(r) <= UNITARITY_TOL for r in residuals.values()):
                raise NotUnitary(self.name, d, residuals)
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
            raise ValueError(f"variant must be 'explicit' or 'channel', got {self.variant!r}")

    def bh_params(self) -> BHParams:
        """(zeta, eta, kappa) = (<Y0|Y0>, 2 <Y0|Q1>, 2 <Q0|Y0>), read from gram."""
        if self.variant != "explicit":
            raise ValueError("bh_params is only defined for explicit specs")
        g = self.gram
        return BHParams(g[2, 2].real, 2.0 * g[2, 1].real, 2.0 * g[0, 2].real)


class NotUnitary(ValueError):
    """An explicit spec with a unitarity residual beyond UNITARITY_TOL; keeps
    the refused spec's name, apparatus_dim and residuals for a report."""

    def __init__(self, name: str, apparatus_dim: int, residuals: dict):
        worst = max(residuals, key=lambda k: abs(residuals[k]))
        super().__init__(f"spec violates unitarity: residual {worst} = {residuals[worst]:.3e}")
        self.name, self.apparatus_dim, self.residuals = name, apparatus_dim, residuals


def validate_unitarity(spec: CloningSpec) -> dict:
    """Named residuals of the unitarity conditions on an explicit spec's gram.

    The two row-norm sums <Qi|Qi> + 2 <Yi|Yi> - 1, the Y-orthogonality
    |<Y0|Y1>| that the cross terms between the two basis rules require to
    vanish, and the equal-Y-norm invariant. CloningSpec refuses a spec with
    any magnitude above UNITARITY_TOL, so for a spec that exists each is
    within it.
    """
    if spec.variant != "explicit":
        raise ValueError("validate_unitarity applies to explicit specs only")
    g = spec.gram
    return {
        "row0_norm": g[0, 0].real + 2 * g[2, 2].real - 1.0,
        "row1_norm": g[1, 1].real + 2 * g[3, 3].real - 1.0,
        "y_orthogonality": abs(g[2, 3]),
        "y_norm_balance": g[2, 2].real - g[3, 3].real,
    }


def synthesize(p: BHParams, name: str = "synthesized") -> CloningSpec:
    """A spec called name whose explicit vectors realize (zeta, eta, kappa), in closed form.

    With s = sqrt(zeta), a = kappa / (2 s), b = eta / (2 s) and
    r = sqrt(max(1 - 2 zeta - a^2 - b^2, 0)): Y0 = s e1, Y1 = s e2,
    Q0 = r e0 + a e1 + b e2 and Q1 = b e1 + a e2 + r e3, which puts the free
    overlap <Q0|Q1> = eta kappa / (2 zeta) at the midpoint of its admissible
    interval. The dimension is 2 (e1, e2) when r = 0 and 4 otherwise. zeta <= 0
    gives the Wootters-Zurek vectors if eta = kappa = 0; otherwise, and for a
    triple admitted only by FEASIBILITY_TOL that no unitary machine
    approximates (kappa far above 2 sqrt(zeta)), ValueError is raised.
    """
    _require_feasible(p)
    z = max(p.zeta, 0.0)
    if z > 0.0:
        s = math.sqrt(z)
        a, b = p.kappa / (2 * s), p.eta / (2 * s)
    elif p.eta == p.kappa == 0.0:
        s, a, b = 0.0, 1.0, 0.0  # no Y vectors, Q0 = e1 and Q1 = e2: Wootters-Zurek
    else:
        raise ValueError(f"zeta <= 0 leaves no Y vectors for eta = {p.eta}, kappa = {p.kappa}")
    r = math.sqrt(max(1.0 - 2.0 * z - a * a - b * b, 0.0))
    rows = np.array([[r, a, b, 0.0], [0.0, b, a, r], [0.0, s, 0.0, 0.0], [0.0, 0.0, s, 0.0]])
    if r == 0.0:
        rows = rows[:, 1:3]
    return CloningSpec(variant="explicit", name=name, apparatus_dim=rows.shape[1],
                       q0=rows[0], q1=rows[1], y0=rows[2], y1=rows[3])


def meridional_spec() -> CloningSpec:
    """The machine optimal for the Eastern meridian, 0.90 <= F <= 0.95: synthesize
    at (1/10, 2/5, 2/5), with Y0 = (1/sqrt(10), 0), Y1 = (0, 1/sqrt(10)) and
    Q0 = Q1 = (sqrt(2/5), sqrt(2/5))."""
    return synthesize(BHParams(0.1, 0.4, 0.4), "meridional")


def wootters_zurek_spec() -> CloningSpec:
    """The basis-copying machine, synthesize at (0, 0, 0): exact on |0> and
    |1>, F = 1 - sin^2(theta)/2."""
    return synthesize(BHParams(0.0, 0.0, 0.0), "wootters-zurek")


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
    """marginals() for one input amplitude pair, as a DensityMatrix; not
    exported by the package (use marginals)."""
    return DensityMatrix((2,), marginals(spec, amps))


def marginals(spec: CloningSpec, amps) -> np.ndarray:
    """One clone's reduced states (..., 2, 2) for inputs alpha|0> + beta|1>
    given as amplitude stacks (..., 2), such as bloch_amplitudes returns.

    Every pair must have norm 1 within JOINT_NORM_TOL and is divided by it
    when off by more than UNIT_CUT, before either variant uses it. Explicit
    variant: the Gram formulas of the module docstring on spec.gram (unitary,
    as CloningSpec checked). Channel variant: F |s><s| + (1-F) |s_perp><s_perp|.
    Every result passes check_qubit_densities (finite, unit trace, no
    negative eigenvalue) or a ValueError is raised.
    """
    s = _unit_pairs(amps)
    alpha, beta = s[..., 0], s[..., 1]
    if spec.variant == "channel":
        f = spec.clone_fidelity
        mats = f * _projectors(s) + (1 - f) * _projectors(_perp(s))
    else:
        g = spec.gram
        a2 = alpha.real ** 2 + alpha.imag ** 2
        b2 = beta.real ** 2 + beta.imag ** 2
        cc = a2 * g[2, 2].real + b2 * g[3, 3].real + 2 * (alpha.conj() * beta * g[2, 3]).real
        r00 = a2 * g[0, 0].real + cc
        r11 = b2 * g[1, 1].real + cc
        r01 = (alpha * (alpha.conj() * g[2, 0] + beta.conj() * g[3, 0])
               + beta.conj() * (alpha * g[1, 2] + beta * g[1, 3]))
        norm2 = r00 + r11
        mats = np.empty(alpha.shape + (2, 2), dtype=np.complex128)
        with np.errstate(invalid="ignore"):  # a NaN is check_qubit_densities' to refuse
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

def spec_from_dict(doc: dict) -> CloningSpec:
    """Build a spec from a parsed machine file. Only the file's own rule is
    checked here, that each vector is a list of [re, im] pairs of real
    numbers (qcore._numbers); the variant's fields go to CloningSpec, which
    raises ValueError for any that is missing or malformed. Fields the
    variant does not take are ignored."""
    if not isinstance(doc, dict):
        raise ValueError("machine file must be a mapping")
    variant = doc.get("variant")
    fields = {"variant": variant, "name": doc.get("name", "")}
    if variant == "explicit":
        fields["apparatus_dim"] = doc.get("apparatus_dim")
        for key in (k for k in ("Q0", "Q1", "Y0", "Y1") if k in doc):
            pairs = _numbers(doc[key], float, f"field {key}")
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(f"field {key} must be a list of [re, im] pairs")
            fields[key.lower()] = [complex(re, im) for re, im in pairs]
    elif variant == "channel":
        fields["clone_fidelity"] = doc.get("fidelity")
    return CloningSpec(**fields)


def save_spec(spec: CloningSpec, path) -> None:
    """Write a machine-spec file (UTF-8 JSON, LF line endings)."""
    doc = {"name": spec.name, "variant": spec.variant}
    if spec.variant == "explicit":
        doc["apparatus_dim"] = spec.apparatus_dim
        for key in ("Q0", "Q1", "Y0", "Y1"):
            doc[key] = [[float(c.real), float(c.imag)] for c in getattr(spec, key.lower())]
    else:
        doc["fidelity"] = spec.clone_fidelity
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def load_spec(path) -> CloningSpec:
    """Read a machine-spec file written by save_spec; JSON is UTF-8 (RFC 8259)."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"machine file {path} is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ValueError(f"machine file {path} is nested too deeply") from None
    return spec_from_dict(doc)
