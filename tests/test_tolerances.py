"""Every tolerance in src/qclone is named once, in qcore's tolerance block,
and each one is needed and tight.

Need: over real inputs (the five built-in machines, machines synthesized on
the realizability boundary and the inputs behind the goldens) the worst
value that a tolerance bounds is at most the worst value its comment
states, and that lies strictly inside the bound. Tightness: an input just
past the bound is treated as past it (refused with the documented message,
or, for the cut and the boundary flag, decided the other way)
and one just inside it is accepted.
"""

import ast
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qclone import b92, machines, optimizer, qcore
from qclone.machines import (
    BUILTIN_MACHINES,
    BHParams,
    CloningSpec,
    builtin_spec,
    channel_spec,
    feasible,
    fidelity_closed_form,
    gram_margin,
    marginals,
    meridional_spec,
    synthesize,
    validate_unitarity,
)
from qclone.qcore import (
    DensityMatrix,
    bloch_amplitudes,
    check_qubit_densities,
    fidelities,
    fidelity,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qclone"
TOLERANCES = ("HERM_TOL", "TRACE_TOL", "PSD_TOL", "UNITARITY_TOL", "JOINT_NORM_TOL",
              "UNIT_CUT", "FEASIBILITY_TOL", "BOUNDARY_TOL")


# --- real inputs -------------------------------------------------------------

def _boundary_triples():
    """Triples with kappa^2 + eta^2 = 4 zeta (1 - 2 zeta), and the two optima."""
    triples = [optimizer.optimize_equal_fidelity().params, optimizer.optimize_average().params]
    for zeta in np.linspace(0.0, 0.5, 21):
        r = 2 * np.sqrt(zeta * (1 - 2 * zeta))
        triples += [BHParams(zeta, r * np.cos(a), r * np.sin(a))
                    for a in np.linspace(0.0, np.pi / 2, 9)]
    return triples


@pytest.fixture(scope="module")
def real():
    boundary = [(p, synthesize(p)) for p in _boundary_triples()]
    specs = [builtin_spec(name) for name in BUILTIN_MACHINES] + [s for _, s in boundary]
    # the fidelity goldens' meridians (Eastern, Western, phi = 1.3) and a sphere grid
    meridians = [bloch_amplitudes(np.linspace(0.0, np.pi, points), phi)
                 for points in (181, 1001) for phi in (0.0, np.pi, 1.3)]
    sphere = bloch_amplitudes(np.linspace(0.0, np.pi, 41)[:, None],
                              np.linspace(0.0, 2 * np.pi, 40, endpoint=False))
    amps = np.concatenate(meridians + [sphere.reshape(-1, 2)])
    # the b92 goldens' overlaps, the analyze and simulate goldens' varthetas and pi/2
    overlaps = np.concatenate([np.linspace(0.05, 0.95, 19), np.linspace(0.01, 0.99, 101),
                               np.linspace(0.001, 0.999, 101)])
    varthetas = np.concatenate([np.arcsin(np.sqrt(overlaps)), [0.35, 0.7, 0.9, 1.1, np.pi / 2]])
    signals = b92._signals(varthetas)  # (n, u|v, 2)
    s_perp = np.stack([-signals[..., 1].conj(), signals[..., 0].conj()], axis=-1)
    povm = b92._povm_arrays(signals)[:, None]  # (n, 1, outcome, 2, 2)
    states, overlap_ims, probs = [], [], []
    for spec in specs:
        mats, sig_mats = marginals(spec, amps), marginals(spec, signals)
        states += [mats.reshape(-1, 2, 2), sig_mats.reshape(-1, 2, 2)]
        overlap_ims += [np.einsum("...i,...ij,...j->...", s.conj(), m, s).imag
                        for s, m in ((amps, mats), (s_perp, sig_mats))]
        probs.append(np.einsum("...mij,...ji->...m", povm, sig_mats))
    return SimpleNamespace(
        boundary=boundary, specs=specs,
        pairs=np.concatenate([amps, signals.reshape(-1, 2), s_perp.reshape(-1, 2)]),
        states=np.concatenate(states), overlap_ims=np.concatenate(overlap_ims, axis=None),
        probs=np.concatenate(probs, axis=None).reshape(-1, 3))


# --- need: the worst value each tolerance bounds, over the real inputs --------

def _herm(real):
    herm = np.abs(real.states - real.states.conj().swapaxes(-1, -2)).max()
    return max(herm, np.abs(real.overlap_ims).max(), np.abs(real.probs.imag).max())


def _trace(real):
    return max(np.abs(np.trace(real.states, axis1=-2, axis2=-1) - 1).max(),
               np.abs(real.probs.real.sum(axis=-1) - 1).max())


def _psd(real):
    eigs = np.linalg.eigvalsh(real.states)
    return max(-eigs.min(), eigs.max() - 1)


def _unitarity(real):
    return max(abs(r) for spec in real.specs if spec.variant == "explicit"
               for r in validate_unitarity(spec).values())


def _norm(real):
    return np.abs(np.linalg.norm(real.pairs, axis=-1) - 1).max()


def _feasibility(real):
    # how far each synthesized machine, read back, lies outside the region
    outside = [-min(q.zeta, 0.5 - q.zeta, q.eta, q.kappa, gram_margin(q.zeta, q.eta, q.kappa))
               for q in (spec.bh_params() for _, spec in real.boundary)]
    return max(0.0, *outside)


def _boundary(real):
    # distances of the two optima from each bound; the active ones sit on it
    # and the others are far
    active, inactive = [0.0], []
    for result in (optimizer.optimize_equal_fidelity(), optimizer.optimize_average()):
        p = result.params
        dist = {"gram": abs(gram_margin(p.zeta, p.eta, p.kappa)), "zeta_lower": p.zeta,
                "zeta_upper": abs(p.zeta - 0.5), "eta_lower": p.eta, "kappa_lower": p.kappa}
        for bound, on in result.boundary_active.items():
            (active if on else inactive).append(dist[bound])
    assert min(inactive) >= 0.1
    return max(active)


NEED = {"HERM_TOL": _herm, "TRACE_TOL": _trace, "PSD_TOL": _psd,
        "UNITARITY_TOL": _unitarity, "JOINT_NORM_TOL": _norm, "UNIT_CUT": _norm,
        "FEASIBILITY_TOL": _feasibility, "BOUNDARY_TOL": _boundary}


# --- tightness: probes that take the bounded value d ---------------------------
#
# Each probe returns whether the package treats d as past the bound.

def _refused(message, call, *args):
    """Whether call(*args) raises a ValueError; its text must match message."""
    try:
        call(*args)
    except ValueError as exc:
        assert re.search(message, str(exc)), exc
        return True
    return False


_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_POVM = b92._povm_arrays(b92._signals(0.7))
_TRIVIAL_POVM = np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])


def _diag(a, b):
    return np.diag([a, b]).astype(complex)


RESIDUALS = ("row0_norm", "row1_norm", "y_orthogonality", "y_norm_balance")


def _unitarity_residual(name, d):
    """Constructs the meridional machine (<Qi|Qi> = 0.8, <Yi|Yi> = 0.1) with
    the residual `name` moved to d and the other three left at rounding."""
    base = meridional_spec()
    q0, q1, y0, y1 = base.q0, base.q1, base.y0, base.y1
    if name == "row0_norm":
        q0 = np.sqrt((0.8 + d) / 0.8) * q0
    elif name == "row1_norm":
        q1 = np.sqrt((0.8 + d) / 0.8) * q1
    elif name == "y_orthogonality":
        y1 = y1 + [d * np.sqrt(10.0), 0.0]  # <Y0|Y1> = d
    else:  # |Y1|^2 down by d, <Q1|Q1> up by 2d: row 1 still sums to 1
        q1, y1 = np.sqrt((0.8 + 2 * d) / 0.8) * q1, np.sqrt((0.1 - d) / 0.1) * y1
    return CloningSpec(variant="explicit", apparatus_dim=2, q0=q0, q1=q1, y0=y0, y1=y1)


def _unit_fidelity(pair):
    """Whether a pair is divided by its norm: it then scores as exactly [1, 0]."""
    rho = _diag(0.9, 0.1)
    return fidelities(pair, rho) == fidelities(np.array([1.0, 0.0]), rho)


def _unit_marginal(pair):
    spec = channel_spec(0.9)
    return np.array_equal(marginals(spec, pair), marginals(spec, np.array([1.0, 0.0])))


_flags = optimizer._boundary_flags


TIGHT = {
    "HERM_TOL": [
        lambda d: _refused("not Hermitian", DensityMatrix, (2,), [[0.5, d], [0.0, 0.5]]),
        lambda d: _refused("imaginary part", fidelities, _PLUS,
                           np.array([[0.5, 2j * d], [0.0, 0.5]])),
        lambda d: _refused("imaginary part", b92._probabilities, _TRIVIAL_POVM,
                           _diag(0.5, 0.5 + 1j * d)),
    ],
    "TRACE_TOL": [
        lambda d: _refused("trace", DensityMatrix, (2,), _diag(0.5 + d, 0.5)),
        lambda d: _refused("trace", check_qubit_densities, _diag(0.5 + d, 0.5)),
        lambda d: _refused("sum to", b92._probabilities, _POVM, _diag(0.5 + d, 0.5)),
    ],
    "PSD_TOL": [
        lambda d: _refused("eigenvalues", DensityMatrix, (2,), _diag(1 + d, -d)),
        lambda d: _refused("eigenvalues", check_qubit_densities, _diag(1 + d, -d)),
    ],
    "UNITARITY_TOL": [  # no spec with any residual past the bound can be constructed
        lambda d, name=name: _refused(f"violates unitarity: residual {name} = ",
                                      _unitarity_residual, name, d)
        for name in RESIDUALS
    ],
    "JOINT_NORM_TOL": [
        lambda d: _refused("input amplitudes", marginals, meridional_spec(), [1 + d, 0.0]),
        lambda d: _refused("input amplitudes", fidelities, [1 + d, 0.0], _diag(0.5, 0.5)),
        lambda d: _refused("input amplitudes", fidelity, [1 + d, 0.0],
                           DensityMatrix((2,), _diag(0.5, 0.5))),
    ],
    "UNIT_CUT": [
        lambda d: _unit_fidelity(np.array([1 + d, 0.0])),
        lambda d: _unit_marginal(np.array([1 + d, 0.0])),
    ],
    "FEASIBILITY_TOL": [
        lambda d: _refused("not realizable", fidelity_closed_form,
                           BHParams(0.0, 0.0, np.sqrt(d)), 1, 0),  # Gram margin -d
        lambda d: not feasible(BHParams(0.1, -d, 0.0)),
        lambda d: not feasible(BHParams(0.1, 0.0, -d)),
    ],
    "BOUNDARY_TOL": [
        lambda d: not _flags(BHParams(d, 0.0, 0.0))["zeta_lower"],
        lambda d: not _flags(BHParams(0.5 - d, 0.0, 0.0))["zeta_upper"],
        lambda d: not _flags(BHParams(0.1, d, 0.0))["eta_lower"],
        lambda d: not _flags(BHParams(0.1, 0.0, d))["kappa_lower"],
        lambda d: not _flags(BHParams(0.1, 0.4, np.sqrt(0.16 - d)))["gram"],
    ],
}


def _stated_worst(name):
    """The worst real value that the comment on name's assignment states."""
    source = (PACKAGE / "qcore.py").read_text()
    line = re.search(rf"^{name} = .*$", source, re.MULTILINE).group()
    return float(re.search(r"# .*\bworst ([0-9.e+-]+)", line).group(1))


@pytest.mark.parametrize("name", TOLERANCES)
def test_tolerance_is_needed_and_tight(name, real):
    bound = abs(getattr(qcore, name))
    worst = NEED[name](real)
    assert worst <= _stated_worst(name) < bound, (name, worst)
    for probe in TIGHT[name]:
        assert probe(1.01 * bound), f"{name}: a value just past the bound is accepted"
        assert not probe(0.99 * bound), f"{name}: a value just inside the bound is refused"


# --- one list ----------------------------------------------------------------

def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _block(tree):
    """The module-level assignments of tree that bind one of TOLERANCES."""
    return [node for node in tree.body if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) in TOLERANCES]


def test_tolerances_are_one_block_in_qcore():
    trees = _modules()
    block = _block(trees["qcore"])
    assert [node.targets[0].id for node in block] == list(TOLERANCES)
    lines = [node.lineno for node in block]
    assert lines == list(range(lines[0], lines[0] + len(TOLERANCES))), "the block is split"
    for module, tree in trees.items():
        stored = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        tolerances = {name for name in stored if name in TOLERANCES or name.endswith("_TOL")}
        assert module == "qcore" or not tolerances, f"{module} assigns {tolerances}"
    assert machines.UNITARITY_TOL == qcore.UNITARITY_TOL
    assert machines.FEASIBILITY_TOL == qcore.FEASIBILITY_TOL


def test_every_small_float_literal_is_a_named_tolerance():
    """A float literal with 0 < |x| < 1e-5 in src/qclone is a tolerance, so
    it must be the whole value of one of the block's assignments."""
    trees = _modules()
    named = {id(node.value.operand if isinstance(node.value, ast.UnaryOp) else node.value)
             for node in _block(trees["qcore"])}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0 < abs(node.value) < 1e-5):
                assert id(node) in named, (
                    f"{module}.py:{node.lineno}: bare tolerance {node.value!r}; "
                    "name it in qcore's tolerance block")
