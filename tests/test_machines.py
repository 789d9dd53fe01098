import ast
import json
from pathlib import Path

import numpy as np
import pytest

from qclone import machines
from qclone.machines import (
    BHParams,
    BUILTIN_MACHINES,
    EQUATORIAL_FIDELITY,
    UNIVERSAL_FIDELITY,
    CloningSpec,
    NotUnitary,
    builtin_spec,
    channel_spec,
    clone,
    feasible,
    fidelity_closed_form,
    load_spec,
    marginals,
    meridional_spec,
    reduced_output_closed_form,
    save_spec,
    spec_from_dict,
    synthesize,
    validate_unitarity,
    wootters_zurek_spec,
)
from qclone.optimizer import optimize_average, optimize_equal_fidelity
from qclone.qcore import bloch_amplitudes, fidelities

import oracles


def _random_feasible(rng, count):
    out = []
    while len(out) < count:
        z = rng.uniform(0.0, 0.5)
        e = rng.uniform(0.0, 1.0)
        k = rng.uniform(0.0, 1.0)
        p = BHParams(z, e, k)
        if feasible(p):
            out.append(p)
    return out


# --- feasibility -----------------------------------------------------------

def test_feasible_boundary_and_outside():
    assert feasible(BHParams(0.1, 0.4, 0.4))        # exactly on the boundary
    assert not feasible(BHParams(0.1, 0.566, 0.566))
    assert feasible(BHParams(0.0, 0.0, 0.0))
    assert not feasible(BHParams(0.0, 0.1, 0.0))
    assert not feasible(BHParams(-0.01, 0.0, 0.0))
    assert not feasible(BHParams(0.51, 0.0, 0.0))
    assert not feasible(BHParams(0.1, -0.1, 0.1))


def test_bhparams_rejects_non_finite():
    with pytest.raises(ValueError):
        BHParams(float("nan"), 0.1, 0.1)
    with pytest.raises(ValueError):
        BHParams(0.1, float("inf"), 0.1)
    # only real numbers: no strings, bools or complex numbers
    for args in (("0.1", 0.4, 0.4), (True, 0, 0), (0.1 + 0j, 0.4, 0.4)):
        with pytest.raises(ValueError, match="must be a real number"):
            BHParams(*args)
    p = BHParams(np.float32(0.5), np.int64(0), 0)
    assert (p.zeta, p.eta, p.kappa) == (0.5, 0.0, 0.0) and type(p.eta) is float


# --- unitarity validation ---------------------------------------------------

def _worst_residual(spec):
    return max(abs(r) for r in validate_unitarity(spec).values())


def test_validation_flags_parallel_y_vectors():
    """Construction refuses Y1 = Y0, and any <Y0|Y1> != 0 by its modulus
    whatever its phase; the refusal keeps what a report of the refused spec
    shows."""
    base, r10 = meridional_spec(), 1 / np.sqrt(10.0)
    for y1, overlap in (([r10, 0.0], 0.1), ([0.5j * r10, np.sqrt(0.75) * r10], 0.05)):
        message = f"residual y_orthogonality = {overlap:.3e}"
        with pytest.raises(NotUnitary, match=message) as refused:
            CloningSpec(variant="explicit", name="broken", apparatus_dim=2,
                        q0=base.q0, q1=base.q1, y0=base.y0, y1=y1)
        assert (refused.value.name, refused.value.apparatus_dim) == ("broken", 2)
        residuals = refused.value.residuals
        assert residuals["y_orthogonality"] == pytest.approx(overlap, abs=1e-15)
        assert max(abs(residuals[k]) for k in ("row0_norm", "row1_norm", "y_norm_balance")) <= 1e-15


def test_validate_unitarity_rejects_channel():
    with pytest.raises(ValueError):
        validate_unitarity(channel_spec(0.9))


def test_each_builtin_is_constructed_once(monkeypatch):
    """An explicit built-in is synthesize under its own name, one
    construction and so one unitarity check."""
    checked = []

    def counting(spec):
        checked.append(spec.name)
        return validate_unitarity(spec)

    monkeypatch.setattr(machines, "validate_unitarity", counting)
    for build, name in ((meridional_spec, "meridional"), (wootters_zurek_spec, "wootters-zurek")):
        checked.clear()
        assert build().name == name
        assert checked == [name]


# --- synthesis --------------------------------------------------------------

def test_synthesize_meridional_params():
    spec = synthesize(BHParams(0.1, 0.4, 0.4))
    assert spec.apparatus_dim == 2
    assert _worst_residual(spec) <= 1e-14
    p = spec.bh_params()
    assert p.zeta == pytest.approx(0.1, abs=1e-12)
    assert p.eta == pytest.approx(0.4, abs=1e-12)
    assert p.kappa == pytest.approx(0.4, abs=1e-12)
    # at these parameters the admissible q interval collapses to a point
    assert np.vdot(spec.q0, spec.q1).real == pytest.approx(0.8, abs=1e-12)


def test_synthesize_random_feasible_roundtrip():
    rng = np.random.default_rng(11)
    for p in _random_feasible(rng, 25):
        spec = synthesize(p)
        assert spec.apparatus_dim in (2, 4)
        assert _worst_residual(spec) <= 1e-14
        q = spec.bh_params()
        assert q.zeta == pytest.approx(p.zeta, abs=1e-10)
        assert q.eta == pytest.approx(p.eta, abs=1e-10)
        assert q.kappa == pytest.approx(p.kappa, abs=1e-10)
        # midpoint rule for the free overlap
        z, e, k = p.zeta, p.eta, p.kappa
        if z > 0:
            assert np.vdot(spec.q0, spec.q1).real == pytest.approx(e * k / (2 * z), abs=1e-10)


def test_boundary_machines_round_trip_realizable():
    """Triples on the Gram boundary (the two optima, seeded draws, and the
    eta = 0 and kappa = 0 axes) synthesize, and their read-backs stay
    realizable and equal to the input. Both optima are two-dimensional."""
    rng = np.random.default_rng(2024)
    zs = rng.uniform(0.0, 0.5, 400)
    radii = 2.0 * np.sqrt(zs * (1.0 - 2.0 * zs))
    angles = rng.uniform(0.0, np.pi / 2, 400)
    optima = [r.params for r in (optimize_equal_fidelity(), optimize_average())]
    assert [synthesize(p).apparatus_dim for p in optima] == [2, 2]
    triples = [(p.zeta, p.eta, p.kappa) for p in optima]
    triples += list(zip(zs, radii * np.cos(angles), radii * np.sin(angles)))
    triples += [(z, 0.0, r) for z, r in zip(zs, radii)]
    triples += [(z, r, 0.0) for z, r in zip(zs, radii)]
    for t in triples:
        back = synthesize(BHParams(*t)).bh_params()
        assert feasible(back), (t, back)
        assert np.allclose((back.zeta, back.eta, back.kappa), t, atol=1e-10)


def test_synthesize_rejects_infeasible():
    with pytest.raises(ValueError):
        synthesize(BHParams(0.1, 0.7, 0.7))


def test_synthesize_degenerate_zeta_zero():
    for spec in (synthesize(BHParams(0.0, 0.0, 0.0)), wootters_zurek_spec()):
        assert _worst_residual(spec) == 0.0
        assert np.allclose(spec.y0, 0.0) and np.allclose(spec.y1, 0.0)


def _vectors(spec):
    return [getattr(spec, attr) for attr in ("q0", "q1", "y0", "y1")]


def test_synthesize_reads_back_a_tiny_zeta():
    p = BHParams(1e-14, 0.0, 1e-7)
    back = synthesize(p).bh_params()
    np.testing.assert_allclose([back.zeta, back.eta, back.kappa], [p.zeta, p.eta, p.kappa],
                               rtol=1e-12, atol=0.0)


def test_synthesize_at_zeta_zero_carries_no_eta_or_kappa():
    """At zeta -> 0 the Y vectors vanish. A triple there that only
    FEASIBILITY_TOL admits, with kappa far above 2 sqrt(zeta), is refused;
    with eta = kappa = 0 it is the Wootters-Zurek machine."""
    for triple in ((0.0, 0.0, 1e-7), (1e-20, 0.0, 1e-7)):
        assert feasible(BHParams(*triple))
        with pytest.raises(ValueError):
            synthesize(BHParams(*triple))
    spec = synthesize(BHParams(-1e-13, 0.0, 0.0))
    assert spec.apparatus_dim == 2
    for got, want in zip(_vectors(spec), _vectors(wootters_zurek_spec())):
        assert got.tobytes() == want.tobytes()


def test_builtins_are_the_paper_vectors_bit_for_bit():
    """The built-ins are synthesize at their triples; their vectors are the
    literals behind every golden, bit for bit."""
    r25, r10 = np.sqrt(2 / 5), 1 / np.sqrt(10.0)
    literals = {
        meridional_spec(): [[r25, r25], [r25, r25], [r10, 0.0], [0.0, r10]],
        wootters_zurek_spec(): [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]],
    }
    for spec, vectors in literals.items():
        assert spec.apparatus_dim == 2
        for got, want in zip(_vectors(spec), vectors):
            assert got.tobytes() == np.array(want, dtype=complex).tobytes(), spec.name
    assert (meridional_spec().name, wootters_zurek_spec().name) == ("meridional",
                                                                    "wootters-zurek")


def test_no_numerical_decomposition_outside_the_per_state_layer():
    """Every explicit machine is built in closed form: src/qclone names no
    numpy.linalg routine outside qcore.DensityMatrix, the per-state layer."""
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "qclone").glob("*.py"))
    assert paths, "no package source found"
    for path in paths:
        tree = ast.parse(path.read_text())
        allowed = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                   and (path.stem, cls.name) == ("qcore", "DensityMatrix")
                   for node in ast.walk(cls)}
        found = [node.lineno for node in ast.walk(tree) if id(node) not in allowed and (
            isinstance(node, ast.Attribute) and node.attr == "linalg"
            or isinstance(node, (ast.Import, ast.ImportFrom)) and "linalg" in ast.unparse(node))]
        assert not found, f"{path.name} uses linalg at lines {found}"


# --- cloning ----------------------------------------------------------------

def test_clone_meridional_pole():
    rho = clone(meridional_spec(), bloch_amplitudes(0.0))
    assert rho.dims == (2,)
    np.testing.assert_allclose(rho.matrix, [[0.9, 0.2], [0.2, 0.1]], atol=1e-12)


def test_clone_symmetry_of_marginals():
    """Both clones of the brute-force joint state have one reduced state, the
    one marginals() returns, so the kernel's single marginal stands for
    either clone."""
    rng = np.random.default_rng(3)
    specs = [meridional_spec(), wootters_zurek_spec()]
    specs += [synthesize(p) for p in _random_feasible(rng, 10)]
    for spec in specs:
        for theta, phi in [(0.3, 0.0), (1.1, 2.2), (2.8, 4.0)]:
            rho_a, rho_b = oracles.clone_pair_bruteforce(
                (spec.q0, spec.q1, spec.y0, spec.y1), *oracles.qubit_amplitudes(theta, phi))
            assert np.max(np.abs(rho_a - rho_b)) <= 1e-12
            got = marginals(spec, bloch_amplitudes(theta, phi))
            assert np.max(np.abs(got - rho_b)) <= 1e-12


def test_clone_rejects_invalid_spec():
    """A machine that is not unitary never reaches the kernel: CloningSpec
    refuses it, so there is no spec to pass."""
    base = meridional_spec()
    with pytest.raises(NotUnitary, match="spec violates unitarity"):
        marginals(CloningSpec(variant="explicit", name="broken", apparatus_dim=2,
                              q0=base.q0, q1=base.q1, y0=base.y0, y1=base.y0),
                  bloch_amplitudes(1.0))


def test_channel_clone_is_constant_fidelity():
    for name, f_expect in [("universal", UNIVERSAL_FIDELITY),
                           ("equatorial", EQUATORIAL_FIDELITY),
                           ("ideal", 1.0)]:
        spec = builtin_spec(name)
        for theta, phi in [(0.0, 0.0), (1.0, 0.5), (np.pi / 2, np.pi), (3.0, 6.0)]:
            s = bloch_amplitudes(theta, phi)
            rho = marginals(spec, s)
            assert fidelities(s, rho) == pytest.approx(f_expect, abs=1e-12)
            # output is the stated two-point mixture
            eigs = np.linalg.eigvalsh(rho)
            np.testing.assert_allclose(sorted(eigs), sorted([1 - f_expect, f_expect]), atol=1e-12)


def test_channel_fidelity_domain():
    with pytest.raises(ValueError):
        channel_spec(0.4)
    with pytest.raises(ValueError):
        channel_spec(1.1)


@pytest.mark.parametrize("fid", ["0.9", True, np.bool_(True), 0.9 + 0j, None,
                                 10 ** 400, float("nan"), [0.9]])
def test_channel_spec_rejects_mistyped_fidelity(fid):
    with pytest.raises(ValueError):
        channel_spec(fid)


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", None, np.float64(3.0)])
def test_explicit_spec_rejects_non_integer_dim(dim):
    base = meridional_spec()
    with pytest.raises(ValueError):
        CloningSpec(variant="explicit", apparatus_dim=dim,
                    q0=base.q0, q1=base.q1, y0=base.y0, y1=base.y1)


@pytest.mark.parametrize("attr", ["q0", "q1", "y0", "y1"])
@pytest.mark.parametrize("entries", [["0.63", "0.63"], [True, False], [np.bool_(True), 0.5],
                                     np.array([True, False]), [None, 0.5], [[0.5], [0.5]],
                                     [[0.5, 0.0], [0.5, 0.0]]],
                         ids=["str", "bool", "np-bool", "bool-array", "none", "nested",
                              "nested-pairs"])
def test_explicit_spec_rejects_non_number_entries(attr, entries):
    base = meridional_spec()
    vectors = {"q0": base.q0, "q1": base.q1, "y0": base.y0, "y1": base.y1, attr: entries}
    with pytest.raises(ValueError):
        CloningSpec(variant="explicit", apparatus_dim=2, **vectors)


def test_explicit_spec_accepts_numeric_vectors():
    base = meridional_spec()
    r10 = 1.0 / np.sqrt(10.0)
    y1 = np.array([0.0, r10], dtype=np.complex128)
    spec = CloningSpec(variant="explicit", apparatus_dim=2, q0=base.q0.real,
                       q1=list(base.q1), y0=[complex(r10), 0j], y1=y1)
    for attr in ("q0", "q1", "y0", "y1"):
        vec = getattr(spec, attr)
        assert vec.dtype == np.complex128 and not vec.flags.writeable
        np.testing.assert_array_equal(vec, getattr(base, attr))
    assert y1.flags.writeable  # the spec locks its own copy, never the caller's array
    assert CloningSpec(variant="explicit", apparatus_dim=2, q0=np.array([1, 0], np.complex64),
                       q1=[0, 1], y0=np.zeros(2, dtype=np.int64), y1=[0.0, 0j]).q1[1] == 1


def test_spec_constructor_accepts_numpy_scalars():
    base = meridional_spec()
    spec = CloningSpec(variant="explicit", apparatus_dim=np.int64(2),
                       q0=base.q0, q1=base.q1, y0=base.y0, y1=base.y1)
    assert spec.apparatus_dim == 2 and type(spec.apparatus_dim) is int
    assert channel_spec(np.float32(0.75)).clone_fidelity == 0.75
    assert channel_spec(1).clone_fidelity == 1.0
    with pytest.raises(ValueError):
        channel_spec(0.9, name=7)


# --- batched single-clone kernel ---------------------------------------------

def test_marginals_broadcast_shapes():
    amps = bloch_amplitudes(np.linspace(0.0, np.pi, 5), np.array([[0.0], [np.pi]]))
    mats = marginals(meridional_spec(), amps)
    assert mats.shape == (2, 5, 2, 2)
    np.testing.assert_allclose(mats[:, 0], [[[0.9, 0.2], [0.2, 0.1]]] * 2, atol=1e-15)


def test_marginals_need_an_amplitude_axis_of_length_2():
    for spec in (meridional_spec(), channel_spec(0.9)):
        for amps in (np.ones((4, 3)), np.array(1.0), np.ones((2, 0))):
            with pytest.raises(ValueError):
                marginals(spec, amps)


def test_marginals_reject_a_corrupted_spec_in_a_batch():
    base = meridional_spec()
    amps = bloch_amplitudes(np.linspace(0.0, np.pi, 7), 0.3)
    # corruption after construction, past the constructor's checks, unitarity
    # among them; the output check still refuses these two. The kernel reads
    # the Gram matrix taken at construction, so that is what is corrupted.
    nan_gram = meridional_spec()
    gram = nan_gram.gram.copy()
    gram[0, 0] = np.nan
    object.__setattr__(nan_gram, "gram", gram)
    wide_channel = channel_spec(0.9)
    object.__setattr__(wide_channel, "clone_fidelity", 1.5)
    batch = [base, nan_gram, wide_channel, channel_spec(0.8)]
    outcomes = []
    for spec in batch:
        try:
            marginals(spec, amps)
            outcomes.append("ok")
        except ValueError:
            outcomes.append("rejected")
    assert outcomes == ["ok", "rejected", "rejected", "ok"]


def test_marginals_reject_one_bad_input_in_a_batch():
    amps = bloch_amplitudes(np.linspace(0.0, np.pi, 7), 0.3)
    for bad in (1.5, np.nan):
        corrupted = amps.copy()
        corrupted[3, 0] *= bad
        for spec in (meridional_spec(), channel_spec(0.9)):
            with pytest.raises(ValueError):
                marginals(spec, corrupted)


def test_marginals_have_one_input_rule_for_both_variants():
    """Amplitude norms within JOINT_NORM_TOL (1e-8) of 1 are divided out, for
    channel and explicit machines alike; norms further off are refused."""
    amps = bloch_amplitudes(np.array([0.0, 0.7, 2.0, np.pi]), np.array([0.0, 1.0, 4.0, 0.0]))
    for spec in (builtin_spec("universal"), channel_spec(0.77), builtin_spec("ideal"),
                 meridional_spec(), synthesize(BHParams(0.12, 0.3, 0.2))):
        want = marginals(spec, amps)
        for scale in (1 + 1e-9, 1 - 1e-9):
            np.testing.assert_allclose(marginals(spec, scale * amps), want, rtol=0, atol=1e-15)
        for scale in (1 + 1e-7, 1 - 1e-7):
            with pytest.raises(ValueError, match="input amplitudes"):
                marginals(spec, scale * amps)


def test_marginals_blame_the_amplitudes_not_the_spec():
    for spec in (meridional_spec(), builtin_spec("universal")):
        for amps in ([2.0, 0.0], [[1.0, 0.0], [np.nan, 0.0]]):
            with pytest.raises(ValueError, match="input amplitudes") as err:
                marginals(spec, amps)
            assert "spec" not in str(err.value)


# --- closed forms -----------------------------------------------------------

def test_meridional_general_formula():
    """The closed forms at fixed points: meridional fidelities at a pole, on
    both meridians' equator and at pi/6; unit trace; angles off theta in
    [0, pi], phi in [0, 2 pi) and an unrealizable triple are refused."""
    p = BHParams(0.1, 0.4, 0.4)
    for theta, phi, want, tol in ((0.0, 0.0, 0.9, 1e-15), (0.0, 1.0, 0.9, 1e-15),
                                  (np.pi / 2, 0.0, 0.9, 1e-15), (np.pi / 2, np.pi, 0.5, 1e-15),
                                  (np.pi / 6, 0.0, 0.95, 1e-12)):
        assert fidelity_closed_form(p, theta, phi) == pytest.approx(want, abs=tol)
    rho = reduced_output_closed_form(BHParams(0.12, 0.3, 0.2), 1.234, np.pi)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    for closed_form, params, theta, phi in (
            (fidelity_closed_form, p, -0.1, 0.0), (fidelity_closed_form, p, 1.0, 7.0),
            (reduced_output_closed_form, p, 1.0, 2 * np.pi),
            (fidelity_closed_form, BHParams(0.1, 0.7, 0.7), 1.0, 0.0)):
        with pytest.raises(ValueError):
            closed_form(params, theta, phi)


def test_closed_forms_match_kernel_and_clone_over_the_sphere():
    """At drawn (theta, phi), both poles with a phase and both meridians, the
    kernel's marginal of every spec (synthesized, built-in, channel) is the
    brute-force clone's; for an explicit spec the kernel and the clone also
    match both closed forms at its triple."""
    rng = np.random.default_rng(2024)
    cases = [(synthesize(p), p) for p in _random_feasible(rng, 200)]
    cases += [(spec, spec.bh_params() if spec.variant == "explicit" else None)
              for spec in map(builtin_spec, BUILTIN_MACHINES)]
    cases.append((channel_spec(0.77), None))
    for spec, p in cases:
        theta = np.concatenate([rng.uniform(0.0, np.pi, 4), [0.0, np.pi]])
        phi = rng.uniform(0.0, 2 * np.pi, theta.size)
        # both meridians, at two of the drawn polar angles
        theta, phi = np.append(theta, theta[:2]), np.append(phi, [0.0, np.pi])
        amps = bloch_amplitudes(theta, phi)
        got = marginals(spec, amps)
        assert got.shape == (theta.size, 2, 2)
        states = [oracles.qubit_amplitudes(t, ph) for t, ph in zip(theta, phi)]
        refs = [oracles.machine_output(spec, s) for s in states]
        assert np.max(np.abs(got - refs)) <= 1e-12
        if p is None:
            continue
        rho = reduced_output_closed_form(p, theta, phi)
        f = fidelity_closed_form(p, theta, phi)
        assert rho.shape == got.shape and f.shape == theta.shape
        assert np.max(np.abs(got - rho)) <= 1e-12
        assert np.max(np.abs(fidelities(amps, got) - f)) <= 1e-12
        for s, ref, rho_i, f_i in zip(states, refs, rho, f):
            assert np.max(np.abs(ref - rho_i)) <= 1e-12
            assert abs(np.vdot(s, ref @ s).real - f_i) <= 1e-12


# --- builtins and spec files -------------------------------------------------

def test_builtin_names_resolve():
    for name in BUILTIN_MACHINES:
        spec = builtin_spec(name)
        assert spec.name == name
    with pytest.raises(ValueError):
        builtin_spec("bogus")


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "machine.json"
    save_spec(meridional_spec(), path)
    loaded = load_spec(path)
    assert loaded.variant == "explicit"
    assert loaded.apparatus_dim == 2
    np.testing.assert_allclose(loaded.q0, meridional_spec().q0)
    np.testing.assert_allclose(loaded.y1, meridional_spec().y1)
    # save -> load -> save is byte stable
    again = tmp_path / "again.json"
    save_spec(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    # a channel's field in an explicit file is ignored
    again.write_text(json.dumps({**json.loads(path.read_text()), "fidelity": 0.9}))
    save_spec(load_spec(again), again)
    assert path.read_bytes() == again.read_bytes()


def test_spec_file_channel_roundtrip(tmp_path):
    path = tmp_path / "chan.json"
    save_spec(builtin_spec("equatorial"), path)
    loaded = load_spec(path)
    assert loaded.variant == "channel"
    assert loaded.clone_fidelity == pytest.approx(EQUATORIAL_FIDELITY, abs=0)
    # an explicit machine's fields (apparatus_dim, Q0 to Y1) in a channel file are ignored
    mixed = tmp_path / "mixed.json"
    save_spec(meridional_spec(), mixed)
    mixed.write_text(json.dumps({**json.loads(mixed.read_text()), **json.loads(path.read_text())}))
    save_spec(load_spec(mixed), mixed)
    assert mixed.read_bytes() == path.read_bytes()


def test_load_spec_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all {")
    with pytest.raises(ValueError):
        load_spec(path)
    path.write_text(json.dumps({"variant": "explicit", "name": "x"}))
    with pytest.raises(ValueError):
        load_spec(path)
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError):
        load_spec(path)


def _random_json(rng, depth=0):
    kind = rng.integers(0, 9 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(0, 2))
    if kind == 2:
        return int(rng.choice([0, 1, 2, 3, 4, -1, 10 ** 400]))
    if kind == 3:
        return float(rng.choice([0.0, 0.5, 0.9, 2.7, -1.0, 1e308, np.nan, np.inf]))
    if kind == 4:
        return str(rng.choice(["", "0.9", "2", "explicit", "channel", "x"]))
    if kind == 5:
        return [float(rng.normal()), float(rng.normal())]
    if kind == 6:
        return [_random_json(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    if kind == 7:
        return [[_random_json(rng, depth + 1), _random_json(rng, depth + 1)]
                for _ in range(rng.integers(0, 5))]
    return {str(rng.integers(0, 3)): _random_json(rng, depth + 1)}


def test_spec_from_dict_fuzz_yields_spec_or_value_error(tmp_path):
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    explicit = json.loads(path.read_text())
    channel = {"name": "chan", "variant": "channel", "fidelity": 0.9}
    fields = sorted(set(explicit) | set(channel))
    base = meridional_spec()
    explicit_kwargs = {"variant": "explicit", "name": "m", "apparatus_dim": 2,
                       "q0": base.q0, "q1": base.q1, "y0": base.y0, "y1": base.y1}
    channel_kwargs = {"variant": "channel", "name": "c", "clone_fidelity": 0.9}
    kwarg_names = sorted(set(explicit_kwargs) | set(channel_kwargs))
    rng = np.random.default_rng(404)
    for _ in range(3000):
        doc = dict(explicit if rng.integers(0, 2) else channel)
        for key in rng.choice(fields, size=rng.integers(1, 3), replace=False):
            if rng.integers(0, 6) == 0:
                doc.pop(key, None)
            else:
                doc[key] = _random_json(rng)
        doc = json.loads(json.dumps(doc))
        # the same values straight into the constructor, past the file gate
        kwargs = dict(explicit_kwargs if rng.integers(0, 2) else channel_kwargs)
        for key in rng.choice(kwarg_names, size=rng.integers(1, 3), replace=False):
            kwargs[key] = _random_json(rng)
        for build in (lambda: spec_from_dict(doc), lambda: CloningSpec(**kwargs)):
            try:
                spec = build()
            except ValueError:
                continue
            assert spec.variant in ("explicit", "channel")
            assert isinstance(spec.name, str)
            if spec.variant == "explicit":
                assert type(spec.apparatus_dim) is int and spec.apparatus_dim in (2, 3, 4)
            else:
                assert type(spec.clone_fidelity) is float
                assert 0.5 <= spec.clone_fidelity <= 1.0


def test_spec_from_dict_rejects_mistyped_fields(tmp_path):
    # besides the documents of test_cli.test_malformed_spec_fields_exit_1:
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    explicit = json.loads(path.read_text())
    for doc in ({**explicit, "apparatus_dim": True},
                {**explicit, "Q0": [[True, 0.0], [0.5, 0.0]]},
                {**explicit, "Q0": [[10 ** 400, 0.0], [0.5, 0.0]]}):
        with pytest.raises(ValueError):
            spec_from_dict(doc)
