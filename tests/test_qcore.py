import numpy as np
import pytest

from qclone.qcore import (
    DensityMatrix,
    PureQubit,
    StateVector,
    bloch_amplitudes,
    bloch_state,
    check_qubit_densities,
    fidelities,
    fidelity,
    ket,
    partial_trace,
    pure_density,
    tensor,
    to_density,
)


def test_pole_amplitudes_are_exact():
    assert tuple(PureQubit(0.0).amplitudes) == (1.0 + 0.0j, 0.0 + 0.0j)
    assert tuple(PureQubit(np.pi).amplitudes) == (0.0 + 0.0j, 1.0 + 0.0j)
    # phase is irrelevant at the poles and gets normalized away
    assert PureQubit(0.0, 1.3).phi == 0.0
    assert PureQubit(np.pi, 2.0).phi == 0.0


def test_pure_qubit_domain():
    with pytest.raises(ValueError):
        PureQubit(-0.1)
    with pytest.raises(ValueError):
        PureQubit(np.pi + 0.1)
    with pytest.raises(ValueError):
        PureQubit(1.0, -0.5)
    with pytest.raises(ValueError):
        PureQubit(1.0, 2 * np.pi)
    with pytest.raises(ValueError):
        PureQubit(float("nan"))


def test_bloch_state_general_point():
    s = bloch_state(1.2, 0.7)
    a, b = s.amplitudes
    assert a == pytest.approx(np.cos(0.6))
    assert b == pytest.approx(np.exp(0.7j) * np.sin(0.6))
    assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-15)


def test_bloch_amplitudes_batch_formula_poles_and_domain():
    theta = np.array([0.0, 0.4, 1.2, 2.9, np.pi])
    phi = np.array([5.0, 0.0, 0.7, 6.2, 3.0])
    amps = bloch_amplitudes(theta, phi)
    assert amps.shape == (5, 2)
    assert tuple(amps[0]) == (1.0, 0.0) and tuple(amps[-1]) == (0.0, 1.0)
    np.testing.assert_allclose(amps[1:4, 0], np.cos(theta[1:4] / 2), atol=1e-15)
    np.testing.assert_allclose(amps[1:4, 1], np.exp(1j * phi[1:4]) * np.sin(theta[1:4] / 2),
                               atol=1e-15)
    for t, p, row in zip(theta, phi, amps):
        assert tuple(PureQubit(t, p).amplitudes) == tuple(row)
    assert bloch_amplitudes(theta, np.array([[0.0], [np.pi]])).shape == (2, 5, 2)
    for bad_theta, bad_phi in ((np.array([0.1, -0.1]), 0.0), (np.pi + 1e-9, 0.0),
                               (1.0, np.array([0.0, 2 * np.pi])), (1.0, -1e-300),
                               (np.nan, 0.0), (1.0, np.inf)):
        with pytest.raises(ValueError):
            bloch_amplitudes(bad_theta, bad_phi)


def test_fidelities_match_vdot_and_clip():
    rng = np.random.default_rng(5)
    amps = bloch_amplitudes(rng.uniform(0, np.pi, 50), rng.uniform(0, 2 * np.pi, 50))
    weights = rng.uniform(0, 1, 50)[:, None, None]
    mats = weights * amps[:, :, None] * amps.conj()[:, None, :] + (1 - weights) * np.eye(2) / 2
    want = [np.vdot(a, m @ a).real for a, m in zip(amps, mats)]
    np.testing.assert_allclose(fidelities(amps, mats), want, atol=1e-15)
    assert fidelities(amps[0], 1.5 * np.eye(2)) == 1.0
    with pytest.raises(ValueError):
        fidelities(amps[:2], np.array([[[1, 0], [0, 0]], [[0.5, 1j], [0, 0.5]]]))


def test_check_qubit_densities_matches_density_matrix_rules():
    good = np.array([[[0.9, 0.2], [0.2, 0.1]], [[0.5, 0.5j], [-0.5j, 0.5]]])
    check_qubit_densities(good)
    for bad in ([[0.9, 0.2], [0.2, 0.2]],        # trace 1.1
                [[1.2, 0.0], [0.0, -0.2]],       # eigenvalue below 0
                [[0.5, 0.6], [0.6, 0.5]],        # eigenvalues -0.1 and 1.1
                [[np.nan, 0.0], [0.0, 0.5]]):
        bad = np.array(bad, dtype=complex)
        with pytest.raises(ValueError):
            check_qubit_densities(np.stack([good[0], bad]))
        with pytest.raises(ValueError):
            DensityMatrix((2,), bad)


def test_main_circle_branches():
    east = bloch_state(0.8, 0.0)
    west = bloch_state(0.8, np.pi)
    assert east.phi == 0.0
    assert west.phi == np.pi
    assert east.amplitudes[1].real > 0
    assert west.amplitudes[1].real < 0
    with pytest.raises(ValueError):
        bloch_state(0.8, 2 * np.pi)


def test_state_vector_requires_unit_norm():
    StateVector((2,), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector((2,), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector((2, 2), np.array([1.0, 0.0]))  # wrong length


def test_density_matrix_validation():
    DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_matrix_is_write_locked():
    rho = pure_density(PureQubit(0.3))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_tensor_and_partial_trace_product_state():
    a = ket(PureQubit(0.9, 0.4))
    b = ket(PureQubit(2.1, 5.0))
    joint = tensor(a, b)
    assert joint.dims == (2, 2)
    rho = to_density(joint)
    rho_a = partial_trace(rho, (0,))
    rho_b = partial_trace(rho, (1,))
    np.testing.assert_allclose(rho_a.matrix, pure_density(PureQubit(0.9, 0.4)).matrix, atol=1e-14)
    np.testing.assert_allclose(rho_b.matrix, pure_density(PureQubit(2.1, 5.0)).matrix, atol=1e-14)


def test_partial_trace_against_loop_reference():
    # random (2,2,3) pure state; reduce to subsystems (0,1) by hand
    rng = np.random.default_rng(5)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    vec = StateVector((2, 2, 3), amps)
    rho = to_density(vec)
    got = partial_trace(rho, (0, 1)).matrix

    psi = amps.reshape(2, 2, 3)
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for ip in range(2):
                for jp in range(2):
                    for x in range(3):
                        want[2 * i + j, 2 * ip + jp] += psi[i, j, x] * np.conj(psi[ip, jp, x])
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert np.trace(got).real == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_keep():
    rho = to_density(tensor(ket(PureQubit(0.1)), ket(PureQubit(0.2))))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_fidelity_of_state_with_itself():
    for theta, phi in [(0.0, 0.0), (0.77, 1.3), (np.pi, 0.0), (np.pi / 2, 3.9)]:
        s = PureQubit(theta, phi)
        assert fidelity(s, pure_density(s)) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_states():
    up = PureQubit(0.0)
    down = pure_density(PureQubit(np.pi))
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-14)
