import numpy as np
import pytest

from qclone.qcore import (
    DensityMatrix,
    bloch_amplitudes,
    check_qubit_densities,
    fidelities,
    fidelity,
    partial_trace,
    to_density,
)


def _projector(amps):
    """|s><s| of a pure qubit's amplitude pair as a DensityMatrix."""
    return DensityMatrix((2,), np.outer(amps, np.conj(amps)))


def _product(a, b):
    """The density matrix of the two-qubit product state a (x) b."""
    return to_density((2, 2), np.kron(a, b))


def test_pole_amplitudes_are_exact():
    assert tuple(bloch_amplitudes(0.0)) == (1.0 + 0.0j, 0.0 + 0.0j)
    assert tuple(bloch_amplitudes(np.pi)) == (0.0 + 0.0j, 1.0 + 0.0j)
    # the phase is irrelevant at the poles and is dropped
    assert tuple(bloch_amplitudes(0.0, 1.3)) == (1.0 + 0.0j, 0.0 + 0.0j)
    assert tuple(bloch_amplitudes(np.pi, 2.0)) == (0.0 + 0.0j, 1.0 + 0.0j)


def test_bloch_state_general_point():
    a, b = bloch_amplitudes(1.2, 0.7)
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
    east, west = bloch_amplitudes(0.8, np.array([0.0, np.pi]))
    assert east[1].real > 0 and east[1].imag == 0.0
    assert west[1].real < 0
    with pytest.raises(ValueError):
        bloch_amplitudes(0.8, 2 * np.pi)


def test_to_density_refuses_a_vector_that_is_not_unit():
    np.testing.assert_array_equal(to_density((2,), np.array([0.0, 1j])).matrix,
                                  [[0.0, 0.0], [0.0, 1.0]])
    for dims, amps in (((2,), [1.0, 1.0]), ((2, 2), [1.0, 0.0]), ((2,), [np.nan, 0.0])):
        with pytest.raises(ValueError):
            to_density(dims, np.array(amps))


def test_density_matrix_validation():
    DensityMatrix((2,), np.eye(2) / 2)
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.diag([1.5, -0.5]))  # negative eigenvalue


def test_density_matrix_is_write_locked():
    rho = _projector(bloch_amplitudes(0.3))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0


def test_tensor_and_partial_trace_product_state():
    a, b = bloch_amplitudes(np.array([0.9, 2.1]), np.array([0.4, 5.0]))
    rho = _product(a, b)
    assert rho.dims == (2, 2)
    rho_a = partial_trace(rho, (0,))
    rho_b = partial_trace(rho, (1,))
    np.testing.assert_allclose(rho_a.matrix, _projector(a).matrix, atol=1e-14)
    np.testing.assert_allclose(rho_b.matrix, _projector(b).matrix, atol=1e-14)


def test_partial_trace_against_loop_reference():
    # random (2,2,3) pure state; reduce to subsystems (0,1) by hand
    rng = np.random.default_rng(5)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    amps /= np.linalg.norm(amps)
    rho = to_density((2, 2, 3), amps)
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
    rho = _product(bloch_amplitudes(0.1), bloch_amplitudes(0.2))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


def test_fidelity_of_state_with_itself():
    for theta, phi in [(0.0, 0.0), (0.77, 1.3), (np.pi, 0.0), (np.pi / 2, 3.9)]:
        s = bloch_amplitudes(theta, phi)
        assert fidelity(s, _projector(s)) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_states():
    up = bloch_amplitudes(0.0)
    down = _projector(bloch_amplitudes(np.pi))
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_takes_one_finite_unit_amplitude_pair():
    rho = _projector(bloch_amplitudes(1.0, 2.0))
    assert fidelity([1.0, 0.0], rho) == fidelity(np.array([1.0 + 0j, 0.0]), rho)
    assert fidelity([1.0 + 4e-13, 0.0], rho) == pytest.approx(fidelity([1.0, 0.0], rho))
    for amps in ([1.0 + 1e-9, 0.0],                   # squared norm off by 2e-9
                 [1.0, 1.0], [0.0, 0.0],
                 [np.nan, 0.0], [1.0, np.inf],
                 [1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]],    # not one pair
                 bloch_amplitudes(np.array([0.3, 0.4]))):
        with pytest.raises(ValueError):
            fidelity(amps, rho)
    with pytest.raises(ValueError):
        fidelity([1.0, 0.0], _product(bloch_amplitudes(0.1), bloch_amplitudes(0.2)))
