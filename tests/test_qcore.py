import numpy as np
import pytest

from qclone.b92 import info_curve
from qclone.machines import marginals, meridional_spec
from qclone.qcore import (
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    bloch_amplitudes,
    check_bloch_angles,
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


def test_bloch_amplitudes_batch_formula_poles_and_domain():
    theta = np.array([0.0, 0.4, 1.2, 2.9, np.pi])
    phi = np.array([5.0, 0.0, 0.7, 6.2, 3.0])
    amps = bloch_amplitudes(theta, phi)
    assert amps.shape == (5, 2)
    assert tuple(amps[0]) == (1.0, 0.0) and tuple(amps[-1]) == (0.0, 1.0)
    # scalar calls at each pole, without and with a phase, which is dropped
    for pole, phase, want in ((0.0, 1.3, (1.0, 0.0)), (np.pi, 2.0, (0.0, 1.0))):
        assert tuple(bloch_amplitudes(pole)) == want == tuple(bloch_amplitudes(pole, phase))
    np.testing.assert_allclose(np.sum(np.abs(amps) ** 2, axis=-1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(amps[1:4, 0], np.cos(theta[1:4] / 2), atol=1e-15)
    np.testing.assert_allclose(amps[1:4, 1], np.exp(1j * phi[1:4]) * np.sin(theta[1:4] / 2),
                               atol=1e-15)
    assert bloch_amplitudes(theta, np.array([[0.0], [np.pi]])).shape == (2, 5, 2)
    for bad_theta, bad_phi in ((np.array([0.1, -0.1]), 0.0), (np.pi + 1e-9, 0.0),
                               (1.0, np.array([0.0, 2 * np.pi])), (1.0, -1e-300),
                               (np.nan, 0.0), (1.0, np.inf)):
        with pytest.raises(ValueError):
            bloch_amplitudes(bad_theta, bad_phi)


@pytest.mark.parametrize("call, args, message", [
    (bloch_amplitudes, ("0.5",), "angles must be a real number"),
    (bloch_amplitudes, (True,), "angles must be a real number"),
    (bloch_amplitudes, (np.array([0.5 + 2j]),), "angles must be real numbers"),
    (marginals, (meridional_spec(), [True, False]), "input amplitudes must be numbers"),
    (fidelity, ([True, False], DensityMatrix((2,), np.diag([0.9, 0.1]))),
     "input amplitudes must be numbers"),
    (info_curve, (meridional_spec(), ["0.5"]), "overlaps must be real numbers"),
    (info_curve, (meridional_spec(), [0.5 + 0.1j]), "overlaps must be real numbers"),
    (bloch_amplitudes, ([True, 0.5],), "angles must be real numbers"),
    (marginals, (meridional_spec(), [[True, 0]]), "input amplitudes must be numbers"),
    (fidelities, ([[1, False]], np.eye(2) / 2), "input amplitudes must be numbers"),
    (DensityMatrix, ((2,), [[True, False], [False, False]]), "matrix entries must be numbers"),
    (to_density, ((2,), [True, False]), "amplitudes must be numbers"),
], ids=["angle-string", "angle-bool", "angle-complex", "amplitude-bools", "fidelity-bools",
        "overlap-string", "overlap-complex", "angle-bool-among-numbers",
        "amplitude-bool-among-numbers", "fidelities-bool-among-numbers", "density-bools",
        "to-density-bools"])
def test_array_inputs_must_be_numbers(call, args, message):
    """Angles, amplitudes, overlaps and matrix entries follow one rule:
    integer and float arrays (and complex ones for amplitudes and matrices)
    are cast, and any other input is walked entry by entry, so a bool or a
    string is a ValueError even among numbers, never a silent cast or a
    dropped imaginary part."""
    with pytest.raises(ValueError, match=message):
        call(*args)


def test_array_inputs_that_are_numbers_are_taken_without_a_copy():
    theta = np.linspace(0.0, np.pi, 7)
    checked, _ = check_bloch_angles(theta, 0.0)
    assert np.shares_memory(checked, theta)
    assert np.array_equal(bloch_amplitudes(np.arange(3), np.float32(1)),
                          bloch_amplitudes([0.0, 1.0, 2.0], 1.0))
    assert np.array_equal(marginals(meridional_spec(), [1, 0]),
                          marginals(meridional_spec(), np.array([1.0 + 0j, 0.0])))


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
    # what is not a state is refused, as marginals refuses it, not scored
    for not_a_state in np.array([[2.0, 0.0], [0.1, 0.0], [np.nan, 0.0]]):
        with pytest.raises(ValueError, match="input amplitudes"):
            fidelities(not_a_state, np.eye(2) / 2)


def _is_qubit_density(mat):
    """Reference rule in plain numpy: finite entries, trace 1 within
    TRACE_TOL and eigvalsh's eigenvalues inside [0, 1] up to PSD_TOL."""
    if not np.all(np.isfinite(mat)):
        return False
    eigs = np.linalg.eigvalsh(mat)
    return (abs(np.trace(mat).real - 1.0) <= TRACE_TOL
            and eigs[0] >= PSD_TOL and eigs[-1] <= 1.0 - PSD_TOL)


def _refused(mats):
    try:
        check_qubit_densities(mats)
    except ValueError:
        return True
    return False


def test_check_qubit_densities_matches_density_matrix_rules():
    good = np.array([[[0.9, 0.2], [0.2, 0.1]], [[0.5, 0.5j], [-0.5j, 0.5]]])
    assert all(_is_qubit_density(m) for m in good)
    check_qubit_densities(good)
    for bad in ([[0.9, 0.2], [0.2, 0.2]],        # trace 1.1
                [[1.2, 0.0], [0.0, -0.2]],       # eigenvalue below 0
                [[0.5, 0.6], [0.6, 0.5]],        # eigenvalues -0.1 and 1.1
                [[np.nan, 0.0], [0.0, 0.5]]):
        bad = np.array(bad, dtype=complex)
        assert not _is_qubit_density(bad)
        assert _refused(np.stack([good[0], bad]))
    # unit-trace Hermitian matrices on both sides of the eigenvalue bounds
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, r, phase = rng.uniform(-0.1, 1.1), rng.uniform(0.0, 0.6), rng.uniform(0, 2 * np.pi)
        c = r * np.exp(1j * phase)
        mat = np.array([[a, c], [np.conj(c), 1.0 - a]])
        assert _refused(mat) == (not _is_qubit_density(mat)), mat


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
    # dimensions are integers, never cast: 2.7, "2" and True are not 2, 2 and 1
    for dims in ((2.7,), ("2",), (True, 2), (np.float64(2.0),), (), (0,)):
        with pytest.raises(ValueError, match="invalid subsystem dimensions"):
            DensityMatrix(dims, np.eye(2) / 2)
    assert DensityMatrix((np.int64(2),), np.eye(2) / 2).dims == (2,)


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
    # indices are integers, never cast: 0.9 and True are not subsystem 0 or 1
    for keep in ([0.9], [True], [np.float64(0.0)], ["0"], [-1]):
        with pytest.raises(ValueError, match="subsystem indices"):
            partial_trace(rho, keep)
    assert partial_trace(rho, [np.int64(1)]).dims == (2,)


def test_fidelity_of_state_with_itself():
    for theta, phi in [(0.0, 0.0), (0.77, 1.3), (np.pi, 0.0), (np.pi / 2, 3.9)]:
        s = bloch_amplitudes(theta, phi)
        assert fidelity(s, _projector(s)) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_orthogonal_states():
    up = bloch_amplitudes(0.0)
    down = _projector(bloch_amplitudes(np.pi))
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-14)


def test_fidelity_takes_one_finite_unit_amplitude_pair():
    """fidelity is fidelities for one pair, under the one amplitude rule:
    a norm off 1 by up to JOINT_NORM_TOL is divided out, more is refused."""
    rho = _projector(bloch_amplitudes(1.0, 2.0))
    assert fidelity([1.0, 0.0], rho) == fidelity(np.array([1.0 + 0j, 0.0]), rho)
    assert fidelity([1.0 + 4e-13, 0.0], rho) == pytest.approx(fidelity([1.0, 0.0], rho))
    mixed = DensityMatrix((2,), np.diag([0.9, 0.1]))
    for amps in ([1.0 + 1e-9, 0.0], [1.0 + 1e-11, 0.0]):
        assert fidelity(amps, mixed) == 0.9
        for state in (rho, mixed):
            got = fidelity(amps, state)
            assert np.float64(got).tobytes() == fidelities(amps, state.matrix).tobytes()
    for amps in ([1.0 + 1e-7, 0.0],                   # norm off by 1e-7
                 [1.0, 1.0], [0.0, 0.0],
                 [np.nan, 0.0], [1.0, np.inf],
                 [1.0, 0.0, 0.0], [1.0], [[1.0, 0.0]],    # not one pair
                 bloch_amplitudes(np.array([0.3, 0.4]))):
        with pytest.raises(ValueError):
            fidelity(amps, rho)
    with pytest.raises(ValueError):
        fidelity([1.0, 0.0], _product(bloch_amplitudes(0.1), bloch_amplitudes(0.2)))
