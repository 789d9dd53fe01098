"""Invariants checked as properties over drawn inputs rather than at fixed points.

Machines are synthesized from a drawn realizable (zeta, eta, kappa) and then
have their apparatus vectors turned by a drawn complex unitary, which keeps
the Gram matrix (so every single-clone figure) and gives the spec complex
entries. The same properties are checked on those machines after a round
trip through a spec file. General unitary machines, whatever CloningSpec
accepts, have Gram matrices no synthesized machine has (the two signals'
discrepancies differ, and <Y0|Y1> may be up to UNITARITY_TOL); they are
checked against the brute-force oracles. Examples stay few and small so the
module runs in a few seconds.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qclone import b92
from qclone.b92 import attack_analysis
from qclone.machines import (UNITARITY_TOL, BHParams, CloningSpec, builtin_spec, channel_spec,
                             load_spec, marginals, save_spec, synthesize)
from qclone.qcore import bloch_amplitudes, fidelities

import oracles

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

varthetas = st.floats(0.0, np.pi / 2, exclude_min=True)
bloch_inputs = st.tuples(  # eight Bloch inputs as (thetas, phis)
    st.lists(st.floats(0.0, np.pi), min_size=8, max_size=8),
    st.lists(st.floats(0.0, 2 * np.pi, exclude_max=True), min_size=8, max_size=8))
edge_overlaps = st.lists(  # signals within 1e-12 of orthogonal or of coinciding
    st.one_of(st.floats(0.0, 1e-12, exclude_min=True),
              st.floats(1 - 1e-12, 1.0, exclude_max=True)), min_size=1, max_size=20)


@st.composite
def rotated_machines(draw):
    """A synthesized machine whose apparatus vectors are turned by a random
    complex unitary: same Gram matrix, complex entries."""
    zeta = draw(st.floats(0.0, 0.5))
    radius = 2.0 * np.sqrt(zeta * (1.0 - 2.0 * zeta)) * draw(st.floats(0.0, 1.0))
    angle = draw(st.floats(0.0, np.pi / 2))
    base = synthesize(BHParams(zeta, radius * np.cos(angle), radius * np.sin(angle)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return base, _explicit("rotated", oracles.rotated((base.q0, base.q1, base.y0, base.y1), seed))


def _explicit(name, vectors):
    q0, q1, y0, y1 = vectors
    return CloningSpec(variant="explicit", name=name, apparatus_dim=len(q0),
                       q0=q0, q1=q1, y0=y0, y1=y1)


@st.composite
def unitary_machines(draw):
    """General unitary machines; some with <Y0|Y1> up to UNITARITY_TOL."""
    d = draw(st.sampled_from([2, 3, 4]))
    zeta = draw(st.floats(0.0, 0.5))
    overlap = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99))) * UNITARITY_TOL
    return _explicit("unitary", oracles.unitary_vectors(
        d, zeta, draw(st.integers(0, 2 ** 32 - 1)), overlap if zeta >= 0.01 else 0.0))


# D_u and D_v differ here (0.199 and 0.195 at vartheta = 0.3); <Y0|Y1> is 0.9 UNITARITY_TOL
UNEVEN = _explicit("unitary", oracles.unitary_vectors(4, 0.15, 0, 0.9 * UNITARITY_TOL))


@SETTINGS
@given(unitary_machines())
@example(builtin_spec("meridional"))
@example(builtin_spec("wootters-zurek"))
def test_gram_is_the_apparatus_inner_products_taken_once(spec):
    """spec.gram[i, j] is np.vdot(v_i, v_j) over (Q0, Q1, Y0, Y1) bit for
    bit; it is write-locked, and a renamed copy takes the same matrix."""
    vectors = (spec.q0, spec.q1, spec.y0, spec.y1)
    want = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
    assert spec.gram.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        spec.gram[0, 0] = 0.0
    assert replace(spec, name="renamed").gram.tobytes() == want.tobytes()


@SETTINGS
@given(varthetas)
@example(np.pi / 2)
@example(5e-324)
def test_povm_is_complete_and_positive(vt):
    g = b92._povm_arrays(b92._signals(vt))
    assert g.shape == (3, 2, 2)
    assert np.max(np.abs(g.sum(axis=0) - np.eye(2))) <= 1e-12
    assert np.max(np.abs(g - g.conj().swapaxes(-1, -2))) <= 1e-12
    assert np.linalg.eigvalsh(g).min() >= -1e-12


def _assert_states_of_the_gram_matrix(spec, base, amps):
    """marginals(spec) are trace-1 PSD states equal to those of `base`."""
    mats = marginals(spec, amps)
    assert np.max(np.abs(np.trace(mats, axis1=-2, axis2=-1) - 1.0)) <= 1e-12
    assert np.max(np.abs(mats - mats.conj().swapaxes(-1, -2))) <= 1e-12
    assert np.linalg.eigvalsh(mats).min() >= -1e-12
    np.testing.assert_allclose(mats, marginals(base, amps), rtol=0, atol=1e-12)


def _assert_figures_in_the_unit_interval(spec, vt, amps):
    f = fidelities(amps, marginals(spec, amps))
    assert np.all((f >= 0.0) & (f <= 1.0))
    res = attack_analysis(spec, vt)
    assert 0.0 <= res.mutual_information <= 1.0
    assert 0.0 <= res.discrepancy <= 1.0
    assert all(0.0 <= p <= 1.0 for pair in res.outcome_probs.values() for p in pair)


@SETTINGS
@given(rotated_machines(), bloch_inputs)
def test_marginals_are_states_and_depend_only_on_the_gram_matrix(machines, angles):
    base, spec = machines
    _assert_states_of_the_gram_matrix(spec, base, bloch_amplitudes(*angles))


@SETTINGS
@given(st.one_of(rotated_machines().map(lambda pair: pair[1]), unitary_machines(),
                 st.floats(0.5, 1.0).map(channel_spec)),
       varthetas, bloch_inputs, edge_overlaps)
def test_fidelity_information_and_discrepancy_lie_in_the_unit_interval(spec, vt, angles,
                                                                       overlaps):
    _assert_figures_in_the_unit_interval(spec, vt, bloch_amplitudes(*angles))
    figures = b92.info_curve(spec, overlaps)[:, 1:]  # (I, D) at the edge overlaps
    assert np.all((figures >= 0.0) & (figures <= 1.0))


@SETTINGS
@given(unitary_machines(), bloch_inputs)
@example(UNEVEN, ([0.3, 0.9, 1.6, 2.2, 0.7, 2.9, 1.2, 0.1], [0, 1, 2, 3, 4, 5, 6, 0.5]))
def test_marginals_of_unitary_machines_match_the_bruteforce_oracle(spec, angles):
    got = marginals(spec, bloch_amplitudes(*angles))
    vectors = (spec.q0, spec.q1, spec.y0, spec.y1)
    for theta, phi, rho in zip(*angles, got):
        want = oracles.clone_bruteforce(vectors, *oracles.qubit_amplitudes(theta, phi))
        assert np.max(np.abs(rho - want)) <= 1e-12


@SETTINGS
@given(unitary_machines(), varthetas)
@example(UNEVEN, 0.3)
def test_attack_on_unitary_machines_matches_the_povm_oracle(spec, vt):
    """Outcome tables, I and D against oracles.attack."""
    table_u, table_v, info, disc = oracles.attack(spec, vt)
    res = attack_analysis(spec, vt)
    got = [res.outcome_probs[f"G{mu}"] for mu in (1, 2, 3)]  # (outcome, signal)
    assert np.max(np.abs(np.array(got).T - (table_u, table_v))) <= 1e-12
    assert abs(res.mutual_information - info) <= 1e-12
    assert abs(res.discrepancy - disc) <= 1e-12


@SETTINGS
@given(rotated_machines(), st.floats(0.5, 1.0), varthetas, bloch_inputs)
def test_spec_files_load_to_machines_with_states_and_unit_interval_figures(
        machines, channel_fidelity, vt, angles):
    base, spec = machines
    with tempfile.TemporaryDirectory() as tmp:
        loaded = []
        for i, written in enumerate((spec, channel_spec(channel_fidelity, "channel"))):
            path = Path(tmp) / f"machine{i}.json"
            save_spec(written, path)
            loaded.append(load_spec(path))
    for attr in ("q0", "q1", "y0", "y1"):
        np.testing.assert_array_equal(getattr(loaded[0], attr), getattr(spec, attr))
    amps = bloch_amplitudes(*angles)
    _assert_states_of_the_gram_matrix(loaded[0], base, amps)
    for machine in loaded:
        _assert_figures_in_the_unit_interval(machine, vt, amps)


@SETTINGS
@given(varthetas)
@example(np.pi / 2)
@example(0.5)
def test_ideal_channel_has_no_disturbance_and_bobs_conclusive_yield(vt):
    # Eve's copy is perfect, so she learns exactly what Bob's conclusive
    # outcomes reveal: I = 1 - sin(vartheta), not 1
    res = attack_analysis(builtin_spec("ideal"), vt)
    assert res.discrepancy == 0.0
    assert abs(res.mutual_information - (1.0 - np.sin(vt))) <= 1e-12
