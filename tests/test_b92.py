import numpy as np
import pytest

from qclone import b92
from qclone.b92 import (
    attack_analysis,
    b92_pair,
    info_curve,
    outcome_probs,
    povm,
    simulate_protocol,
)
from qclone.machines import BHParams, builtin_spec, clone, meridional_spec, synthesize
from qclone.qcore import fidelity, pure_density

import oracles

EQUATORIAL_D = 0.5 - np.sqrt(1.0 / 8.0)


def test_pair_states_and_overlap():
    pair = b92_pair(0.6)
    u = pair.u.amplitudes
    v = pair.v.amplitudes
    assert u[0].real == pytest.approx(np.cos(0.3), abs=1e-15)
    assert v[0].real == pytest.approx(np.sin(0.3), abs=1e-15)
    assert np.vdot(u, v).real == pytest.approx(np.sin(0.6), abs=1e-14)
    assert pair.overlap == pytest.approx(np.sin(0.6) ** 2, abs=1e-15)


def test_pair_domain():
    b92_pair(np.pi / 2)  # included endpoint
    with pytest.raises(ValueError):
        b92_pair(0.0)
    with pytest.raises(ValueError):
        b92_pair(np.pi / 2 + 1e-9)
    with pytest.raises(ValueError):
        b92_pair(-0.3)


def test_povm_completeness_positivity_grid():
    for vt in np.linspace(0.01, np.pi / 2 - 0.01, 50):
        g = povm(b92_pair(vt))
        total = g.g1 + g.g2 + g.g3
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12
        for op in g.elements:
            assert np.linalg.eigvalsh(op)[0] >= -1e-12


def test_povm_conclusive_outcomes_never_lie():
    for vt in np.linspace(0.05, np.pi / 2 - 0.05, 25):
        pair = b92_pair(vt)
        g = povm(pair)
        p_u = outcome_probs(g, pure_density(pair.u))
        p_v = outcome_probs(g, pure_density(pair.v))
        assert abs(p_u[0]) <= 1e-14   # G1 flags v, never fires on u
        assert abs(p_v[1]) <= 1e-14   # G2 flags u, never fires on v
        # conclusive probability on intact states is 1 - sin(vartheta)
        assert p_u[0] + p_u[1] == pytest.approx(1 - np.sin(vt), abs=1e-12)
        assert p_v[0] + p_v[1] == pytest.approx(1 - np.sin(vt), abs=1e-12)


def test_povm_matches_oracle_elements():
    g = povm(b92_pair(0.9))
    o1, o2, o3 = oracles.povm_elements(0.9)
    np.testing.assert_allclose(g.g1, o1, atol=1e-14)
    np.testing.assert_allclose(g.g2, o2, atol=1e-14)
    np.testing.assert_allclose(g.g3, o3, atol=1e-14)


def test_povm_undefined_for_coinciding_states():
    with pytest.raises(ValueError):
        povm(b92_pair(np.pi / 2))


def test_outcome_probs_validation():
    g = povm(b92_pair(0.5))
    with pytest.raises(ValueError):
        outcome_probs(g, pure_density(b92_pair(0.5).u).__class__((2, 2), np.eye(4) / 4))


def test_attack_analysis_matches_bruteforce_oracle():
    for vt in (0.3, 0.7, np.arcsin(np.sqrt(0.5)), 1.4):
        res = attack_analysis(meridional_spec(), vt)
        i_oracle, d_oracle = oracles.eavesdropping_oracle_meridional(vt)
        assert res.mutual_information == pytest.approx(i_oracle, abs=1e-12)
        assert res.discrepancy == pytest.approx(d_oracle, abs=1e-12)


def test_attack_analysis_universal_and_equatorial_discrepancy():
    for vt in (0.2, 0.8, 1.3):
        assert attack_analysis(builtin_spec("universal"), vt).discrepancy == pytest.approx(
            1.0 / 6.0, abs=1e-14)
        assert attack_analysis(builtin_spec("equatorial"), vt).discrepancy == pytest.approx(
            EQUATORIAL_D, abs=1e-14)


def test_attack_analysis_degenerate_endpoint():
    # at vartheta = pi/2 the signals coincide; Eve learns nothing, and the
    # meridional discrepancy peaks at 0.10
    res = attack_analysis(meridional_spec(), np.pi / 2)
    assert res.mutual_information == pytest.approx(0.0, abs=1e-12)
    assert res.discrepancy == pytest.approx(0.10, abs=1e-12)


def test_ideal_machine_gives_full_information_no_disturbance():
    res = attack_analysis(builtin_spec("ideal"), 0.5)
    assert res.discrepancy == pytest.approx(0.0, abs=1e-14)
    # Eve holds a perfect copy, so her information equals Bob's conclusive yield
    pair = b92_pair(0.5)
    assert res.mutual_information == pytest.approx(1 - np.sin(0.5), abs=1e-12)


def test_ideal_outcome_probabilities_are_never_negative():
    # G1 annihilates u and G2 annihilates v, so two entries are 0 in theory
    spec = builtin_spec("ideal")
    for vt in np.concatenate([np.linspace(0.05, np.pi / 2, 40), [1.2]]):
        probs = attack_analysis(spec, vt).outcome_probs
        assert min(min(pair) for pair in probs.values()) >= 0.0, vt


def test_info_curve_shape_and_domain():
    rows = info_curve(meridional_spec(), [0.1, 0.5, 0.9])
    assert rows.shape == (3, 3)
    np.testing.assert_allclose(rows[:, 0], [0.1, 0.5, 0.9])
    with pytest.raises(ValueError):
        info_curve(meridional_spec(), [0.0, 0.5])
    with pytest.raises(ValueError):
        info_curve(meridional_spec(), [0.5, 1.0])
    with pytest.raises(ValueError):
        info_curve(meridional_spec(), [])


def test_info_curve_meridional_discrepancy_window():
    # D(O) = 0.1 + 0.2 (O - sqrt(O)) on the meridional attack
    rows = info_curve(meridional_spec(), np.linspace(0.01, 0.99, 99))
    d = rows[:, 2]
    assert d.min() >= 0.05 - 1e-12
    assert d.max() <= 0.10 + 1e-12
    o = rows[:, 0]
    np.testing.assert_allclose(d, 0.1 + 0.2 * (o - np.sqrt(o)), atol=1e-12)


def test_simulation_deterministic_and_consistent():
    run1 = simulate_protocol(meridional_spec(), 0.7, 20_000, 99)
    run2 = simulate_protocol(meridional_spec(), 0.7, 20_000, 99)
    assert run1.to_text() == run2.to_text()
    assert run1.conclusive + run1.inconclusive == run1.n_trials
    assert run1.errors <= run1.conclusive
    diff = simulate_protocol(meridional_spec(), 0.7, 20_000, 100)
    assert diff.to_text() != run1.to_text()


def test_simulation_no_attack_never_errs():
    run = simulate_protocol(None, 0.5, 50_000, 7)
    assert run.errors == 0
    assert run.empirical_error_rate == 0.0
    # conclusive rate tracks 1 - sin(vartheta)
    expect = 1 - np.sin(0.5)
    se = np.sqrt(expect * (1 - expect) / 50_000)
    assert abs(run.empirical_conclusive_rate - expect) < 4 * se


def test_simulation_golden_serialization():
    text = simulate_protocol(None, 0.6, 1000, 123).to_text()
    assert text == (
        "seed=123\n"
        "n_trials=1000\n"
        "conclusive=402\n"
        "inconclusive=598\n"
        "errors=0\n"
        "conclusive_rate=0.402\n"
        "error_rate=0\n"
    )
    attacked = simulate_protocol(meridional_spec(), 0.6, 1000, 123).to_text()
    assert attacked == (
        "seed=123\n"
        "n_trials=1000\n"
        "conclusive=375\n"
        "inconclusive=625\n"
        "errors=28\n"
        "conclusive_rate=0.375\n"
        "error_rate=0.0746666666667\n"
    )


def test_simulation_domain():
    with pytest.raises(ValueError):
        simulate_protocol(None, 0.5, 0, 1)
    with pytest.raises(ValueError):
        simulate_protocol(None, 2.0, 100, 1)


# --- the batched chain against per-state references ---------------------------

ATTACK_SPECS = [meridional_spec(), builtin_spec("wootters-zurek"), builtin_spec("universal"),
                builtin_spec("equatorial"), builtin_spec("ideal"),
                synthesize(BHParams(0.12, 0.3, 0.25)), synthesize(BHParams(0.3, 0.2, 0.5))]


def _reference_attack(spec, vt):
    """The per-state chain: clone() marginals, outcome_probs, scalar entropy sums."""
    pair = b92_pair(vt)
    g = povm(pair)
    rho_u, rho_v = clone(spec, pair.u).rho_a, clone(spec, pair.v).rho_a
    p_u, p_v = outcome_probs(g, rho_u), outcome_probs(g, rho_v)
    info = 1.0
    for a, b in zip(p_u, p_v):
        q = 0.5 * (a + b)
        if q > 0.0:
            info += sum(0.5 * x / q * np.log2(0.5 * x / q) for x in (a, b) if x > 0.0) * q
    disc = max(1.0 - fidelity(pair.u, rho_u), 1.0 - fidelity(pair.v, rho_v))
    return p_u, p_v, min(max(info, 0.0), 1.0), disc


def test_attack_analysis_matches_per_state_reference():
    for spec in ATTACK_SPECS:
        for vt in (0.05, 0.4, 0.9, 1.5):
            res = attack_analysis(spec, vt)
            p_u, p_v, info, disc = _reference_attack(spec, vt)
            for mu in range(3):
                got = res.outcome_probs[f"G{mu + 1}"]
                assert got == pytest.approx((p_u[mu], p_v[mu]), abs=1e-12)
            assert res.mutual_information == pytest.approx(info, abs=1e-12)
            assert res.discrepancy == pytest.approx(disc, abs=1e-12)


def test_batched_outcome_probabilities_sum_to_one_and_match_outcome_probs():
    rng = np.random.default_rng(92)
    for vt in rng.uniform(0.01, np.pi / 2 - 0.01, 25):
        pair = b92_pair(vt)
        g = povm(pair)
        states = [pure_density(pair.u), pure_density(pair.v)]
        states += [clone(spec, pair.u).rho_a for spec in ATTACK_SPECS]
        mats = np.stack([rho.matrix for rho in states])
        probs = b92._probabilities(np.stack(g.elements), mats)
        assert probs.shape == (len(states), 3)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
        for rho, row in zip(states, probs):
            assert outcome_probs(g, rho) == pytest.approx(tuple(row), abs=1e-15)


def test_info_curve_equals_per_vartheta_attack_analysis():
    overlaps = np.concatenate([np.linspace(0.001, 0.999, 37), [0.5]])
    for spec in ATTACK_SPECS:
        rows = info_curve(spec, overlaps)
        for o, info, disc in rows:
            res = attack_analysis(spec, float(np.arcsin(np.sqrt(o))))
            assert info == pytest.approx(res.mutual_information, abs=1e-12)
            assert disc == pytest.approx(res.discrepancy, abs=1e-12)


def test_info_curve_rejects_nan_overlap():
    with pytest.raises(ValueError):
        info_curve(meridional_spec(), [0.5, float("nan")])


# Tallies recorded before the simulation moved onto the batched kernel.
@pytest.mark.parametrize("machine, vartheta, seed, text", [
    ("meridional", 0.35, 2024,
     "seed=2024\nn_trials=100000\nconclusive=60809\ninconclusive=39191\nerrors=4001\n"
     "conclusive_rate=0.60809\nerror_rate=0.0657961814863\n"),
    ("equatorial", 1.1, 7,
     "seed=7\nn_trials=100000\nconclusive=23163\ninconclusive=76837\nerrors=7798\n"
     "conclusive_rate=0.23163\nerror_rate=0.336657600484\n"),
    ("wootters-zurek", 0.9, 31337,
     "seed=31337\nn_trials=100000\nconclusive=55952\ninconclusive=44048\nerrors=17174\n"
     "conclusive_rate=0.55952\nerror_rate=0.306941664284\n"),
])
def test_simulation_tallies_pinned(machine, vartheta, seed, text):
    assert simulate_protocol(builtin_spec(machine), vartheta, 100_000, seed).to_text() == text
