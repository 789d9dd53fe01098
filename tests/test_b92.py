import tracemalloc

import numpy as np
import pytest

from qclone import b92
from qclone.b92 import attack_analysis, info_curve, simulate_protocol
from qclone.machines import BHParams, CloningSpec, builtin_spec, meridional_spec, synthesize

import oracles

EQUATORIAL_D = 0.5 - np.sqrt(1.0 / 8.0)


def _povm(vt):
    """Bob's POVM elements (3, 2, 2) at vartheta, from the package's signals."""
    return b92._povm_arrays(b92._signals(vt))


def test_pair_states_and_overlap():
    u, v = b92._signals(0.6)
    assert u[0].real == pytest.approx(np.cos(0.3), abs=1e-15)
    assert v[0].real == pytest.approx(np.sin(0.3), abs=1e-15)
    assert np.vdot(u, v).real == pytest.approx(np.sin(0.6), abs=1e-14)
    np.testing.assert_allclose(np.stack([u, v]), oracles.signal_states(0.6), atol=1e-15)
    overlap = attack_analysis(builtin_spec("ideal"), 0.6).overlap
    assert overlap == pytest.approx(np.sin(0.6) ** 2, abs=1e-15)


def test_pair_domain():
    ideal = builtin_spec("ideal")
    attack_analysis(ideal, np.pi / 2)  # included endpoint
    for vt in (0.0, np.pi / 2 + 1e-9, -0.3):
        with pytest.raises(ValueError, match=r"vartheta must lie in \(0, pi/2\]"):
            attack_analysis(ideal, vt)


def test_povm_conclusive_outcomes_never_lie():
    for vt in np.linspace(0.05, np.pi / 2 - 0.05, 25):
        u, v = oracles.signal_states(vt)
        p_u, p_v = b92._probabilities(_povm(vt), np.stack([np.outer(u, u.conj()),
                                                            np.outer(v, v.conj())]))
        assert abs(p_u[0]) <= 1e-14   # G1 flags v, never fires on u
        assert abs(p_v[1]) <= 1e-14   # G2 flags u, never fires on v
        # conclusive probability on intact states is 1 - sin(vartheta)
        assert p_u[0] + p_u[1] == pytest.approx(1 - np.sin(vt), abs=1e-12)
        assert p_v[0] + p_v[1] == pytest.approx(1 - np.sin(vt), abs=1e-12)


def test_povm_matches_oracle_elements():
    np.testing.assert_allclose(_povm(0.9), np.stack(oracles.povm_elements(0.9)), atol=1e-14)


def test_outcome_probs_validation():
    g = _povm(0.5)
    with pytest.raises(ValueError, match="sum to 2"):
        b92._probabilities(g, np.eye(2))  # trace 2
    with pytest.raises(ValueError, match="imaginary"):
        b92._probabilities(g, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        b92._probabilities(g, np.eye(4) / 4)  # a two-qubit state does not broadcast


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


@pytest.mark.parametrize("machine", ["meridional", "wootters-zurek", "universal",
                                     "equatorial", "ideal"])
def test_information_is_exactly_zero_when_signals_coincide(machine):
    # at vartheta = pi/2 Eve's outcome does not depend on the bit sent, so I is
    # exactly 0, not the information chain's rounding
    assert attack_analysis(builtin_spec(machine), np.pi / 2).mutual_information == 0.0


def test_ideal_discrepancy_is_exactly_zero():
    # the overlaps of the five-machine CLI golden; 1 - F left 43 of them at 1e-16
    rows = info_curve(builtin_spec("ideal"), np.linspace(0.01, 0.99, 101))
    assert np.count_nonzero(rows[:, 2]) == 0
    assert attack_analysis(builtin_spec("ideal"), 0.7).discrepancy == 0.0


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
    assert run1 == run2
    assert run1.conclusive + run1.inconclusive == run1.n_trials
    assert run1.errors <= run1.conclusive
    diff = simulate_protocol(meridional_spec(), 0.7, 20_000, 100)
    assert diff != run1


def test_simulation_no_attack_never_errs():
    run = simulate_protocol(builtin_spec("ideal"), 0.5, 50_000, 7)
    assert run.errors == 0
    assert run.error_rate == 0.0
    # conclusive rate tracks 1 - sin(vartheta)
    expect = 1 - np.sin(0.5)
    se = np.sqrt(expect * (1 - expect) / 50_000)
    assert abs(run.conclusive_rate - expect) < 4 * se


def test_protocol_run_rates_derive_from_tallies():
    """conclusive_rate is conclusive outcomes per trial and error_rate errors
    per conclusive outcome, or 0 when no trial is conclusive: the ideal
    channel at vartheta = pi/2, where u = v and G1 and G2 never fire."""
    for run in (simulate_protocol(meridional_spec(), 0.7, 1000, 5),
                simulate_protocol(builtin_spec("equatorial"), 1.1, 997, 7)):
        assert 0 < run.errors < run.conclusive < run.n_trials
        assert run.conclusive_rate == run.conclusive / run.n_trials
        assert run.error_rate == run.errors / run.conclusive
    blind = simulate_protocol(builtin_spec("ideal"), np.pi / 2, 500, 3)
    assert (blind.conclusive, blind.inconclusive, blind.errors) == (0, 500, 0)
    assert (blind.conclusive_rate, blind.error_rate) == (0.0, 0.0)


def test_simulation_domain():
    ideal = builtin_spec("ideal")
    with pytest.raises(ValueError):
        simulate_protocol(ideal, 0.5, 0, 1)
    with pytest.raises(ValueError):
        simulate_protocol(ideal, 2.0, 100, 1)
    # the RNG reduces seeds modulo 2**64, so these would alias 2**64 - 1 and 0
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            simulate_protocol(ideal, 0.5, 100, seed)
    # a count or seed that is not an integer is refused, not truncated
    # nor is a count of 2**64 or more, past the RNG's last trial index
    for n, seed in ((2.7, 1), (True, 1), (100, 1.9), (100, False), (2 ** 64, 1)):
        with pytest.raises(ValueError, match="integer"):
            simulate_protocol(ideal, 0.7, n, seed)
    with pytest.raises(ValueError, match="vartheta must be a real number"):
        attack_analysis(ideal, True)
    run = simulate_protocol(ideal, np.float32(0.7), np.int64(10), np.uint64(2 ** 64 - 1))
    assert (run.n_trials, run.seed) == (10, 2 ** 64 - 1)


@pytest.mark.parametrize("machine", ["ideal", "meridional", "equatorial"])
def test_simulation_is_partition_invariant(monkeypatch, machine):
    spec = builtin_spec(machine)
    n = 2000
    runs = []
    for chunk in (1, 7, 4096, n):
        monkeypatch.setattr(b92, "CHUNK_TRIALS", chunk)
        runs.append(simulate_protocol(spec, 0.9, n, 2718))
    assert all(run == runs[0] for run in runs)
    # ragged last chunks on both sides of a range longer than the default chunk
    big = simulate_protocol(spec, 0.9, 100_003, 2718)
    monkeypatch.undo()
    assert big == simulate_protocol(spec, 0.9, 100_003, 2718)


def test_simulation_memory_does_not_grow_with_trials():
    # unchunked, 10**6 trials held about 58 MB of arrays at once
    tracemalloc.start()
    try:
        simulate_protocol(meridional_spec(), 0.7, 1_000_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def _rotated_machine():
    """A synthesized machine turned by a complex unitary: complex entries."""
    base = synthesize(BHParams(0.12, 0.3, 0.25))
    q0, q1, y0, y1 = oracles.rotated((base.q0, base.q1, base.y0, base.y1), 8)
    return CloningSpec(variant="explicit", name="rotated", apparatus_dim=base.apparatus_dim,
                       q0=q0, q1=q1, y0=y0, y1=y1)


ORACLE_SPECS = {"meridional": meridional_spec(), "equatorial": builtin_spec("equatorial"),
                "ideal": builtin_spec("ideal"), "rotated": _rotated_machine()}


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
@pytest.mark.parametrize("machine", list(ORACLE_SPECS))
def test_simulation_matches_per_trial_oracle(monkeypatch, machine, seed):
    spec, vt, n = ORACLE_SPECS[machine], 0.9, 3000
    want = oracles.simulate_b92_reference(spec, vt, n, seed)
    assert want[0] > 0 and (want[1] > 0) == (machine != "ideal")
    for chunk in (7, 4096):
        monkeypatch.setattr(b92, "CHUNK_TRIALS", chunk)
        run = simulate_protocol(spec, vt, n, seed)
        assert (run.conclusive, run.errors) == want


# --- the batched chain against per-state references ---------------------------

ATTACK_SPECS = [meridional_spec(), builtin_spec("wootters-zurek"), builtin_spec("universal"),
                builtin_spec("equatorial"), builtin_spec("ideal"),
                synthesize(BHParams(0.12, 0.3, 0.25)), synthesize(BHParams(0.3, 0.2, 0.5))]


def test_attack_analysis_matches_per_state_reference():
    """The meridional machine's reference is built from the paper's triple,
    the others' from their own vectors."""
    for spec in ATTACK_SPECS:
        reference = (0.1, 0.4, 0.4) if spec.name == "meridional" else spec
        for vt in (0.05, 0.3, 0.4, 0.7, np.arcsin(np.sqrt(0.5)), 0.9, 1.4, 1.5):
            res = attack_analysis(spec, vt)
            p_u, p_v, info, disc = oracles.attack(reference, vt)
            for mu in range(3):
                got = res.outcome_probs[f"G{mu + 1}"]
                assert got == pytest.approx((p_u[mu], p_v[mu]), abs=1e-12)
            assert res.mutual_information == pytest.approx(info, abs=1e-12)
            assert res.discrepancy == pytest.approx(disc, abs=1e-12)


def test_batched_outcome_probabilities_sum_to_one_and_match_oracle():
    rng = np.random.default_rng(92)
    for vt in rng.uniform(0.01, np.pi / 2 - 0.01, 25):
        u, v = oracles.signal_states(vt)
        states = [np.outer(u, u.conj()), np.outer(v, v.conj())]
        states += [oracles.machine_output(spec, u) for spec in ATTACK_SPECS]
        mats = np.stack(states)
        probs = b92._probabilities(_povm(vt), mats)
        assert probs.shape == (len(states), 3)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12
        for rho, row in zip(states, probs):
            assert np.max(np.abs(oracles.outcome_table(vt, rho) - row)) <= 1e-15


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

