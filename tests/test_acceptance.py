"""Acceptance suite: ten end-to-end checks at their stated tolerances.

Each test prints a single pass/fail line (visible with `pytest -s`, or by
running this file directly) and then asserts, so a red run still shows
which criteria survived.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from qclone import b92
from qclone.b92 import attack_analysis, info_curve, simulate_protocol
from qclone.machines import (
    BHParams,
    builtin_spec,
    feasible,
    fidelity_closed_form,
    meridional_spec,
    reduced_output_closed_form,
    synthesize,
    validate_unitarity,
)
from qclone.optimizer import (
    average_fidelity,
    optimize_equal_fidelity,
)

import oracles

GOLDEN_DIR = Path(__file__).parent / "goldens"

# mutual-information values at O = 0.5, frozen from an independent
# implementation (see oracles.py) and regression-tested at 1e-10
PINNED_I_MERIDIONAL = 0.14853254600910315
PINNED_I_EQUATORIAL = 0.0863645448324315
PINNED_I_UNIVERSAL = 0.073700476783568503

_RESULTS = []


def _report(num, label, ok):
    line = f"acceptance criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}"
    print(line)
    _RESULTS.append(line)
    assert ok, line


def test_criterion_01_equal_fidelity_optimum():
    res = optimize_equal_fidelity()
    ok = (abs(res.params.zeta - 0.1) <= 1e-6
          and abs(res.params.eta - 0.4) <= 1e-6
          and abs(res.params.kappa - 0.4) <= 1e-6
          and abs(res.objective - 0.90) <= 1e-9)
    _report(1, "equal-fidelity optimizer lands on (0.1, 0.4, 0.4) with F = 0.90", ok)


def test_criterion_02_average_fidelity_closed_form():
    val = average_fidelity(BHParams(0.1, 0.4, 0.4))
    ok = abs(val - (3 - 0.2 + 0.4 + 1.6 / np.pi) / 4) <= 1e-14
    ok = ok and round(val, 3) == 0.927

    rng = np.random.default_rng(202)
    done = 0
    while done < 100:
        p = BHParams(rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 1))
        if not feasible(p):
            continue
        done += 1
        if abs(oracles.average_fidelity_quadrature(p.zeta, p.eta, p.kappa)
               - average_fidelity(p)) > 1e-8:
            ok = False
            break
    _report(2, "mean fidelity closed form equals quadrature on 100 feasible triples", ok)


def test_criterion_03_meridian_fidelity_curve():
    p = BHParams(0.1, 0.4, 0.4)
    thetas = np.linspace(0.0, np.pi, 181)
    east = np.array([fidelity_closed_form(p, t, 0.0) for t in thetas])
    west = np.array([fidelity_closed_form(p, t, np.pi) for t in thetas])
    step = thetas[1] - thetas[0]

    ok = abs(east.min() - 0.90) <= 1e-9 and abs(east.max() - 0.95) <= 1e-9
    anchors = np.array([0.0, np.pi / 2, np.pi])
    for t in thetas[np.abs(east - east.min()) <= 1e-9]:
        ok = ok and np.min(np.abs(anchors - t)) <= step + 1e-12
    peaks = np.array([np.pi / 6, 5 * np.pi / 6])   # sin(theta) = 1/2
    for t in thetas[np.abs(east - east.max()) <= 1e-9]:
        ok = ok and np.min(np.abs(peaks - t)) <= step + 1e-12
    ok = ok and abs(west[90] - 0.5) <= 1e-12
    _report(3, "Eastern branch spans [0.90, 0.95] and Western drops to 0.5", ok)


def test_criterion_04_simulation_equals_closed_forms():
    rng = np.random.default_rng(404)
    ok = True
    done = 0
    while done < 200:
        p = BHParams(rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 1))
        if not feasible(p):
            continue
        done += 1
        theta = rng.uniform(0.0, np.pi)
        phi = 0.0 if rng.uniform() < 0.5 else np.pi
        got = oracles.machine_output(synthesize(p), oracles.qubit_amplitudes(theta, phi))
        want = reduced_output_closed_form(p, theta, phi)
        if np.max(np.abs(got - want)) > 1e-10:
            ok = False
            break
    spec = meridional_spec()
    for _ in range(200):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(0.0, 2 * np.pi)
        s = oracles.qubit_amplitudes(theta, phi)
        f_sim = np.vdot(s, oracles.machine_output(spec, s) @ s).real
        if abs(f_sim - fidelity_closed_form(BHParams(0.1, 0.4, 0.4), theta, phi)) > 1e-10:
            ok = False
            break
    _report(4, "synthesized-machine simulation matches the closed forms", ok)


def test_criterion_05_unitarity_and_feasibility_oracle():
    residuals = validate_unitarity(meridional_spec())
    ok = all(abs(r) <= 1e-12 for r in residuals.values())

    rng = np.random.default_rng(20260814)
    n = 1_000_000
    zs = rng.uniform(0.0, 0.5, n)
    es = rng.uniform(0.0, 1.0, n)
    ks = rng.uniform(0.0, 1.0, n)
    oracle = oracles.gram_feasible_bruteforce(zs, es, ks)
    # vectorized closed form (identical to machines.feasible on the box)
    closed = (ks * ks + es * es) <= 4.0 * zs * (1.0 - 2.0 * zs)
    margin = 4.0 * zs * (1.0 - 2.0 * zs) - (ks * ks + es * es)
    compare = np.abs(margin) > 1e-9
    disagreements = int(np.count_nonzero(oracle[compare] != closed[compare]))
    ok = ok and disagreements == 0
    # spot check the scalar API agrees with the vectorized expression
    idx = rng.integers(0, n, 200)
    ok = ok and all(feasible(BHParams(zs[i], es[i], ks[i])) == bool(closed[i]) for i in idx)
    _report(5, f"Gram-eigenvalue oracle vs closed feasibility on 10^6 samples "
               f"({disagreements} disagreements)", ok)


def test_criterion_06_b92_discrepancies():
    ok = abs(attack_analysis(builtin_spec("universal"), 0.7).discrepancy - 1 / 6) <= 1e-12
    ok = ok and abs(attack_analysis(builtin_spec("equatorial"), 0.7).discrepancy
                    - (0.5 - np.sqrt(1 / 8))) <= 1e-12
    spec = meridional_spec()
    grid = np.concatenate([np.linspace(1e-6, np.pi / 2, 1001), [np.pi / 6, np.pi / 2]])
    d = np.array([attack_analysis(spec, vt).discrepancy for vt in grid])
    ok = ok and abs(d.min() - 0.05) <= 1e-9 and abs(d.max() - 0.10) <= 1e-9
    _report(6, "attack discrepancies: 1/6, 1/2 - sqrt(1/8), and [0.05, 0.10]", ok)


def test_criterion_07_information_curve_ordering():
    overlaps = np.linspace(0.05, 0.95, 19)
    mer = info_curve(meridional_spec(), overlaps)
    uni = info_curve(builtin_spec("universal"), overlaps)
    eq = info_curve(builtin_spec("equatorial"), overlaps)
    i_mer, i_uni, i_eq = mer[:, 1], uni[:, 1], eq[:, 1]
    ok = bool(np.all(i_mer > i_eq) and np.all(i_eq > i_uni))
    for curve in (i_mer, i_uni, i_eq):
        ok = ok and bool(np.all((curve >= 0.0) & (curve <= 1.0)))
        ok = ok and curve[-1] < curve[0]
    ok = ok and abs(info_curve(meridional_spec(), [0.5])[0, 1] - PINNED_I_MERIDIONAL) <= 1e-10
    ok = ok and abs(info_curve(builtin_spec("equatorial"), [0.5])[0, 1] - PINNED_I_EQUATORIAL) <= 1e-10
    ok = ok and abs(info_curve(builtin_spec("universal"), [0.5])[0, 1] - PINNED_I_UNIVERSAL) <= 1e-10
    _report(7, "information curves ordered meridional > equatorial > universal", ok)


def test_criterion_08_povm_suite():
    ok = True
    for vt in np.linspace(1e-3, np.pi / 2 - 1e-3, 500):
        g = b92._povm_arrays(b92._signals(vt))
        ok = ok and np.max(np.abs(g - np.stack(oracles.povm_elements(vt)))) <= 1e-12
        ok = ok and np.max(np.abs(g[0] + g[1] + g[2] - np.eye(2))) <= 1e-12
        ok = ok and all(np.linalg.eigvalsh(op)[0] >= -1e-12 for op in g)
        u, v = oracles.signal_states(vt)
        p_u, p_v = b92._probabilities(g, np.stack([np.outer(u, u.conj()),
                                                   np.outer(v, v.conj())]))
        ok = ok and abs(p_u[0]) <= 1e-12 and abs(p_v[1]) <= 1e-12
        ok = ok and abs(p_u[0] + p_u[1] - (1 - np.sin(vt))) <= 1e-12
        ok = ok and abs(p_v[0] + p_v[1] - (1 - np.sin(vt))) <= 1e-12
        if not ok:
            break
    _report(8, "POVM completeness, positivity, and conclusive-error invariants", ok)


def test_criterion_09_monte_carlo_calibration():
    spec = meridional_spec()
    vt = 0.7
    n = 100_000
    ana = attack_analysis(spec, vt)
    (p1u, p1v), (p2u, p2v), _ = (ana.outcome_probs[k] for k in ("G1", "G2", "G3"))
    pc = 0.5 * (p1u + p2u + p1v + p2v)
    pe = (0.5 * p1u + 0.5 * p2v) / pc       # conclusive outcomes that decode wrongly
    se_c = np.sqrt(pc * (1 - pc) / n)
    se_e = np.sqrt(pe * (1 - pe) / (n * pc))

    start = time.time()
    within = 0
    for seed in range(100):
        run = simulate_protocol(spec, vt, n, seed)
        if (abs(run.conclusive_rate - pc) <= 3 * se_c
                and abs(run.error_rate - pe) <= 3 * se_e):
            within += 1
    elapsed = time.time() - start
    repeat = simulate_protocol(spec, vt, n, 11)
    ok = (within >= 99 and elapsed <= 60.0
          and repeat == simulate_protocol(spec, vt, n, 11))
    _report(9, f"Monte Carlo calibrated ({within}/100 seeds within 3 SE, "
               f"{elapsed:.1f}s)", ok)


def test_criterion_10_cli_goldens():
    cases = [
        (["fidelity", "--machine", "meridional", "--points", "181"],
         "fidelity_meridional_181.csv"),
        (["optimize", "--mode", "equal-fidelity"],
         "optimize_equal_fidelity.txt"),
        (["b92", "curve", "--machines", "meridional,universal,equatorial",
          "--overlap-min", "0.05", "--overlap-max", "0.95", "--points", "19"],
         "b92_curve_19.csv"),
    ]
    ok = True
    for argv, golden in cases:
        res = subprocess.run([sys.executable, "-m", "qclone", *argv],
                             capture_output=True)
        ok = ok and res.returncode == 0
        ok = ok and res.stdout == (GOLDEN_DIR / golden).read_bytes()
    _report(10, "three CLI invocations reproduce committed goldens byte for byte", ok)


if __name__ == "__main__":
    names = [n for n in sorted(globals()) if n.startswith("test_criterion")]
    failures = 0
    for name in names:
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
