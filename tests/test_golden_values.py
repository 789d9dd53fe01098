"""Golden files checked by value against tests/oracles.py, not only byte for byte.

A golden the CLI wrote for itself pins whatever the CLI printed, right or
wrong. These tests recompute each cell from the oracles and require it to
agree with the printed text within what 12 significant digits allow: half a
unit in the cell's 12th significant digit, plus ALLOWANCE for the oracle's
own rounding. Nothing here reads numbers from the package.
"""

import csv
from pathlib import Path

import numpy as np

import oracles

GOLDEN_DIR = Path(__file__).parent / "goldens"

# I = 1 - sum_mu q_mu H_mu cancels terms of size up to 1, so the package and
# the oracle each carry a few units of float64 rounding of 1 in I; the worst
# cell of b92_curve_five_machines_101.csv is 6.4e-16 past its half unit. For
# cells of 1e-4 or more this stays far below a unit in the 11th digit; for
# the I cells below 1e-4 (overlaps near 1) it is just under one such unit.
ALLOWANCE = 4 * np.finfo(float).eps

# the five built-ins, from the paper: (zeta, eta, kappa) of the explicit
# machines, and the clone fidelity F of the channels
MACHINES = {
    "meridional": (0.1, 0.4, 0.4),
    "universal": 5.0 / 6.0,
    "equatorial": 0.5 + np.sqrt(1.0 / 8.0),
    "ideal": 1.0,
    "wootters-zurek": (0.0, 0.0, 0.0),
}


def _bound(text):
    """Half a unit in the 12th significant digit of a printed cell, plus
    ALLOWANCE; a printed 0 gets ALLOWANCE alone."""
    value = abs(float(text))
    return ALLOWANCE + (0.5 * 10.0 ** (np.floor(np.log10(value)) - 11) if value else 0.0)


def _read_csv(golden):
    with open(GOLDEN_DIR / golden, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


# golden: (machines, overlap_min, overlap_max, points) of its b92 curve command
CURVES = {
    "b92_curve_five_machines_101.csv": (list(MACHINES), 0.01, 0.99, 101),
    "b92_curve_19.csv": (["meridional", "universal", "equatorial"], 0.05, 0.95, 19),
}


def test_b92_curve_of_the_five_builtins_matches_the_oracles():
    """Every I and D cell of each b92 curve golden in CURVES, against oracles.attack."""
    for golden, (names, overlap_min, overlap_max, points) in CURVES.items():
        header, rows = _read_csv(golden)
        assert header == (["overlap"] + [f"I_{name}" for name in names]
                          + [f"D_{name}" for name in names])
        overlaps = np.linspace(overlap_min, overlap_max, points)
        assert len(rows) == len(overlaps)
        for row, overlap in zip(rows, overlaps):
            cells = dict(zip(header, row))
            assert abs(float(cells["overlap"]) - overlap) <= _bound(cells["overlap"])
            assert cells.get("D_ideal", "0") == "0"
            for name in names:
                info, disc = oracles.attack(MACHINES[name], np.arcsin(np.sqrt(overlap)))[2:]
                for column, want in ((f"I_{name}", info), (f"D_{name}", disc)):
                    text = cells[column]
                    assert abs(float(text) - want) <= _bound(text), (golden, overlap, column, text)


def test_b92_analyze_of_the_meridional_machine_matches_the_oracles():
    """b92 analyze --machine meridional --vartheta 0.7: the overlap, I, D and
    the six outcome probabilities, against oracles.attack."""
    with open(GOLDEN_DIR / "b92_analyze_meridional.txt") as fh:
        records = dict(line.rstrip("\n").split("=", 1) for line in fh)
    assert (records.pop("machine"), records.pop("vartheta")) == ("meridional", "0.7")
    u, v = oracles.signal_states(0.7)
    table_u, table_v, info, disc = oracles.attack(MACHINES["meridional"], 0.7)
    want = {"overlap": (u @ v) ** 2, "mutual_information": info, "discrepancy": disc}
    for mu in range(3):
        want[f"p_G{mu + 1}_u"], want[f"p_G{mu + 1}_v"] = table_u[mu], table_v[mu]
    assert records.keys() == want.keys()
    for key, text in records.items():
        assert abs(float(text) - want[key]) <= _bound(text), (key, text)


# golden: (points, azimuths) of its fidelity --machine meridional command; the
# two-branch table is phi = 0 (F_east) and phi = pi (F_west)
FIDELITY = {
    "fidelity_meridional_181.csv": (181, (0.0, np.pi)),
    "fidelity_meridional_1001.csv": (1001, (0.0, np.pi)),
    "fidelity_meridional_1001_phi1.3.csv": (1001, (1.3,)),
}


def test_fidelity_of_the_meridional_machine_matches_the_oracles():
    """Every theta and F cell of the fidelity goldens: F = <s|rho|s> of the
    brute-force clone of the meridional machine's apparatus vectors."""
    vectors = oracles.apparatus_vectors(*MACHINES["meridional"])
    for golden, (points, phis) in FIDELITY.items():
        header, rows = _read_csv(golden)
        assert header == (["theta", "F_east", "F_west"] if len(phis) == 2 else ["theta", "F"])
        thetas = np.linspace(0.0, np.pi, points)
        assert len(rows) == len(thetas)
        for row, theta in zip(rows, thetas):
            want = [theta]
            for phi in phis:
                s = oracles.qubit_amplitudes(theta, phi)
                want.append(np.vdot(s, oracles.clone_bruteforce(vectors, *s) @ s).real)
            for text, value in zip(row, want, strict=True):
                assert abs(float(text) - value) <= _bound(text), (golden, theta, text)
