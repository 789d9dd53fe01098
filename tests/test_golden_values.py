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


def _attack_oracle(machine, overlap):
    """(I, D) of a cloning attack at overlap O = sin^2(vartheta): Eve's and
    Bob's outcome tables from the oracle's POVM on each signal's clone, their
    rounding below 0 clipped (unclipped, the ideal channel's give I = inf),
    and D the larger <s_perp|rho_s|s_perp>."""
    vartheta = np.arcsin(np.sqrt(overlap))
    ops = oracles.povm_elements(vartheta)
    tables, discrepancies = [], []
    for s in oracles.signal_states(vartheta):
        if isinstance(machine, tuple):
            rho = oracles.clone_bruteforce(oracles.apparatus_vectors(*machine), *s)
        else:
            rho = oracles.channel_output(machine, s)
        tables.append(np.clip([np.trace(g @ rho).real for g in ops], 0.0, 1.0))
        s_perp = np.array([-s[1], s[0]])
        discrepancies.append(np.vdot(s_perp, rho @ s_perp).real)
    return oracles.mutual_information_from_tables(*tables), max(discrepancies)


def test_b92_curve_of_the_five_builtins_matches_the_oracles():
    """b92 curve --machines meridional,universal,equatorial,ideal,wootters-zurek
    --overlap-min 0.01 --overlap-max 0.99 --points 101, every I and D cell."""
    with open(GOLDEN_DIR / "b92_curve_five_machines_101.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == (["overlap"] + [f"I_{name}" for name in MACHINES]
                      + [f"D_{name}" for name in MACHINES])
    overlaps = np.linspace(0.01, 0.99, 101)
    assert len(rows) == len(overlaps)
    for row, overlap in zip(rows, overlaps):
        cells = dict(zip(header, row))
        assert abs(float(cells["overlap"]) - overlap) <= _bound(cells["overlap"])
        assert cells["D_ideal"] == "0"
        for name, machine in MACHINES.items():
            for column, want in zip((f"I_{name}", f"D_{name}"), _attack_oracle(machine, overlap)):
                text = cells[column]
                assert abs(float(text) - want) <= _bound(text), (overlap, column, text)
