"""Golden files checked by value against tests/oracles.py, not only byte for byte.

A golden the CLI wrote for itself pins whatever the CLI printed, right or
wrong. These tests recompute each cell from the oracles and require it to
agree with the printed text within what 12 significant digits allow: half a
unit in the cell's 12th significant digit, plus ALLOWANCE for the oracle's
own rounding. Counts must agree exactly, and a cell the oracle itself
cannot pin that closely gets the wider bound its test states. Nothing here
reads numbers from the package, apart from the spec file whose vector
length the validate test compares with the printed apparatus dimension.
"""

import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles
from qclone.machines import meridional_spec, save_spec

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


def _read_csv(golden, delimiter=","):
    with open(GOLDEN_DIR / golden, newline="") as fh:
        header, *rows = list(csv.reader(fh, delimiter=delimiter))
    return header, rows


def _read_records(golden):
    """key=value lines of a text-format report, as a dict of texts."""
    with open(GOLDEN_DIR / golden) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh)


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
    records = _read_records("b92_analyze_meridional.txt")
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


def test_b92_simulate_of_the_meridional_machine_matches_the_oracles():
    """b92 simulate --machine meridional --vartheta 0.7 --n 1000 --seed 5: the
    tallies equal the trial-by-trial reference run exactly, and the rates
    are their ratios."""
    records = _read_records("b92_simulate_meridional.txt")
    assert records.keys() == {"machine", "vartheta", "seed", "n_trials", "conclusive",
                              "inconclusive", "errors", "conclusive_rate", "error_rate"}
    assert [records[k] for k in ("machine", "vartheta", "seed", "n_trials")] == [
        "meridional", "0.7", "5", "1000"]
    conclusive, errors = oracles.simulate_b92_reference(MACHINES["meridional"], 0.7, 1000, 5)
    assert (int(records["conclusive"]), int(records["inconclusive"]), int(records["errors"])) \
        == (conclusive, 1000 - conclusive, errors)
    for key, want in (("conclusive_rate", conclusive / 1000), ("error_rate", errors / conclusive)):
        text = records[key]
        assert abs(float(text) - want) <= _bound(text), (key, text)


def _schur_diagonal(zeta, eta, kappa):
    """Both diagonal entries of the Schur complement of the (Y0, Y1) block
    zeta * 1 in the Gram matrix of (Q0, Q1, Y0, Y1) (see the block in
    oracles.py): (1 - 2 zeta) - ((kappa/2)^2 + (eta/2)^2) / zeta, for every q.
    The Gram matrix is PSD for some q only if this is >= 0, and at 0 it is
    singular for every q: the triple is on the Gram boundary."""
    return (1 - 2 * zeta) - ((kappa / 2) ** 2 + (eta / 2) ** 2) / zeta


def _box_flags(zeta, eta, kappa):
    """The box bounds zeta >= 0, zeta <= 1/2, eta >= 0 and kappa >= 0, each
    active when the point is within 1e-9 of it."""
    return {"zeta_lower": zeta <= 1e-9, "zeta_upper": abs(zeta - 0.5) <= 1e-9,
            "eta_lower": eta <= 1e-9, "kappa_lower": kappa <= 1e-9}


def test_optimize_equal_fidelity_is_the_paper_optimum():
    """optimize --mode equal-fidelity: exactly (1/10, 2/5, 2/5) with F = 0.9,
    on the Gram boundary and on no box bound."""
    records = _read_records("optimize_equal_fidelity.txt")
    assert records.pop("mode") == "equal-fidelity"
    point = [Fraction(records.pop(k)) for k in ("zeta", "eta", "kappa")]
    assert point == [Fraction(1, 10), Fraction(2, 5), Fraction(2, 5)]
    assert Fraction(records.pop("fidelity")) == Fraction(9, 10)
    assert _schur_diagonal(*point) == 0
    want = {"gram": True, **_box_flags(*point)}
    assert records == {f"boundary_{k}": str(int(on)) for k, on in want.items()}


# The mean fidelity is flat at its maximum: with |f''| = 5.95 there, moving
# the argument by d lowers it by 3 d^2, which stays below one unit of float
# rounding of the mean (about 1e-16) for d up to about 6e-9. So Brent's
# search in average_optimum_scalar can stop anywhere in that window (the
# golden's zeta, eta and kappa sit 2.3e-9, 1.7e-9 and 2.2e-9 off it), and
# eta and kappa move with zeta at rates 0.76 and 0.97. The three argument
# cells are held to ARGMAX_BOUND; the fidelity cell keeps _bound.
ARGMAX_BOUND = 1e-8


def test_optimize_average_matches_the_scalar_oracle():
    """optimize --mode average: the optimum of oracles.average_optimum_scalar,
    on the Gram boundary and on no box bound, and the notes' numbers from
    the quadrature mean of the equal-fidelity point."""
    header, rows = _read_csv("optimize_average.csv")
    (row,) = rows
    cells = dict(zip(header, row, strict=True))
    assert cells.pop("mode") == "average"
    zeta, eta, kappa, best = oracles.average_optimum_scalar()
    for key, want in (("zeta", zeta), ("eta", eta), ("kappa", kappa)):
        assert abs(float(cells[key]) - want) <= ARGMAX_BOUND, (key, cells[key])
    assert abs(float(cells["fidelity"]) - best) <= _bound(cells["fidelity"])
    point = [float(cells.pop(k)) for k in ("zeta", "eta", "kappa")]
    cells.pop("fidelity")
    # each printed cell is off the optimizer's value by up to 5e-13, and the
    # Schur diagonal moves at rates 2.67, 1.33 and 1.70 in zeta, eta and kappa
    assert abs(_schur_diagonal(*point)) <= 1e-11
    want = {"gram": True, **_box_flags(*point)}
    notes = cells.pop("notes")
    assert cells == {f"boundary_{k}": str(int(on)) for k, on in want.items()}
    equal_point = oracles.average_fidelity_quadrature(0.1, 0.4, 0.4)
    match = re.fullmatch(r"free optimum exceeds the equal-fidelity point's average (\S+) "
                         r"by (\S+); maximizing the mean does not keep the three anchor "
                         r"fidelities equal", notes)
    assert match and match.groups() == (f"{equal_point:.6f}", f"{best - equal_point:.6f}")


# The trapezoid rule in average_fidelity_quadrature integrates the sin^2
# term exactly (it is periodic over [0, pi]) but falls short on the kappa/2
# sin term by (h^2 / 12) (f'(0) - f'(pi)) = h^2 / 6 to leading order
# (Euler-Maclaurin), with h = pi / (nodes - 1): up to 2.6e-11 in the mean,
# more than two units in its 11th digit. _scan_mean takes that term back;
# the next one, kappa h^4 / (720 pi), is below 1e-21, so each mean keeps _bound.
QUADRATURE_STEP = np.pi / (100_000 - 1)


def _scan_mean(zeta, eta, kappa):
    """oracles.average_fidelity_quadrature, less its leading trapezoid error."""
    shortfall = (kappa / 2) * QUADRATURE_STEP ** 2 / 6 / np.pi
    return oracles.average_fidelity_quadrature(zeta, eta, kappa) + shortfall


def test_scan_of_the_realizable_region_matches_the_oracles():
    """scan --grid-steps 4, as CSV and as text: every grid cell, the
    realizability flag of gram_feasible_bruteforce, and the mean fidelity of
    each realizable point from average_fidelity_quadrature (nan elsewhere)."""
    axis = np.linspace(0.0, 1.0, 4)
    grid = [g.ravel() for g in np.meshgrid(np.linspace(0.0, 0.5, 4), axis, axis,
                                           indexing="ij")]
    flags = oracles.gram_feasible_bruteforce(*grid)
    for golden, delimiter in (("scan_4.csv", ","), ("scan_4.txt", "\t")):
        header, rows = _read_csv(golden, delimiter)
        assert header == ["zeta", "eta", "kappa", "feasible", "avg_fidelity"]
        assert len(rows) == len(flags)
        for row, *point, feasible in zip(rows, *grid, flags, strict=True):
            *coords, flag, mean = row
            for text, value in zip(coords, point, strict=True):
                assert abs(float(text) - value) <= _bound(text), (golden, point, text)
            assert flag == str(int(feasible)), (golden, point, flag)
            if feasible:
                assert abs(float(mean) - _scan_mean(*point)) <= _bound(mean), (golden, point)
            else:
                assert mean == "nan", (golden, point, mean)


def _isometry_residuals(q0, q1, y0, y1):
    """How far U|i>|A> = |ii>|Qi> + (|01> + |10>)|Yi> is from an isometry,
    from its two images written out in C^2 x C^2 x C^d and their 2x2 matrix
    of inner products m, which must be the identity: each image has norm 1
    (m_ii - 1); the images are orthogonal, m_01 = 2 <Y0|Y1> = 0, of which
    validate reports the overlap |<Y0|Y1>| = |m_01| / 2; and the two clones
    are alike, the |01> weights <Y0|Y0> and <Y1|Y1> of the images agree."""
    zero = np.zeros_like(q0)
    images = (np.concatenate([q0, y0, y0, zero]),   # along |00>, |01>, |10>, |11>
              np.concatenate([zero, y1, y1, q1]))
    m = np.array([[np.vdot(a, b) for b in images] for a in images])
    d = len(q0)
    weight01 = [np.vdot(v[d:2 * d], v[d:2 * d]).real for v in images]
    return {
        "row0_norm": m[0, 0].real - 1,
        "row1_norm": m[1, 1].real - 1,
        "y_orthogonality": abs(m[0, 1]) / 2,
        "y_norm_balance": weight01[0] - weight01[1],
    }


def test_validate_of_the_meridional_machine_matches_the_isometry_conditions(tmp_path):
    """validate on the meridional machine's spec file, and on the same file
    with Y1 replaced by Y0: each residual against the isometry conditions on
    the paper's vectors at (1/10, 2/5, 2/5), the verdict against the printed
    tolerance, and the apparatus dimension against the length of the vectors
    in the spec file validate read. That file is the one thing read from the
    package: save_spec writes it here as it wrote it for the goldens."""
    save_spec(meridional_spec(), tmp_path / "mer.json")
    spec_file = json.loads((tmp_path / "mer.json").read_text(encoding="utf-8"))
    q0, q1, y0, y1 = oracles.apparatus_vectors(*MACHINES["meridional"])
    for golden, vectors in (("validate_passing.txt", (q0, q1, y0, y1)),
                            ("validate_failing.txt", (q0, q1, y0, y0))):
        records = _read_records(golden)
        assert [records.pop(k) for k in ("file", "name", "variant")] == [
            "<spec>", "meridional", "explicit"]
        residuals = _isometry_residuals(*(np.array(v, dtype=complex) for v in vectors))
        assert {int(records.pop("apparatus_dim"))} == {
            len(spec_file[k]) for k in ("Q0", "Q1", "Y0", "Y1")}
        tolerance = records.pop("tolerance")
        assert tolerance == "1e-10"
        passed = all(abs(r) <= float(tolerance) for r in residuals.values())
        assert records.pop("passed") == ("true" if passed else "false")
        assert passed == (golden == "validate_passing.txt")
        assert records.keys() == {f"residual_{k}" for k in residuals}
        for key, want in residuals.items():
            text = records[f"residual_{key}"]
            assert abs(float(text) - want) <= _bound(text), (golden, key, text)
