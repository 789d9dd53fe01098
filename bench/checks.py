"""Independent output checks for the qclone CLI.

Every expected value here is derived from the closed forms of the model
(see PAPER.md), not from qclone's code, and no check compares against a
stored hash of earlier output: a change in the last printed digit that
stays within tolerance passes. Each check returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import io
import math

import numpy as np

UNIVERSAL_F = 5.0 / 6.0
EQUATORIAL_F = 0.5 + math.sqrt(1.0 / 8.0)
MERIDIONAL = (0.1, 0.4, 0.4)

ROW_TOL = 1e-11       # fidelity and scan rows
INFO_TOL = 1e-9       # B92 information chain (logs of small probabilities)
SCAN_MARGIN = 1e-12   # feasibility flags may go either way this close to the boundary


# ---------------------------------------------------------------------------
# parsing

def parse_table(text: str):
    """CSV table -> (header list, float array of shape (rows, cols))."""
    lines = text.split("\n", 1)
    header = lines[0].split(",")
    body = lines[1] if len(lines) > 1 else ""
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.size == 0:
        data = np.empty((0, len(header)))
    return header, data


def parse_records(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# model math

def fidelity_east_west(machine, theta):
    """Main-circle clone fidelity (east, west) for a (zeta, eta, kappa) triple."""
    z, e, k = machine
    st = np.sin(theta)
    base = (1 - z) - 0.5 * (1 - e - 2 * z) * st * st
    return base + 0.5 * k * st, base - 0.5 * k * st


def meridional_fidelity(theta, phi):
    st = np.sin(theta)
    return 0.9 - 0.2 * st * (st - math.cos(phi))


def clone_marginal(machine, theta: float) -> np.ndarray:
    """Single-clone state for the Eastern-meridian input at Bloch angle theta.

    `machine` is a (zeta, eta, kappa) triple, a channel fidelity (float),
    or None for an untouched channel.
    """
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ket = np.array([c, s])
    if machine is None:
        return np.outer(ket, ket)
    if isinstance(machine, float):
        perp = np.array([-s, c])
        return machine * np.outer(ket, ket) + (1 - machine) * np.outer(perp, perp)
    z, e, k = machine
    off = (k + e * math.sin(theta)) / 2
    return np.array([[c * c - z * math.cos(theta), off],
                     [off, s * s + z * math.cos(theta)]])


def b92_figures(machine, vartheta: float) -> dict:
    """POVM outcome table, Eve's information and Bob's discrepancy."""
    u = np.array([math.cos(vartheta / 2), math.sin(vartheta / 2)])
    v = np.array([math.sin(vartheta / 2), math.cos(vartheta / 2)])
    s = math.sin(vartheta)
    eye = np.eye(2)
    g1 = (eye - np.outer(u, u)) / (1 + s)
    g2 = (eye - np.outer(v, v)) / (1 + s)
    ops = (g1, g2, eye - g1 - g2)
    rho_u = clone_marginal(machine, vartheta)
    rho_v = clone_marginal(machine, math.pi - vartheta)
    probs = [(float(np.trace(g @ rho_u)), float(np.trace(g @ rho_v))) for g in ops]
    info = 1.0
    for p_u, p_v in probs:
        q = 0.5 * (p_u + p_v)
        if q <= 0:
            continue
        for p in (p_u, p_v):
            post = 0.5 * p / q
            if post > 0:
                info += q * post * math.log2(post)
    disc = max(1 - u @ rho_u @ u, 1 - v @ rho_v @ v)
    # Bit 0 sends u, bit 1 sends v; G1 decodes as 1, G2 as 0.
    conclusive = 0.5 * (probs[0][0] + probs[1][0] + probs[0][1] + probs[1][1])
    error = 0.5 * (probs[0][0] + probs[1][1])
    return {"probs": probs, "info": info, "disc": float(disc),
            "conclusive": conclusive, "error_given_conclusive": error / conclusive}


def discrepancy_closed_form(machine, overlap):
    """D(O) for the built-in machines and for an explicit (zeta, eta, kappa)."""
    if machine == "meridional":
        return 0.1 + 0.2 * overlap - 0.2 * np.sqrt(overlap)
    if machine == "universal":
        return np.full_like(overlap, 1 / 6)
    if machine == "equatorial":
        return np.full_like(overlap, 0.5 - math.sqrt(1 / 8))
    z, e, k = machine
    return z + 0.5 * (1 - e - 2 * z) * overlap - 0.5 * k * np.sqrt(overlap)


def average_optimum():
    """Closed-form maximizer of (3 - 2z + e + 4k/pi)/4 on the realizable region."""
    c2 = 1 + 16 / math.pi ** 2
    a, b = 16 * c2 + 8, 8 * c2 + 4
    z = (b - math.sqrt(b * b - 4 * a * c2)) / (2 * a)
    r = 2 * math.sqrt(z * (1 - 2 * z)) / math.sqrt(c2)
    e, k = r, r * 4 / math.pi
    return (z, e, k), (3 - 2 * z + e + 4 * k / math.pi) / 4


# ---------------------------------------------------------------------------
# checks: each takes the stdout text and returns a list of problems

def _close(name, got, want, tol):
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = ~(np.abs(got - want) <= tol)
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        return [f"{name}: {int(bad.sum())} values off by more than {tol:g}, "
                f"first at {i}: {got.ravel()[i]!r} vs {want.ravel()[i]!r}"]
    return []


def check_fidelity(text, points, machine, phi=None):
    header, data = parse_table(text)
    theta = np.arange(points) * (math.pi / (points - 1))
    if phi is None:
        want_header = ["theta", "F_east", "F_west"]
        want = np.column_stack([theta, *fidelity_east_west(machine, theta)])
    else:
        want_header = ["theta", "F"]
        want = np.column_stack([theta, meridional_fidelity(theta, phi)])
    if header != want_header:
        return [f"header {header}, expected {want_header}"]
    return _close("fidelity rows", data, want, ROW_TOL)


def check_scan(text, steps):
    header, data = parse_table(text)
    if header != ["zeta", "eta", "kappa", "feasible", "avg_fidelity"]:
        return [f"unexpected scan header {header}"]
    if data.shape != (steps ** 3, 5):
        return [f"scan has {data.shape[0]} rows, expected {steps ** 3}"]
    axis = np.arange(steps) / (steps - 1)
    z, e, k = (g.ravel() for g in np.meshgrid(0.5 * axis, axis, axis, indexing="ij"))
    problems = _close("scan grid", data[:, :3], np.column_stack([z, e, k]), ROW_TOL)
    margin = 4 * z * (1 - 2 * z) - k * k - e * e
    flag = data[:, 3]
    want_flag = (margin >= 0).astype(float)
    wrong = (flag != want_flag) & (np.abs(margin) >= SCAN_MARGIN)
    if wrong.any() or not np.isin(flag, (0.0, 1.0)).all():
        problems.append(f"scan: {int(wrong.sum())} feasibility flags disagree with the Gram condition")
    favg = data[:, 4]
    on = flag == 1.0
    problems += _close("scan avg_fidelity", favg[on], (3 - 2 * z[on] + e[on] + 4 * k[on] / math.pi) / 4,
                       ROW_TOL)
    if not np.isnan(favg[~on]).all():
        problems.append("scan: infeasible rows must carry nan avg_fidelity")
    return problems


def check_b92_curve(text, machines, omin, omax, points, labels):
    header, data = parse_table(text)
    want_header = (["overlap"] + [f"I_{lab}" for lab in labels]
                   + [f"D_{lab}" for lab in labels])
    if header != want_header:
        return [f"header {header}, expected {want_header}"]
    overlap = omin + np.arange(points) * ((omax - omin) / (points - 1))
    problems = _close("overlap column", data[:, 0], overlap, ROW_TOL)
    n = len(machines)
    info_got, disc_got = data[:, 1:1 + n], data[:, 1 + n:]
    if not ((info_got >= 0) & (info_got <= 1)).all():
        problems.append("mutual information outside [0, 1]")
    for j, machine in enumerate(machines):
        model = {"universal": UNIVERSAL_F, "equatorial": EQUATORIAL_F,
                 "meridional": MERIDIONAL}.get(machine, machine)
        info = [b92_figures(model, math.asin(math.sqrt(o)))["info"] for o in overlap]
        problems += _close(f"I_{labels[j]}", info_got[:, j], info, INFO_TOL)
        problems += _close(f"D_{labels[j]}", disc_got[:, j],
                           discrepancy_closed_form(machine, overlap), ROW_TOL)
    return problems


def check_b92_analyze(text, machine, vartheta):
    rec = parse_records(text)
    fig = b92_figures(machine, vartheta)
    got, want = [], []
    for key, value in (("overlap", math.sin(vartheta) ** 2),
                       ("mutual_information", fig["info"]), ("discrepancy", fig["disc"])):
        got.append(float(rec.get(key, "nan")))
        want.append(value)
    for mu in range(3):
        for i, who in enumerate("uv"):
            got.append(float(rec.get(f"p_G{mu + 1}_{who}", "nan")))
            want.append(fig["probs"][mu][i])
    return _close("b92 analyze", got, want, INFO_TOL)


def check_b92_simulate(text, machine, vartheta, n, seed):
    rec = parse_records(text)
    try:
        n_rec, conc, inconc, err = (int(rec[k]) for k in
                                    ("n_trials", "conclusive", "inconclusive", "errors"))
        conc_rate, err_rate = float(rec["conclusive_rate"]), float(rec["error_rate"])
    except (KeyError, ValueError) as exc:
        return [f"b92 simulate: unreadable record ({exc})"]
    problems = []
    if n_rec != n or conc + inconc != n or not 0 <= err <= conc or int(rec.get("seed", -1)) != seed:
        problems.append(f"b92 simulate: tallies {conc}+{inconc} (errors {err}) do not sum to n={n}")
        return problems
    problems += _close("b92 simulate rates", [conc_rate, err_rate],
                       [conc / n, err / conc if conc else 0.0], 1e-11)
    fig = b92_figures(machine, vartheta)
    p, e = fig["conclusive"], fig["error_given_conclusive"]
    # An untouched channel has error rate exactly 0, so 5 SE is 0 there;
    # 1e-12 only absorbs rounding in the analytic rates.
    se_p = math.sqrt(max(p * (1 - p), 0.0) / n)
    se_e = math.sqrt(max(e * (1 - e), 0.0) / conc) if conc else 0.0
    if abs(conc / n - p) > 5 * se_p + 1e-12:
        problems.append(f"b92 simulate: conclusive rate {conc / n} is not within 5 SE of {p}")
    if conc and abs(err / conc - e) > 5 * se_e + 1e-12:
        problems.append(f"b92 simulate: error rate {err / conc} is not within 5 SE of {e}")
    return problems


def check_optimize(text, mode):
    rec = parse_records(text)
    try:
        got = [float(rec[k]) for k in ("zeta", "eta", "kappa", "fidelity")]
    except (KeyError, ValueError) as exc:
        return [f"optimize: unreadable record ({exc})"]
    if rec.get("mode") != mode:
        return [f"optimize: mode {rec.get('mode')!r}, expected {mode!r}"]
    if mode == "equal-fidelity":
        return (_close("equal-fidelity optimum", got[:3], MERIDIONAL, 1e-6)
                + _close("equal-fidelity value", got[3], 0.9, 1e-6))
    params, objective = average_optimum()
    return (_close("average optimum", got[:3], params, 1e-6)
            + _close("average objective", got[3], objective, 1e-8))


def check_validate(text, apparatus_dim):
    rec = parse_records(text)
    problems = []
    if rec.get("passed") != "true" or rec.get("variant") != "explicit":
        problems.append(f"validate: passed={rec.get('passed')} variant={rec.get('variant')}")
    if rec.get("apparatus_dim") != str(apparatus_dim):
        problems.append(f"validate: apparatus_dim {rec.get('apparatus_dim')}, expected {apparatus_dim}")
    residuals = [float(v) for k, v in rec.items() if k.startswith("residual_")]
    if not residuals or max(abs(r) for r in residuals) > 1e-10:
        problems.append(f"validate: residuals {residuals} exceed 1e-10")
    return problems


def check_empty(text):
    return [] if text == "" else [f"expected no stdout, got {len(text)} characters"]
