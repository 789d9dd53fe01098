"""The benchmark's workloads: seeded inputs and the CLI invocations of one pass.

A seed fixes every input the program receives: the azimuth phi, the B92
half-angle vartheta, the simulation seed, the overlap range and one
realizable (zeta, eta, kappa) machine, whose spec file the benchmark writes
itself. Sizes do not depend on the seed, so passes of different seeds do the
same amount of work.

Why each workload exists (see README.md for the layer table):

meridian-curves  clone-heavy: thousands of `clone` calls, each building
                 several validated DensityMatrix objects. Where a batched
                 Gram kernel shows; the bypass case for table rendering.
region-scan      no clone work: one large `scan` table, dominated by per-cell
                 formatting and output I/O. Where streaming, column-typed
                 rendering and the scan memory bound show.
b92-session      one analyst session of short and medium invocations:
                 process start-up, the RNG, the optimizer, the B92 chain and
                 the spec loader, including two error paths.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("meridian-curves", "region-scan", "b92-session")

# Sizes per scale; "tiny" is for the self-test only.
SIZES = {
    "full": {"curve_points": 1501, "spec_points": 801, "grid_steps": 56,
             "b92_points": 200, "trials": 2_000_000},
    "tiny": {"curve_points": 31, "spec_points": 21, "grid_steps": 6,
             "b92_points": 9, "trials": 20_000},
}

TABLE = "table"
RECORDS = "records"


@dataclass
class Invocation:
    """One `python -m qclone` run with its expected outcome."""

    name: str
    argv: list
    check: Callable[[str], list]
    expect_exit: int = 0
    kind: str = RECORDS
    trials: int = 0


@dataclass
class Inputs:
    seed: int
    phi: float
    vartheta: float
    sim_seed: int
    overlap_min: float
    overlap_max: float
    machine: tuple            # realizable (zeta, eta, kappa)

    @property
    def spec_name(self) -> str:
        return f"bench-seed-{self.seed}"


def make_inputs(seed: int) -> Inputs:
    rnd = random.Random(seed)
    zeta = rnd.uniform(0.05, 0.4)
    radius = rnd.uniform(0.3, 0.95) * 2 * math.sqrt(zeta * (1 - 2 * zeta))
    angle = rnd.uniform(0.1, 1.4)
    return Inputs(
        seed=seed,
        phi=rnd.uniform(0.0, 2 * math.pi),
        vartheta=rnd.uniform(0.2, 1.4),
        sim_seed=rnd.randrange(1, 2 ** 31),
        overlap_min=rnd.uniform(0.02, 0.2),
        overlap_max=rnd.uniform(0.6, 0.95),
        machine=(zeta, radius * math.cos(angle), radius * math.sin(angle)),
    )


def spec_document(name: str, machine) -> dict:
    """Explicit machine realizing (zeta, eta, kappa) in a 3-dim apparatus.

    Y0 = sqrt(z) e1 and Y1 = sqrt(z) e2 are orthogonal with norm z; Q0 and Q1
    carry eta/2 and kappa/2 overlaps with them and a shared e0 component r
    that completes the norm 1 - 2z. r^2 >= 0 is exactly the realizability
    condition kappa^2 + eta^2 <= 4 z (1 - 2 z).
    """
    z, e, k = machine
    s = math.sqrt(z)
    r = math.sqrt(1 - 2 * z - (k * k + e * e) / (4 * z))
    vec = lambda *xs: [[x, 0.0] for x in xs]  # noqa: E731
    return {"name": name, "variant": "explicit", "apparatus_dim": 3,
            "Q0": vec(r, k / (2 * s), e / (2 * s)),
            "Q1": vec(r, e / (2 * s), k / (2 * s)),
            "Y0": vec(0.0, s, 0.0),
            "Y1": vec(0.0, 0.0, s)}


def write_specs(inputs: Inputs, directory: Path) -> tuple:
    """Write the seeded machine and the malformed spec; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = directory / f"{inputs.spec_name}.json"
    spec.write_text(json.dumps(spec_document(inputs.spec_name, inputs.machine), indent=2) + "\n")
    malformed = directory / "malformed-fidelity-string.json"
    malformed.write_text(json.dumps({"name": "malformed", "variant": "channel",
                                     "fidelity": "0.9"}) + "\n")
    return str(spec), str(malformed)


def build(workload: str, inputs: Inputs, directory: Path, scale: str = "full") -> list:
    """The invocation list of one pass of `workload`."""
    size = SIZES[scale]
    spec, malformed = write_specs(inputs, directory)
    if workload == "meridian-curves":
        n, m = size["curve_points"], size["spec_points"]
        return [
            Invocation("fidelity-meridional",
                       ["fidelity", "--machine", "meridional", "--points", str(n)],
                       lambda out: checks.check_fidelity(out, n, checks.MERIDIONAL), kind=TABLE),
            Invocation("fidelity-meridional-phi",
                       ["fidelity", "--machine", "meridional", "--points", str(n),
                        "--phi", repr(inputs.phi)],
                       lambda out: checks.check_fidelity(out, n, checks.MERIDIONAL, inputs.phi),
                       kind=TABLE),
            Invocation("fidelity-spec",
                       ["fidelity", "--machine", spec, "--points", str(m)],
                       lambda out: checks.check_fidelity(out, m, inputs.machine), kind=TABLE),
        ]
    if workload == "region-scan":
        g = size["grid_steps"]
        return [Invocation("scan", ["scan", "--grid-steps", str(g)],
                           lambda out: checks.check_scan(out, g), kind=TABLE)]
    if workload == "b92-session":
        vt, p, trials = inputs.vartheta, size["b92_points"], size["trials"]
        curve_machines = ["meridional", "universal", "equatorial", inputs.machine]
        labels = ["meridional", "universal", "equatorial", inputs.spec_name]
        omin, omax = inputs.overlap_min, inputs.overlap_max
        return [
            Invocation("b92-curve",
                       ["b92", "curve", "--machines", f"meridional,universal,equatorial,{spec}",
                        "--overlap-min", repr(omin), "--overlap-max", repr(omax),
                        "--points", str(p)],
                       lambda out: checks.check_b92_curve(out, curve_machines, omin, omax, p, labels),
                       kind=TABLE),
            Invocation("b92-simulate-meridional",
                       ["b92", "simulate", "--machine", "meridional", "--vartheta", repr(vt),
                        "--n", str(trials), "--seed", str(inputs.sim_seed)],
                       lambda out: checks.check_b92_simulate(out, checks.MERIDIONAL, vt, trials,
                                                             inputs.sim_seed),
                       trials=trials),
            Invocation("b92-simulate-none",
                       ["b92", "simulate", "--machine", "none", "--vartheta", repr(vt),
                        "--n", str(trials), "--seed", str(inputs.sim_seed)],
                       lambda out: checks.check_b92_simulate(out, None, vt, trials, inputs.sim_seed),
                       trials=trials),
            Invocation("b92-analyze",
                       ["b92", "analyze", "--machine", spec, "--vartheta", repr(vt)],
                       lambda out: checks.check_b92_analyze(out, inputs.machine, vt)),
            Invocation("optimize-equal-fidelity", ["optimize", "--mode", "equal-fidelity"],
                       lambda out: checks.check_optimize(out, "equal-fidelity")),
            Invocation("optimize-average", ["optimize", "--mode", "average"],
                       lambda out: checks.check_optimize(out, "average")),
            Invocation("validate", ["validate", "--spec", spec],
                       lambda out: checks.check_validate(out, 3)),
            Invocation("error-points-1", ["fidelity", "--machine", "meridional", "--points", "1"],
                       checks.check_empty, expect_exit=2),
            Invocation("error-malformed-spec", ["validate", "--spec", malformed],
                       checks.check_empty, expect_exit=1),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def judge(inv: Invocation, exit_code: int, stdout: str, stderr: str) -> dict:
    """Outcome of one invocation: failed (any expectation missed) and the
    subset of failures where the printed output itself was wrong."""
    problems = []
    if exit_code != inv.expect_exit:
        problems.append(f"exit code {exit_code}, expected {inv.expect_exit}")
    err_lines = stderr.splitlines()
    if inv.expect_exit == 0:
        if err_lines:
            problems.append(f"unexpected stderr ({len(err_lines)} lines)")
    elif len(err_lines) != 1 or not err_lines[0].startswith("error: "):
        problems.append(f"stderr must be one 'error:' line, got {len(err_lines)} lines")
    try:
        output_problems = inv.check(stdout)
    except (ValueError, IndexError, KeyError) as exc:
        output_problems = [f"unparseable output: {exc}"]
    problems += output_problems
    rows = stdout.count("\n") - 1 if inv.kind == TABLE and exit_code == 0 else 0
    return {"failed": bool(problems), "wrong_output": bool(output_problems),
            "problems": problems, "rows": max(rows, 0)}
