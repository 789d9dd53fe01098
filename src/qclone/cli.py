"""Command-line front end.

Subcommands
-----------
validate    check a machine-spec file against the unitarity conditions
fidelity    tabulate clone fidelity over theta in [0, pi] (both meridian
            branches, or one curve at a fixed azimuth with --phi)
optimize    run the equal-fidelity or average-fidelity optimizer
scan        tabulate realizability and average fidelity on a parameter grid
b92         eavesdropping analysis: curve | analyze | simulate

Each subcommand accepts --out PATH (default stdout), --format csv|text and
--degrees (interpret angle flags as degrees). Machine arguments take a
built-in name (meridional, wootters-zurek, universal, equatorial, ideal)
or a spec-file path; `b92 simulate` also accepts `none` for an untouched
channel. Exit status: 0 success, 1 unreadable or invalid machine file
(and `validate` on a failing spec), 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import b92, machines, optimizer
from .qcore import bloch_amplitudes, fidelities
from .qcore import fidelity  # noqa: F401  (bench/tracer.py wraps cli.fidelity)
from .textio import render_records_csv, render_records_text, render_table

_TABLE_COMMANDS = {"fidelity", "scan", "curve"}


class SpecFileError(Exception):
    """A machine file could not be read, parsed, or validated."""


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("csv", "text"), default=None,
                        help="output format (default: csv for tables, text for reports)")
    common.add_argument("--degrees", action="store_true",
                        help="interpret angle flags as degrees")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Symmetric 1-to-2 qubit cloning machines and B92 eavesdropping analysis.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="check a machine-spec file")
    p.add_argument("--spec", required=True, metavar="FILE")

    p = sub.add_parser("fidelity", parents=[common],
                       help="clone fidelity along the main circle")
    p.add_argument("--machine", required=True, metavar="NAME|FILE")
    p.add_argument("--points", type=int, default=181, metavar="N")
    p.add_argument("--phi", type=float, default=None, metavar="ANGLE",
                   help="fixed azimuth in [0, 2*pi), or [0, 360) with --degrees; "
                        "emits a single curve instead of both branches")

    p = sub.add_parser("optimize", parents=[common],
                       help="optimize machine parameters")
    p.add_argument("--mode", required=True, choices=("equal-fidelity", "average"))

    p = sub.add_parser("scan", parents=[common],
                       help="grid scan of the realizable parameter region")
    p.add_argument("--grid-steps", type=int, required=True, dest="grid_steps",
                   metavar="N")

    p = sub.add_parser("b92", help="B92 eavesdropping analysis")
    bsub = p.add_subparsers(dest="b92_command", required=True, metavar="SUBCOMMAND")

    c = bsub.add_parser("curve", parents=[common],
                        help="information/discrepancy vs overlap for several machines")
    c.add_argument("--machines", required=True, metavar="LIST",
                   help="comma-separated machine names or spec files")
    c.add_argument("--overlap-min", type=float, required=True, dest="overlap_min")
    c.add_argument("--overlap-max", type=float, required=True, dest="overlap_max")
    c.add_argument("--points", type=int, required=True, metavar="N")

    a = bsub.add_parser("analyze", parents=[common],
                        help="analytic attack figures at one vartheta")
    a.add_argument("--machine", required=True, metavar="NAME|FILE")
    a.add_argument("--vartheta", type=float, required=True, metavar="ANGLE")

    s = bsub.add_parser("simulate", parents=[common],
                        help="seeded Monte Carlo protocol run")
    s.add_argument("--machine", required=True, metavar="NAME|FILE|none")
    s.add_argument("--vartheta", type=float, required=True, metavar="ANGLE")
    s.add_argument("--n", type=int, required=True, metavar="TRIALS")
    s.add_argument("--seed", type=int, required=True)

    return parser


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else float(value)


def _read_spec(path: str):
    """load_spec with its OSError and ValueError turned into SpecFileError."""
    try:
        return machines.load_spec(path)
    except OSError as exc:
        raise SpecFileError(f"cannot read machine file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise SpecFileError(f"invalid machine file {path!r}: {exc}") from exc


def _resolve_machine(token: str, allow_none: bool = False):
    if allow_none and token == "none":
        return None
    if token in machines.BUILTIN_MACHINES:
        return machines.builtin_spec(token)
    spec = _read_spec(token)
    if spec.variant == "explicit":
        try:
            machines._require_unitary(spec)
        except ValueError as exc:
            raise SpecFileError(f"machine file {token!r}: {exc}") from exc
    return spec


def _machine_label(token: str, spec) -> str:
    if token in machines.BUILTIN_MACHINES:
        label = token
    else:
        label = spec.name or Path(token).stem
    return "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


def _cmd_validate(args):
    spec = _read_spec(args.spec)
    items = [("file", args.spec), ("name", spec.name), ("variant", spec.variant)]
    if spec.variant == "channel":
        items += [("fidelity", spec.clone_fidelity), ("passed", "true")]
        return items, 0
    report = machines.validate_unitarity(spec)
    items.append(("apparatus_dim", spec.apparatus_dim))
    items += [(f"residual_{k}", v) for k, v in report.residuals.items()]
    items += [("tolerance", report.tolerance),
              ("passed", "true" if report.passed else "false")]
    return items, 0 if report.passed else 1


def _cmd_fidelity(args):
    spec = _resolve_machine(args.machine)
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    if args.phi is None:
        header = ("theta", "F_east", "F_west")
        phis = np.array([[0.0], [np.pi]])  # Eastern and Western branches
    else:
        phi = _angle(args.phi, args.degrees)
        if not 0.0 <= phi < 2 * np.pi:
            raise ValueError(f"--phi must lie in [0, 2*pi) radians, or [0, 360) with "
                             f"--degrees, got {args.phi}")
        header = ("theta", "F")
        phis = np.array([[phi]])
    thetas = np.linspace(0.0, np.pi, args.points)
    states = bloch_amplitudes(thetas, phis)  # (curves, points, 2)
    curves = fidelities(states, machines.marginals(spec, states))
    return header, np.column_stack([thetas, *curves]).tolist()


def _cmd_optimize(args):
    if args.mode == "equal-fidelity":
        result = optimizer.optimize_equal_fidelity()
    else:
        result = optimizer.optimize_average()
    p = result.params
    items = [("mode", args.mode), ("zeta", p.zeta), ("eta", p.eta),
             ("kappa", p.kappa), ("fidelity", result.objective)]
    items += [(f"boundary_{k}", int(v)) for k, v in result.boundary_active.items()]
    if result.notes:
        items.append(("notes", result.notes))
    return items, 0


def _cmd_scan(args):
    data = optimizer.scan_feasible_region(args.grid_steps)
    header = ("zeta", "eta", "kappa", "feasible", "avg_fidelity")
    rows = [(r[0], r[1], r[2], int(r[3]), r[4]) for r in data]
    return header, rows


def _cmd_b92_curve(args):
    tokens = [t for t in args.machines.split(",") if t]
    if not tokens:
        raise ValueError("--machines needs at least one machine")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    omin, omax = args.overlap_min, args.overlap_max
    if not 0.0 < omin < omax < 1.0:
        raise ValueError(
            f"need 0 < --overlap-min < --overlap-max < 1, got {omin} and {omax}")
    overlaps = np.linspace(omin, omax, args.points)
    labels, curves = [], []
    for token in tokens:
        spec = _resolve_machine(token)
        labels.append(_machine_label(token, spec))
        curves.append(b92.info_curve(spec, overlaps))
    header = (["overlap"] + [f"I_{lab}" for lab in labels]
              + [f"D_{lab}" for lab in labels])
    columns = [overlaps] + [c[:, 1] for c in curves] + [c[:, 2] for c in curves]
    return header, np.column_stack(columns).tolist()


def _cmd_b92_analyze(args):
    spec = _resolve_machine(args.machine)
    vartheta = _angle(args.vartheta, args.degrees)
    res = b92.attack_analysis(spec, vartheta)
    items = [("machine", res.machine_name), ("vartheta", vartheta),
             ("overlap", res.overlap),
             ("mutual_information", res.mutual_information),
             ("discrepancy", res.discrepancy)]
    for mu in ("G1", "G2", "G3"):
        p_u, p_v = res.outcome_probs[mu]
        items += [(f"p_{mu}_u", p_u), (f"p_{mu}_v", p_v)]
    return items, 0


def _cmd_b92_simulate(args):
    spec = _resolve_machine(args.machine, allow_none=True)
    vartheta = _angle(args.vartheta, args.degrees)
    run = b92.simulate_protocol(spec, vartheta, args.n, args.seed)
    items = [("machine", args.machine), ("vartheta", vartheta),
             ("seed", run.seed), ("n_trials", run.n_trials),
             ("conclusive", run.conclusive), ("inconclusive", run.inconclusive),
             ("errors", run.errors),
             ("conclusive_rate", run.empirical_conclusive_rate),
             ("error_rate", run.empirical_error_rate)]
    return items, 0


def _dispatch(args):
    """Returns (rendered output, exit status)."""
    command = args.command
    if command == "b92":
        command = args.b92_command
    if command in _TABLE_COMMANDS:
        handler = {"fidelity": _cmd_fidelity, "scan": _cmd_scan,
                   "curve": _cmd_b92_curve}[command]
        header, rows = handler(args)
        fmt = args.format or "csv"
        sep = "," if fmt == "csv" else "\t"
        return render_table(header, rows, sep=sep), 0
    handler = {"validate": _cmd_validate, "optimize": _cmd_optimize,
               "analyze": _cmd_b92_analyze, "simulate": _cmd_b92_simulate}[command]
    items, status = handler(args)
    fmt = args.format or "text"
    render = render_records_csv if fmt == "csv" else render_records_text
    return render(items), status


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        text, status = _dispatch(args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _write_output(text, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
