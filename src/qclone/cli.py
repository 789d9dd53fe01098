"""Command-line front end.

Subcommands
-----------
validate    check a machine-spec file against the unitarity conditions
fidelity    tabulate clone fidelity over theta in [0, pi] (both meridian
            branches, or one curve at a fixed azimuth with --phi)
optimize    run the equal-fidelity or average-fidelity optimizer
scan        tabulate realizability and average fidelity on a parameter grid
b92         eavesdropping analysis: curve | analyze | simulate

Each subcommand accepts --out PATH (default stdout; either gets UTF-8 in
any locale) and --format csv|text; fidelity, b92 analyze and b92 simulate
also take --degrees (angle flags in degrees). Table cells are floats in
textio's 12-digit form. Machine arguments take a built-in name (meridional,
wootters-zurek, universal, equatorial, ideal) or a spec-file path; `b92
simulate` also accepts `none` for an untouched channel (the ideal channel,
F = 1). Every command checks its flags before it reads a machine file.
Exit status: 0 success, 1 unreadable or invalid machine file, unwritable
output (a closed stdout or pipe too) or a file path holding a line-breaking
character (see machines._has_control; and `validate` on a failing spec),
2 usage or domain errors, a request too large for memory among them.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import machines  # b92 and optimizer: imported by the handlers that use them
from .qcore import bloch_amplitudes, fidelities
from .qcore import fidelity  # noqa: F401  (bench/tracer.py wraps cli.fidelity)
from .textio import render_records_csv, render_records_text, render_table


class SpecFileError(Exception):
    """A machine file could not be read, parsed, or validated."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")
    common.add_argument("--format", choices=("csv", "text"), default=None,
                        help="output format (default: csv for tables, text for reports)")
    angled = argparse.ArgumentParser(add_help=False, parents=[common])
    angled.add_argument("--degrees", action="store_true",
                        help="interpret angle flags as degrees")
    parser = argparse.ArgumentParser(
        prog="qclone",
        description="Symmetric 1-to-2 qubit cloning machines and B92 eavesdropping analysis.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common],
                       help="check a machine-spec file")
    p.add_argument("--spec", required=True, metavar="FILE")

    p = sub.add_parser("fidelity", parents=[angled],
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

    a = bsub.add_parser("analyze", parents=[angled],
                        help="analytic attack figures at one vartheta")
    a.add_argument("--machine", required=True, metavar="NAME|FILE")
    a.add_argument("--vartheta", type=float, required=True, metavar="ANGLE")

    s = bsub.add_parser("simulate", parents=[angled],
                        help="seeded Monte Carlo protocol run")
    s.add_argument("--machine", required=True, metavar="NAME|FILE|none")
    s.add_argument("--vartheta", type=float, required=True, metavar="ANGLE")
    s.add_argument("--n", type=int, required=True, metavar="TRIALS")
    s.add_argument("--seed", type=int, required=True)

    return parser


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else float(value)


def _read_spec(path: str):
    """load_spec with its OSError and ValueError turned into SpecFileError. A
    path holding a character that machines._has_control finds is refused
    unread, since reports echo the path and it would break a report line."""
    if machines._has_control(path):
        raise SpecFileError(f"machine file path {path!r} holds a line-breaking character")
    try:
        return machines.load_spec(path)
    except OSError as exc:
        raise SpecFileError(f"cannot read machine file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise SpecFileError(f"invalid machine file {path!r}: {exc}") from exc


def _resolve_machine(token: str, allow_none: bool = False) -> tuple:
    """(spec, label) for a machine argument; handlers call it after every
    flag check. The label names the machine in reports and column labels:
    the spec's name (a built-in's spec carries the built-in's name), else
    the spec file's stem, with every character that is neither alphanumeric
    nor one of '-_.' replaced by '_'."""
    if allow_none and token == "none":
        spec = machines.channel_spec(1.0, "none")
    elif token in machines.BUILTIN_MACHINES:
        spec = machines.builtin_spec(token)
    else:
        spec = _read_spec(token)
    label = spec.name or Path(token).stem
    return spec, "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in label)


def _cmd_validate(args):
    try:
        spec = _read_spec(args.spec)
    except SpecFileError as exc:
        cause = exc.__cause__  # a refusal for unitarity alone keeps the report's fields
        if not isinstance(cause, machines.NotUnitary):
            raise
        name, dim, residuals, passed = cause.name, cause.apparatus_dim, cause.residuals, False
    else:
        if spec.variant == "channel":
            return [("file", args.spec), ("name", spec.name), ("variant", "channel"),
                    ("fidelity", spec.clone_fidelity), ("passed", "true")], 0
        name, dim, passed = spec.name, spec.apparatus_dim, True
        residuals = machines.validate_unitarity(spec)
    items = [("file", args.spec), ("name", name), ("variant", "explicit"), ("apparatus_dim", dim)]
    items += [(f"residual_{k}", v) for k, v in residuals.items()]
    items += [("tolerance", machines.UNITARITY_TOL), ("passed", "true" if passed else "false")]
    return items, 0 if passed else 1


def _cmd_fidelity(args):
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
    spec, _ = _resolve_machine(args.machine)
    thetas = np.linspace(0.0, np.pi, args.points)
    states = bloch_amplitudes(thetas, phis)  # (curves, points, 2)
    curves = fidelities(states, machines.marginals(spec, states))
    return header, np.column_stack([thetas, *curves])


def _cmd_optimize(args):
    from . import optimizer
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
    from . import optimizer
    header = ("zeta", "eta", "kappa", "feasible", "avg_fidelity")
    return header, optimizer.scan_feasible_region(args.grid_steps)


def _cmd_b92_curve(args):
    from . import b92
    tokens = [t for t in args.machines.split(",") if t]
    if not tokens:
        raise ValueError("--machines needs at least one machine")
    if args.points < 2:
        raise ValueError(f"--points must be at least 2, got {args.points}")
    omin, omax = args.overlap_min, args.overlap_max
    if not 0.0 < omin < omax < 1.0:
        raise ValueError(
            f"need 0 < --overlap-min < --overlap-max < 1, got {omin} and {omax}")
    specs, labels = zip(*(_resolve_machine(token) for token in tokens))
    repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
    if repeated:
        raise ValueError(f"--machines gives the column label {repeated[0]!r} to more "
                         f"than one machine")
    overlaps = np.linspace(omin, omax, args.points)
    curves = [b92.info_curve(spec, overlaps) for spec in specs]
    header = (["overlap"] + [f"I_{lab}" for lab in labels]
              + [f"D_{lab}" for lab in labels])
    columns = [overlaps] + [c[:, 1] for c in curves] + [c[:, 2] for c in curves]
    return header, np.column_stack(columns)


def _cmd_b92_analyze(args):
    from . import b92
    vartheta = b92._check_vartheta(_angle(args.vartheta, args.degrees))
    spec, label = _resolve_machine(args.machine)
    res = b92.attack_analysis(spec, vartheta)
    items = [("machine", label), ("vartheta", vartheta),
             ("overlap", res.overlap),
             ("mutual_information", res.mutual_information),
             ("discrepancy", res.discrepancy)]
    for mu in ("G1", "G2", "G3"):
        p_u, p_v = res.outcome_probs[mu]
        items += [(f"p_{mu}_u", p_u), (f"p_{mu}_v", p_v)]
    return items, 0


def _cmd_b92_simulate(args):
    from . import b92
    vartheta, n, seed = b92._check_run(_angle(args.vartheta, args.degrees), args.n, args.seed)
    spec, label = _resolve_machine(args.machine, allow_none=True)
    run = b92.simulate_protocol(spec, vartheta, n, seed)
    return [("machine", label), ("vartheta", vartheta), *run._asdict().items()], 0


_TABLES = {"fidelity": _cmd_fidelity, "scan": _cmd_scan, "curve": _cmd_b92_curve}
_RECORDS = {"validate": _cmd_validate, "optimize": _cmd_optimize,
            "analyze": _cmd_b92_analyze, "simulate": _cmd_b92_simulate}


def _dispatch(args):
    """Returns (the rendered output as a list of chunks, exit status)."""
    command = args.b92_command if args.command == "b92" else args.command
    if command in _TABLES:
        header, table = _TABLES[command](args)
        return render_table(header, table, sep="\t" if args.format == "text" else ","), 0
    items, status = _RECORDS[command](args)
    render = render_records_csv if args.format == "csv" else render_records_text
    return [render(items)], status


def _open_output(out: str | None):
    """The binary file `out`, or stdout's, as a context that closes only a file."""
    if out is not None:
        return open(out, "wb")
    if sys.stdout is None:  # started with stdout closed
        raise OSError("standard output is closed")
    sys.stdout.flush()  # text written to stdout earlier stays first
    return contextlib.nullcontext(sys.stdout.buffer)


def _write_output(text: str, fh) -> None:
    """Writes text as UTF-8 to the binary file fh, in any locale, until every
    byte is out: unbuffered, stdout.buffer is raw and its write() may take part."""
    view = memoryview(text.encode("utf-8"))
    while view:
        view = view[fh.write(view):]


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return exc.code
    try:
        chunks, status = _dispatch(args)
        with _open_output(args.out) as fh:
            for text in chunks:
                _write_output(text, fh)
    except (SpecFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, MemoryError) as exc:  # a request too large is a usage error
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return status
