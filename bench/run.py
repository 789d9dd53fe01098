#!/usr/bin/env python3
"""Benchmark of the qclone CLI, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload meridian-curves|region-scan|b92-session \\
        --seed N [--seconds S] [--trace 0|1]

--trace 0 (end to end): `python -m qclone` runs as one fresh subprocess at a
time, pass after pass over the workload's invocation list, for S seconds;
every invocation's exit code, stderr and output are checked against the
benchmark's own math (checks.py). --trace 1 (layers): the same invocations
run in process, alternating untraced passes with passes traced by wrappers
from tracer.py, and the per-layer metrics come from the spans.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The full record, with the environment, goes to
.bench_out/ in the checkout. README.md next to this file explains the
workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported here or in any child.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 3          # fresh interpreters before the first pass, then one per pass
IMPORTTIME_RUNS = 3     # `python -X importtime` runs per traced run
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10        # pass_s_tail: highest percentile with this many passes above it
MIN_PASSES = TAIL_BEYOND + 1
BEST_OF = MIN_PASSES    # passes, and set-up samples, that the fastest figures are taken over

END_TO_END_UNITS = {"setup_s": "s", "pass_s_best": "s", "rows_per_s_best": "1/s",
                    "peak_rss_mb": "MB"}
SETUP_CODE = "import qclone.cli as c; c.build_parser()"


def per_layer_units() -> dict:
    units = {}
    for name in tracer.SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update({
        "qcore.DensityMatrix.constructions": "count",
        "qcore.density_per_row": "ratio",
        "machines.validate_unitarity.per_spec": "ratio",
        "textio.cells": "count",
        "io.write.bytes": "B",
        "rng.variates": "count",
        "rng.bytes_computed": "B",
        "optimizer.scan.points": "count",
        "setup.import_numpy_s": "s",
        "setup.import_qclone_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.coverage_frac": "ratio",
    })
    return units


COUNT_METRICS = ("textio.cells", "io.write.bytes", "rng.variates",
                 "rng.bytes_computed", "optimizer.scan.points")


# ---------------------------------------------------------------------------
# environment

def environment(args) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
            caches[f"L{fields[0]} {fields[1]}"] = fields[2]
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# running and judging invocations

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_VARS)


def spawn(argv, stdout_path, stderr_path, env) -> tuple:
    """Run one child to completion: (exit code, wall seconds, max RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(CHILD_TIMEOUT_S * 1000):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


class Judge:
    """Checks outputs; identical bytes from an earlier pass reuse that verdict
    (the CLI is deterministic, so only the first pass pays for the checks)."""

    def __init__(self):
        self._verdicts = {}

    def __call__(self, inv, code, out_bytes: bytes, err_bytes: bytes) -> dict:
        key = (inv.name, code, hashlib.blake2b(out_bytes).digest(),
               hashlib.blake2b(err_bytes).digest())
        if key not in self._verdicts:
            self._verdicts[key] = workloads.judge(
                inv, code, out_bytes.decode("utf-8", "replace"),
                err_bytes.decode("utf-8", "replace"))
        return self._verdicts[key]


class Tally:
    """Invocation outcomes across all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong_output = 0
        self.problems = {}

    def add(self, inv, verdict):
        self.attempted += 1
        if verdict["failed"]:
            self.failed += 1
            self.problems.setdefault(inv.name, verdict["problems"])
        if verdict["wrong_output"]:
            self.wrong_output += 1


def run_subprocess_pass(invocations, judge, tally, tmp) -> dict:
    env = child_env()
    walls, rss, rows = [], [], 0
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    for inv in invocations:
        code, wall, maxrss = spawn(["-m", "qclone", *inv.argv], out_path, err_path, env)
        verdict = judge(inv, code, out_path.read_bytes(), err_path.read_bytes())
        tally.add(inv, verdict)
        walls.append(wall)
        rss.append(maxrss)
        rows += verdict["rows"]
    return {"pass_s": sum(walls), "invocation_s": walls, "peak_rss_mb": max(rss), "rows": rows}


def tail(values) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup(tmp) -> float:
    code, wall, _ = spawn(["-c", SETUP_CODE], tmp / "stdout", tmp / "stderr", child_env())
    if code != 0:
        raise RuntimeError("importing qclone.cli failed:\n"
                           + (tmp / "stderr").read_text(errors="replace"))
    return wall


def spaced(values, k):
    """k of the values, evenly spaced from the first to the last."""
    n = len(values)
    return [values[round(i * (n - 1) / (k - 1))] for i in range(k)]


def end_to_end(args, invocations, tmp) -> tuple:
    setup = [measure_setup(tmp) for _ in range(SETUP_RUNS)]
    judge, tally, passes = Judge(), Tally(), []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        setup.append(measure_setup(tmp))
        passes.append(run_subprocess_pass(invocations, judge, tally, tmp))
    pass_s = [p["pass_s"] for p in passes]
    is_table = [inv.kind == workloads.TABLE for inv in invocations]
    trials = [inv.trials for inv in invocations]

    def table_s(walls):
        return sum(w for w, table in zip(walls, is_table) if table)

    def sim_s(walls):
        return sum(w for w, n in zip(walls, trials) if n)

    # Fastest time of each invocation, and fastest set-up, over BEST_OF
    # samples spread evenly over the run. On a shared machine outside load
    # only adds time, so these move far less between runs than medians, which
    # shift with the share of the run spent under load. The sample count is
    # fixed so that a run that fits more passes is not faster by chance.
    best = [min(walls) for walls in zip(*(p["invocation_s"] for p in spaced(passes, BEST_OF)))]
    rows = statistics.median(p["rows"] for p in passes)
    metrics = {
        "setup_s": min(spaced(setup, BEST_OF)),
        "pass_s_best": sum(best),
        "rows_per_s_best": rows / table_s(best),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    tail_s, tail_pct = tail(pass_s)
    extra = {
        "pass_s_p50": statistics.median(pass_s),
        "setup_s_p50": statistics.median(setup),
        "pass_s_tail": tail_s,
        "pass_s_tail_percentile": tail_pct,
        "passes": len(passes),
        "rows_per_s": statistics.median(p["rows"] / table_s(p["invocation_s"]) for p in passes),
        "failed_frac": tally.failed / tally.attempted,
    }
    if any(trials):
        extra["trials_per_s"] = statistics.median(
            sum(trials) / sim_s(p["invocation_s"]) for p in passes)
        extra["trials_per_s_best"] = sum(trials) / sim_s(best)
    details = {"setup_s_samples": setup, "passes": passes, "problems": tally.problems}
    return metrics, extra, details, tally


# ---------------------------------------------------------------------------
# traced run (in process)

def parse_importtime(text: str) -> tuple:
    """(numpy seconds, qclone seconds excluding numpy) from -X importtime output.

    `import qclone.cli` nests the qclone package, and numpy under it, inside
    the qclone.cli entry, whose cumulative time therefore covers both.
    """
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _self, cum, name = line.split(":", 1)[1].split("|")
        with contextlib.suppress(ValueError):
            cumulative[name.strip()] = int(cum) / 1e6
    numpy_s = cumulative["numpy"]
    return numpy_s, cumulative["qclone.cli"] - numpy_s


def measure_importtime(tmp) -> tuple:
    env = child_env()
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        code, _, _ = spawn(["-X", "importtime", "-c", "import qclone.cli"],
                           tmp / "stdout", tmp / "stderr", env)
        if code != 0:
            raise RuntimeError("python -X importtime failed")
        samples.append(parse_importtime((tmp / "stderr").read_text()))
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


def import_qclone() -> dict:
    sys.path.insert(0, str(SRC))
    from qclone import b92, cli, machines, optimizer, qcore, rng, textio
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qclone from {cli.__file__}, not from {SRC}")
    return {"cli": cli, "machines": machines, "qcore": qcore, "b92": b92, "rng": rng,
            "optimizer": optimizer, "textio": textio}


def run_inprocess_pass(modules, invocations, judge, tally, tmp) -> dict:
    cli = modules["cli"]
    elapsed, rows = 0.0, 0
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    for inv in invocations:
        with open(out_path, "w", encoding="utf-8", newline="\n") as out, \
                open(err_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.run(inv.argv)
            except Exception:  # an uncaught error is what the CLI user would see
                elapsed += time.perf_counter() - start
                traceback.print_exc()
                code = 1
            else:
                elapsed += time.perf_counter() - start
        verdict = judge(inv, code, out_path.read_bytes(), err_path.read_bytes())
        tally.add(inv, verdict)
        rows += verdict["rows"]
    return {"pass_s": elapsed, "rows": rows}


def spec_key(spec):
    vectors = tuple(v.tobytes() for v in (spec.q0, spec.q1, spec.y0, spec.y1) if v is not None)
    return spec.name, spec.variant, vectors


def traced_counts(t: tracer.Tracer, layers: dict, rows: int) -> dict:
    counts = {k: t.counts.get(k, 0) for k in COUNT_METRICS}
    for name in tracer.SPAN_NAMES:
        counts[f"{name}.calls"] = layers.get(name, (0, 0.0, 0.0))[0]
    counts["qcore.DensityMatrix.constructions"] = counts["qcore.DensityMatrix.calls"]
    distinct = len({spec_key(s) for s in t.specs.values()})
    validations = counts["machines.validate_unitarity.calls"]
    counts["machines.validate_unitarity.per_spec"] = validations / distinct if distinct else 0.0
    counts["qcore.density_per_row"] = counts["qcore.DensityMatrix.constructions"] / max(rows, 1)
    return counts


def layered(args, invocations, tmp) -> tuple:
    import_numpy_s, import_qclone_s = measure_importtime(tmp)
    modules = import_qclone()
    judge, tally = Judge(), Tally()
    t = tracer.Tracer(modules)
    plain, traced, counts, layer_runs, coverage = [], [], [], [], []
    run_inprocess_pass(modules, invocations, judge, tally, tmp)  # warm-up, discarded
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        plain.append(run_inprocess_pass(modules, invocations, judge, tally, tmp)["pass_s"])
        t.reset()
        with t:
            result = run_inprocess_pass(modules, invocations, judge, tally, tmp)
        traced.append(result["pass_s"])
        layers = tracer.layer_times(t.spans)
        layer_runs.append(layers)
        counts.append(traced_counts(t, layers, result["rows"]))
        # Self time of the named layers; cli.run's own self time is what no
        # other wrapper claims, so it is left out.
        named = sum(v[2] for name, v in layers.items() if name != "cli.run")
        coverage.append(named / result["pass_s"])
    tracer.write_spans(t.spans, OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    mismatched = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts[1:]))
    metrics = dict(counts[0])
    for name in tracer.SPAN_NAMES:
        for i, suffix in ((1, "total_s"), (2, "self_s")):
            metrics[f"{name}.{suffix}"] = statistics.median(
                run.get(name, (0, 0.0, 0.0))[i] for run in layer_runs)
    metrics.update({
        "setup.import_numpy_s": import_numpy_s,
        "setup.import_qclone_s": import_qclone_s,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
        "trace.coverage_frac": statistics.median(coverage),
    })
    extra = {"failed_frac": tally.failed / tally.attempted, "traced_passes": len(traced),
             "untraced_passes": len(plain), "count_mismatches": mismatched}
    details = {"untraced_pass_s": plain, "traced_pass_s": traced, "problems": tally.problems}
    return metrics, extra, details, tally


# ---------------------------------------------------------------------------

# Units of the figures printed beside the metrics.
EXTRA_UNITS = {"pass_s_p50": "s", "setup_s_p50": "s", "pass_s_tail": "s",
               "pass_s_tail_percentile": "%",
               "rows_per_s": "1/s", "trials_per_s": "1/s", "trials_per_s_best": "1/s",
               "failed_frac": "ratio"}


def report(args, metrics, units, extra, tally):
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:44s} {value:.6g} {EXTRA_UNITS[name]}" if name in EXTRA_UNITS
              else f"  {name:44s} {value}")
    print(f"  invocations: {tally.attempted} attempted, {tally.failed} failed, "
          f"{tally.wrong_output} with wrong output")
    for name, problems in tally.problems.items():
        print(f"  FAILED {name}: {'; '.join(problems)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qclone" / "cli.py").is_file():
        print(f"error: no qclone sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.seed)
    try:
        invocations = workloads.build(args.workload, inputs, tmp)
        if args.trace:
            metrics, extra, details, tally = layered(args, invocations, tmp)
            units = per_layer_units()
            correct = tally.wrong_output == 0 and not extra["count_mismatches"]
        else:
            metrics, extra, details, tally = end_to_end(args, invocations, tmp)
            units = END_TO_END_UNITS
            correct = tally.wrong_output == 0
    finally:
        shutil.rmtree(tmp)
    record = {"environment": environment(args), "inputs": vars(inputs), "metrics": metrics,
              "extra": extra, "details": details,
              "attempted": tally.attempted, "failed": tally.failed, "correct": correct}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    report(args, metrics, units, extra, tally)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
