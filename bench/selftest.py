#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny sizes (a few seconds).

    python3 bench/selftest.py

1. Every workload runs once end to end and once traced in process; no
   invocation may have wrong output, counts must repeat exactly across two
   traced passes, and the emitted metric names must match BENCHMARK.json.
2. Each invocation's real output is corrupted (one flipped digit, or one
   extra stderr line) and the checker must reject every corrupted copy, so
   failed_frac is not vacuous.
3. A directory holding only BENCHMARK.json and bench/ must make the
   benchmark exit non-zero without printing a result.

Exits 0 when every step holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer
import workloads

SEED = 20260917
# Record keys whose first digit the corruption flips (each is covered by a check).
RECORD_TARGETS = {"b92-simulate-meridional": "errors", "b92-simulate-none": "conclusive",
                  "b92-analyze": "discrepancy", "optimize-equal-fidelity": "zeta",
                  "optimize-average": "kappa", "validate": "apparatus_dim"}


def flip_first_digit(field: str) -> str:
    for i, ch in enumerate(field):
        if ch.isdigit():
            return field[:i] + ("1" if ch == "0" else str(int(ch) - 1)) + field[i + 1:]
    raise ValueError(f"no digit in {field!r}")


def corrupt_stdout(inv, text: str) -> str:
    lines = text.split("\n")
    if inv.kind == workloads.TABLE:
        fields = lines[-2].split(",")
        j = max(i for i, f in enumerate(fields) if any(c.isdigit() for c in f))
        fields[j] = flip_first_digit(fields[j])
        lines[-2] = ",".join(fields)
    else:
        key = RECORD_TARGETS[inv.name]
        j = next(i for i, line in enumerate(lines) if line.startswith(key + "="))
        lines[j] = f"{key}={flip_first_digit(lines[j].split('=', 1)[1])}"
    return "\n".join(lines)


def main() -> int:
    failures = []
    tmp = run.OUT / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(SEED)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {m["name"] for m in declared["end_to_end"]} != set(run.END_TO_END_UNITS):
        failures.append("BENCHMARK.json end_to_end names differ from run.END_TO_END_UNITS")
    if {m["name"] for m in declared["per_layer"]} != set(run.per_layer_units()):
        failures.append("BENCHMARK.json per_layer names differ from run.per_layer_units()")
    modules = run.import_qclone()
    env = run.child_env()
    rejected = 0
    for name in workloads.WORKLOADS:
        invocations = workloads.build(name, inputs, tmp, scale="tiny")
        tally = run.Tally()
        for inv in invocations:
            code, _, _ = run.spawn(["-m", "qclone", *inv.argv], tmp / "out", tmp / "err", env)
            out, err = (tmp / "out").read_text(), (tmp / "err").read_text()
            verdict = workloads.judge(inv, code, out, err)
            tally.add(inv, verdict)
            if verdict["wrong_output"]:
                failures.append(f"{name}/{inv.name}: {verdict['problems']}")
            if verdict["failed"]:
                print(f"note: {name}/{inv.name} fails its expectations: {verdict['problems']}")
            bad = [("extra stderr line", out, err + "warning: extra line\n")]
            if out:
                bad.append(("flipped digit", corrupt_stdout(inv, out), err))
            for what, bad_out, bad_err in bad:
                if workloads.judge(inv, code, bad_out, bad_err)["failed"]:
                    rejected += 1
                else:
                    failures.append(f"{name}/{inv.name}: checker accepted output with {what}")
        t = tracer.Tracer(modules)
        counts = []
        for _ in range(2):
            t.reset()
            with t:
                result = run.run_inprocess_pass(modules, invocations, run.Judge(), run.Tally(), tmp)
            counts.append(run.traced_counts(t, tracer.layer_times(t.spans), result["rows"]))
        if counts[0] != counts[1]:
            failures.append(f"{name}: traced counts differ between two passes")
        print(f"{name}: {tally.attempted} invocations, {tally.failed} failed expectations, "
              f"{counts[0]['cli.run.calls']} traced cli.run calls")
    print(f"checker rejected {rejected} corrupted outputs")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "region-scan",
                           "--seed", "1", "--seconds", "1"], cwd=bare,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)
    shutil.rmtree(tmp)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
