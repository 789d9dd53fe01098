"""CLI diff: does this checkout print what another checkout prints?

    python tests/cli_diff.py PARENT_CHECKOUT

Runs a fixed set of qclone invocations in both trees, each as
`PYTHONPATH=<tree>/src python -m qclone ...`, and compares their stdout
bytes, stderr and exit codes. The set covers every subcommand on the five
built-ins and on four spec files (a synthesized machine and a boundary one,
both 3-dimensional with real entries, and general unitary ones in 3 and 4
dimensions with complex entries), `validate` on passing, failing,
near-miss, channel, malformed and missing files, four commands on files
that are not unitary machines, and four exits where argparse stops before
any command runs: `--help`, `b92 simulate --help`, an unknown subcommand and
a missing required flag: 220 invocations. Spec files are written as JSON to
a temporary directory that both trees read. The machines come from
tests/oracles.py, and nothing is imported from qclone.

The set runs twice: on numpy's default dispatch path, and again with
NPY_DISABLE_CPU_FEATURES set to DISABLED, which takes numpy's AVX2 path on
an AVX-512 machine. Where numpy reports none of those targets, the second
pass is skipped and the script says so. It prints one line per differing
invocation and exits 1 on any difference.

pytest does not collect this file: its name does not match test_*.py.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from oracles import apparatus_vectors, near_miss, unitary_vectors

ROOT = Path(__file__).resolve().parent.parent
DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
UNITARITY_TOL = 1e-10  # qcore.UNITARITY_TOL, the bound the near-miss files straddle
BUILTINS = ["meridional", "wootters-zurek", "universal", "equatorial", "ideal"]
PROBE = ("import numpy as np; core = getattr(np, '_core', None) or np.core; "
         "features = core._multiarray_umath.__cpu_features__; "
         f"print(' '.join(t for t in {DISABLED.split()!r} if features.get(t)))")


def _explicit(name, vectors):
    doc = {"name": name, "variant": "explicit", "apparatus_dim": len(vectors[0])}
    for key, vec in zip(("Q0", "Q1", "Y0", "Y1"), vectors):
        doc[key] = [[float(c.real), float(c.imag)] for c in vec]
    return doc


def write_specs(tmp):
    """Write the spec files; returns (machine files, validate files, bad files) as paths."""
    meridional = apparatus_vectors(0.1, 0.4, 0.4)
    machines = {
        "synthesized": _explicit("", apparatus_vectors(0.12, 0.3, 0.25)),
        "boundary": _explicit("", apparatus_vectors(0.25, 0.6, math.sqrt(0.14))),
        "general3": _explicit("", unitary_vectors(3, 0.15, 3)),
        "general4": _explicit("", unitary_vectors(4, 0.2, 4)),
    }
    parallel = _explicit("parallel", meridional[:3] + meridional[2:3])
    off_norm = _explicit("off-norm", near_miss(meridional, 0.1, "row0_norm",
                                               1.01 * UNITARITY_TOL))
    missing_y1 = {k: v for k, v in _explicit("no-y1", meridional).items() if k != "Y1"}
    bad_dim = dict(_explicit("dim", meridional), apparatus_dim=5)
    strings = dict(_explicit("strings", meridional), Q0=[["0.6", "0"]] * 3)
    validate = {"passing": _explicit("meridional", meridional), "failing": parallel,
                "channel": {"name": "chan", "variant": "channel", "fidelity": 0.8},
                "bad_dim": bad_dim}
    # one unitarity residual moved to +-0.99 and +-1.01 UNITARITY_TOL (|<Y0|Y1>| to
    # 0.99 and 1.01 only)
    near = {f"{stem}_{f:+}": (residual, f) for f in (0.99, -0.99, 1.01, -1.01)
            for stem, residual in (("row0", "row0_norm"), ("row1", "row1_norm"),
                                   ("balance", "y_norm_balance"))}
    near.update({f"y_overlap_{f}": ("y_orthogonality", f) for f in (0.99, 1.01)})
    validate.update({k: _explicit(k, near_miss(meridional, 0.1, residual, f * UNITARITY_TOL))
                     for k, (residual, f) in near.items()})
    bad = {"parallel": parallel, "off_norm": off_norm, "missing_y1": missing_y1,
           "bad_dim": bad_dim, "strings": strings}
    paths = {}
    for group, docs in (("m", machines), ("v", validate), ("b", bad)):
        for stem, doc in docs.items():
            path = tmp / group / f"{stem}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(doc, indent=2) + "\n")
            paths.setdefault(group, []).append(str(path))
    for group in ("v", "b"):
        (tmp / group / "malformed.json").write_text('{"variant": "explicit", ')
        paths[group] += [str(tmp / group / "malformed.json"), str(tmp / group / "absent.json")]
    paths["v"].append(str(tmp / "v"))  # a directory
    return paths["m"], paths["v"], paths["b"]


def invocations(machine_files, validate_files, bad_files):
    machines = BUILTINS + machine_files
    runs = []
    for m in machines:
        runs.append(["fidelity", "--machine", m, "--points", "5001"])
        runs += [["fidelity", "--machine", m, "--points", "5001", "--phi", phi]
                 for phi in ("0", "0.7", "1.3", "1.5707963267948966", "3", "5.5")]
        runs.append(["fidelity", "--machine", m, "--points", "5001", "--phi", "200",
                     "--degrees"])
        runs += [["b92", "analyze", "--machine", m, "--vartheta", vt]
                 for vt in ("0.05", "0.3", "0.7", "1", "1.4", "1.5707963267948966")]
        runs.append(["b92", "simulate", "--machine", m, "--vartheta", "0.7",
                     "--n", "200000", "--seed", "2024"])
    runs.append(["b92", "simulate", "--machine", "none", "--vartheta", "0.9",
                 "--n", "200000", "--seed", str(2 ** 64 - 1)])
    runs.append(["b92", "curve", "--machines", ",".join(machines[:7]), "--overlap-min",
                 "0.001", "--overlap-max", "0.999", "--points", "20001"])
    runs.append(["b92", "curve", "--machines", ",".join(machines), "--overlap-min", "0.01",
                 "--overlap-max", "0.99", "--points", "2001", "--format", "text"])
    for fmt in ("csv", "text"):
        runs += [["scan", "--grid-steps", steps, "--format", fmt] for steps in ("30", "40")]
        runs += [["optimize", "--mode", mode, "--format", fmt]
                 for mode in ("equal-fidelity", "average")]
        runs += [["validate", "--spec", path, "--format", fmt] for path in validate_files]
    for path in bad_files:
        runs += [["fidelity", "--machine", path, "--points", "11"],
                 ["b92", "analyze", "--machine", path, "--vartheta", "0.7"],
                 ["b92", "simulate", "--machine", path, "--vartheta", "0.7", "--n", "10",
                  "--seed", "1"],
                 ["b92", "curve", "--machines", f"meridional,{path}", "--overlap-min", "0.1",
                  "--overlap-max", "0.9", "--points", "3"]]
    runs += [["--help"], ["b92", "simulate", "--help"], ["bogus"], ["fidelity", "--points", "11"]]
    return runs


def _run(tree, argv, env, cwd):
    env = dict(env, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-m", "qclone", *argv], env=env, cwd=cwd,
                         capture_output=True)
    return res.stdout, res.stderr, res.returncode


def compare(parent, runs, env, cwd, label):
    """Number of invocations whose stdout, stderr or exit code differ."""
    differing = 0
    for argv in runs:
        old, new = _run(parent, argv, env, cwd), _run(ROOT, argv, env, cwd)
        if old != new:
            differing += 1
            what = [part for part, a, b in zip(("stdout", "stderr", "exit"), old, new) if a != b]
            print(f"{label}: {', '.join(what)} differ: qclone {' '.join(argv)}", flush=True)
    print(f"{label}: {len(runs)} invocations, {differing} differ", flush=True)
    return differing


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    parent = Path(argv[0]).resolve()
    if not (parent / "src" / "qclone").is_dir():
        sys.exit(f"{parent} has no src/qclone")
    with tempfile.TemporaryDirectory() as tmp:
        runs = invocations(*write_specs(Path(tmp)))
        differing = compare(parent, runs, os.environ, tmp, "default dispatch")
        present = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                                 text=True, check=True).stdout.split()
        if present:
            env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=DISABLED)
            differing += compare(parent, runs, env, tmp, f"without {' '.join(present)}")
        else:
            print(f"numpy reports none of {DISABLED} on this machine; second pass skipped")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
