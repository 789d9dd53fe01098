"""Mutation probe for src/qclone: does tier-1 kill each single-line mutant?

    python tests/mutants.py             # every mutant
    python tests/mutants.py NAME ...    # only the named ones

Each mutant swaps one fragment of one module for another. For each, the
checkout is copied to a temporary directory, the mutant is applied to the
copy, and tier-1 (`python -m pytest -q -x`) runs there, so the checkout is
never edited. A mutant is killed when tier-1 fails and survives when it
passes; an unmutated copy runs first and must pass. EQUIVALENT names the
survivors known to change nothing a test could see, each with the reason.
The run prints one line per mutant and exits 1 if a mutant outside
EQUIVALENT survives, or if a fragment no longer occurs exactly once in its
module (the mutant is stale). A survivor costs one full tier-1 run, about
30 s on a shared two-core VM, and the whole probe of 48 mutants about 15
minutes.

pytest does not collect this file: its name does not match test_*.py.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module in src/qclone, fragment, replacement)
MUTANTS = [
    # input rules and the qubit helpers
    ("unit-cut-ge", "qcore", "(np.abs(norm - 1.0) > UNIT_CUT)", "(np.abs(norm - 1.0) >= UNIT_CUT)"),
    ("joint-norm-one-sided", "qcore", "far = np.abs(norm - 1.0) > JOINT_NORM_TOL",
     "far = norm - 1.0 > JOINT_NORM_TOL"),
    ("theta-upper-bound", "qcore", "bad = (theta < 0.0) | (theta > np.pi)", "bad = theta < 0.0"),
    ("south-pole-override", "qcore", "    amps[theta == np.pi] = (0.0, 1.0)\n", ""),
    ("perp-sign", "qcore", "[-amps[..., 1].conj(), amps", "[amps[..., 1].conj(), amps"),
    ("fidelity-clip", "qcore", "return np.clip(vals.real, 0.0, 1.0)", "return vals.real"),
    # realizability, synthesis and the kernel
    ("margin-zeta", "machines", "4.0 * zeta * (1.0 - 2.0 * zeta)", "4.0 * zeta * (1.0 - zeta)"),
    ("feasible-kappa", "machines", "min(p.eta, p.kappa, gram_margin", "min(p.eta, gram_margin"),
    ("synth-r", "machines", "1.0 - 2.0 * z - a * a - b * b", "1.0 - 2.0 * z - a * a"),
    ("channel-perp", "machines", "(1 - f) * _projectors(_perp(s))", "(1 - f) * _projectors(s)"),
    ("cross-term", "machines", " + 2 * (alpha.conj() * beta * g[2, 3]).real", ""),
    # reads of the Gram matrix taken at construction
    ("gram-conjugate", "machines", "gram = vecs.conj() @ vecs.T", "gram = vecs @ vecs.conj().T"),
    ("row0-y-weight", "machines", "g[0, 0].real + 2 * g[2, 2].real", "g[0, 0].real + g[2, 2].real"),
    ("row1-q-entry", "machines", "g[1, 1].real + 2 * g[3, 3].real",
     "g[0, 0].real + 2 * g[3, 3].real"),
    ("y-orthogonality-real", "machines", "abs(g[2, 3])", "g[2, 3].real"),
    ("y-balance", "machines", "g[2, 2].real - g[3, 3].real", "g[2, 2].real - g[2, 2].real"),
    ("eta-entry", "machines", "2.0 * g[2, 1].real", "2.0 * g[2, 2].real"),
    ("eta-transpose", "machines", "2.0 * g[2, 1].real", "2.0 * g[1, 2].real"),
    ("kappa-entry", "machines", "2.0 * g[0, 2].real", "2.0 * g[0, 3].real"),
    ("r01-transpose", "machines", "alpha * g[1, 2]", "alpha * g[2, 1]"),
    # B92
    ("povm-denominator", "b92", "g1 = (eye - _projectors(u_amps)) / (1.0 + s)",
     "g1 = (eye - _projectors(u_amps)) / (1.0 - s)"),
    ("info-clip", "b92", "info = np.clip(1.0 - qh[:, 0] - qh[:, 1] - qh[:, 2], 0.0, 1.0)",
     "info = 1.0 - qh[:, 0] - qh[:, 1] - qh[:, 2]"),
    ("info-zero-at-coincidence", "b92",
     "    info[np.all(probs[:, 0] == probs[:, 1], axis=1)] = 0.0\n", ""),
    ("discrepancy-min", "b92", "disc = np.max(fidelities(", "disc = np.min(fidelities("),
    ("send-threshold", "b92", "bits = send >= 0.5", "bits = send > 0.5"),
    ("error-decoding", "b92", "(past_g1 == bits)", "(past_g1 != bits)"),
    ("conclusive-rate", "b92", "n_conc / n,", "(n - n_conc) / n,"),
    ("error-rate", "b92", "n_err / n_conc if", "n_err / n if"),
    ("no-conclusive-error-rate", "b92", "if n_conc else 0.0)", "if n_conc else 1.0)"),
    # RNG, optimizer, rendering, CLI
    ("mix-shift", "rng", "((30, _M1), (27, _M2))", "((30, _M1), (26, _M2))"),
    ("float-bits", "rng", "words >>= np.uint64(11)", "words >>= np.uint64(12)"),
    ("mean-kappa-weight", "optimizer", "eta + _FOUR_OVER_PI * kappa", "eta + kappa"),
    ("zeta-upper-flag", "optimizer", "abs(p.zeta - 0.5) <= BOUNDARY_TOL",
     "p.zeta - 0.5 <= BOUNDARY_TOL"),
    ("window-low-edge", "textio", "if 1e-4 <= abs(x) < 1e6:", "if 1e-4 < abs(x) < 1e6:"),
    ("window-high-edge", "textio", "if 1e-4 <= abs(x) < 1e6:", "if 1e-4 <= abs(x) <= 1e6:"),
    ("validate-status", "cli", "0 if passed else 1", "0"),
    # the CLI front end, checked in process by test_cli
    ("line-separators", "machines", ' or ch in "\\u2028\\u2029"', ""),
    ("text-format-sep", "cli", 'sep="\\t" if args.format == "text" else ","', 'sep=","'),
    ("points-after-machine", "cli", "def _cmd_fidelity(args):\n",
     "def _cmd_fidelity(args):\n    _resolve_machine(args.machine)\n"),
    ("label-keeps-spaces", "cli", 'ch in "-_."', 'ch in "-_. "'),
    # the closed forms, the angle domain, the POVM and the equal-fidelity optimum
    ("marginal-shift-sign", "machines", "np.sin(theta / 2) ** 2 + shift",
     "np.sin(theta / 2) ** 2 - shift"),
    ("marginal-phase-sign", "machines", "np.exp(-1j * phi)", "np.exp(1j * phi)"),
    ("fidelity-phase", "machines", "(k / 2) * st * np.cos(phi)", "(k / 2) * st"),
    ("phi-upper-edge", "qcore", "(phi >= 2 * np.pi)", "(phi > 2 * np.pi)"),
    ("povm-g2-denominator", "b92", "g2 = (eye - _projectors(v_amps)) / (1.0 + s)",
     "g2 = (eye - _projectors(v_amps)) / (1.0 - s)"),
    ("equal-fidelity-value", "optimizer", "1.0 - zeta,", "1.0 - 2.0 * zeta,"),
    # spec files ignore the other variant's fields
    ("spec-ignores-fidelity", "machines", '    elif variant == "channel":\n',
     '    if variant == "channel" or "fidelity" in doc:\n'),
    ("spec-ignores-apparatus-dim", "machines",
     '    if variant == "explicit":\n        fields["apparatus_dim"] = doc.get("apparatus_dim")\n',
     '    fields["apparatus_dim"] = doc.get("apparatus_dim")\n    if variant == "explicit":\n'),
]

EQUIVALENT = {
    "unit-cut-ge": "norm - 1.0 is a multiple of 2**-53 and UNIT_CUT = 1e-15 is not, so they "
                   "are never equal",
    "send-threshold": "send is exactly 0.5 with probability 2**-53 per trial, and no seeded "
                      "run the tests make draws it",
    "eta-transpose": "gram is Hermitian, so g[1, 2] and g[2, 1] have the same real part",
}


def _run(name, module, fragment, replacement, workdir):
    """'killed', 'survived' or 'stale' for one mutant, tested in a fresh copy."""
    source = (ROOT / "src" / "qclone" / f"{module}.py").read_text()
    if fragment and source.count(fragment) != 1:
        return "stale"
    copy = Path(workdir) / name
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", ".benchmarks"))
    (copy / "src" / "qclone" / f"{module}.py").write_text(source.replace(fragment, replacement))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                         cwd=copy, env=env, capture_output=True)
    shutil.rmtree(copy)
    return "survived" if res.returncode == 0 else "killed"


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    failures = 0
    with tempfile.TemporaryDirectory() as workdir:
        # a mutant counts as killed only if the unmutated copy passes
        if _run("unmutated", "machines", "", "", workdir) != "survived":
            sys.exit("tier-1 fails without a mutant")
        for name, module, fragment, replacement in chosen:
            start = time.perf_counter()
            outcome = _run(name, module, fragment, replacement, workdir)
            note = EQUIVALENT.get(name, "") if outcome == "survived" else ""
            failures += outcome == "stale" or (outcome == "survived" and not note)
            print(f"{outcome:8} {name:26} {module:9} {time.perf_counter() - start:5.0f} s"
                  + (f"  equivalent: {note}" if note else ""), flush=True)
    print(f"{len(chosen)} mutants; {failures} stale or unexplained survivors")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
