import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qclone import cli
from qclone.machines import channel_spec, meridional_spec, save_spec
from qclone.textio import format_float

GOLDEN_DIR = Path(__file__).parent / "goldens"


Result = namedtuple("Result", "returncode stdout stderr")


def qclone(*args):
    """`python -m qclone ARGS`, run in this process: the exit status, stdout
    (the UTF-8 bytes the CLI wrote, decoded without newline translation) and
    stderr. A warning raised during the run is not caught here: the test
    suite's warning filter turns it into an error that fails the test."""
    stdout, stderr = io.BytesIO(), io.StringIO()
    text = io.TextIOWrapper(stdout, encoding="utf-8", newline="")
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(stderr):
        code = cli.run(list(args))
    text.flush()
    return Result(code, stdout.getvalue().decode("utf-8"), stderr.getvalue())


def spawn(*args, **kwargs):
    """`python -m qclone ARGS` in a child process, for the tests whose subject
    is the process itself."""
    return subprocess.run([sys.executable, "-m", "qclone", *args], capture_output=True,
                          **kwargs)


@pytest.mark.parametrize("argv, golden", [
    (["b92", "analyze", "--machine", "meridional", "--vartheta", "0.7"],
     "b92_analyze_meridional.txt"),
    (["b92", "simulate", "--machine", "meridional", "--vartheta", "0.7",
      "--n", "1000", "--seed", "5"], "b92_simulate_meridional.txt"),
    (["scan", "--grid-steps", "4"], "scan_4.csv"),
    (["scan", "--grid-steps", "4", "--format", "text"], "scan_4.txt"),
    (["optimize", "--mode", "average", "--format", "csv"], "optimize_average.csv"),
    (["scan", "--grid-steps", "20"],
     "sha256:01703e671b5080adf4a0304d7dad98dc7472ba94957228cc19990bba434beba3"),
    (["scan", "--grid-steps", "20", "--format", "text"],
     "sha256:49e8ac3c1242ceb49126a3bd0bfdc5bda513552f6dbe94b9318ff8418721337b"),
    (["scan", "--grid-steps", "56"],
     "sha256:ddb261760131245a1005af5b294460c2cab14df01cfac7ff7756464646ca309e"),
    (["scan", "--grid-steps", "56", "--format", "text"],
     "sha256:6c02f79fb99bfdf8adf93bb7c9536360f7bfa8ed20aae68a4fd3d6f0f73962f0"),
    (["fidelity", "--machine", "meridional", "--points", "1001"],
     "fidelity_meridional_1001.csv"),
    (["fidelity", "--machine", "meridional", "--points", "1001", "--phi", "1.3"],
     "fidelity_meridional_1001_phi1.3.csv"),
    (["b92", "curve", "--machines", "meridional,universal,equatorial,ideal,wootters-zurek",
      "--overlap-min", "0.01", "--overlap-max", "0.99", "--points", "101"],
     "b92_curve_five_machines_101.csv"),
], ids=["analyze", "simulate", "scan-csv", "scan-text", "optimize-average-csv",
        "scan-20-csv", "scan-20-text", "scan-56-csv", "scan-56-text",
        "fidelity-1001", "fidelity-1001-phi", "curve-five-machines-101"])
def test_pinned_outputs(argv, golden):
    """Byte-exact outputs; tables over about 50 KB are pinned by SHA-256 digest."""
    res = qclone(*argv)
    assert res.returncode == 0 and res.stderr == ""
    stdout = res.stdout.encode("utf-8")
    if golden.startswith("sha256:"):
        assert hashlib.sha256(stdout).hexdigest() == golden.removeprefix("sha256:")
    else:
        assert stdout == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("corrupt, status, golden", [
    (False, 0, "validate_passing.txt"),
    (True, 1, "validate_failing.txt"),
], ids=["passing", "failing"])
def test_pinned_validate_outputs(tmp_path, corrupt, status, golden):
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    if corrupt:
        doc = json.loads(path.read_text())
        doc["Y1"] = doc["Y0"]
        path.write_text(json.dumps(doc))
    res = qclone("validate", "--spec", str(path))
    assert res.returncode == status and res.stderr == ""
    assert res.stdout.replace(str(path), "<spec>").encode("utf-8") == (
        GOLDEN_DIR / golden).read_bytes()


def test_usage_errors_exit_2():
    assert qclone().returncode == 2
    assert qclone("bogus").returncode == 2
    assert qclone("fidelity").returncode == 2               # missing --machine
    assert qclone("optimize", "--mode", "nope").returncode == 2
    assert qclone("optimize", "--mode", "average", "--grid-step", "0.4").returncode == 2
    assert qclone("b92").returncode == 2
    # --degrees exists only where an angle flag does
    for argv in (["validate", "--spec", "x.json"], ["optimize", "--mode", "average"],
                 ["scan", "--grid-steps", "2"],
                 ["b92", "curve", "--machines", "meridional", "--overlap-min", "0.1",
                  "--overlap-max", "0.9", "--points", "3"]):
        res = qclone(*argv, "--degrees")
        assert res.returncode == 2 and res.stdout == "", argv
        assert "unrecognized arguments: --degrees" in res.stderr


def test_help_exits_0():
    res = qclone("--help")
    assert res.returncode == 0
    assert "validate" in res.stdout and "b92" in res.stdout


def test_domain_errors_exit_2():
    assert qclone("fidelity", "--machine", "meridional", "--points", "1").returncode == 2
    assert qclone("b92", "analyze", "--machine", "meridional",
                  "--vartheta", "2.5").returncode == 2
    assert qclone("b92", "curve", "--machines", "meridional", "--overlap-min", "0.9",
                  "--overlap-max", "0.1", "--points", "5").returncode == 2
    assert qclone("scan", "--grid-steps", "1").returncode == 2


def test_missing_or_invalid_spec_file_exits_1(tmp_path):
    assert qclone("validate", "--spec", str(tmp_path / "no.json")).returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert bad.exists()
    assert qclone("validate", "--spec", str(bad)).returncode == 1
    assert qclone("fidelity", "--machine", str(bad)).returncode == 1
    for text in ("[1, 2]", '"x"', "null", "3"):  # JSON, but not an object
        bad.write_text(text)
        for args in (["validate", "--spec", str(bad)],
                     ["b92", "analyze", "--machine", str(bad), "--vartheta", "0.5"]):
            assert qclone(*args) == (1, "", f"error: invalid machine file {str(bad)!r}: "
                                     "machine file must be a mapping\n"), (text, args)


def test_flag_domains_are_checked_before_the_machine_file(tmp_path):
    # a usage error is reported as such, in the words it has with a built-in
    # machine, even when the machine file (M) is missing
    missing = str(tmp_path / "missing.json")
    for command, message in (
            ("fidelity --machine M --points 1", "--points must"),
            ("fidelity --machine M --phi 99", "--phi must"),
            ("b92 curve --machines M --overlap-min 0.1 --overlap-max 0.9 --points 1",
             "--points must"),
            ("b92 analyze --machine M --vartheta 2.5", "vartheta must"),
            ("b92 simulate --machine M --vartheta 0.5 --n 0 --seed 1", "need at least one"),
            ("b92 simulate --machine M --vartheta 0.5 --n 18446744073709551616 --seed 1",
             "need at least one"),
            ("b92 simulate --machine M --vartheta 0.5 --n 5 --seed -1", "seed must"),
            ("b92 simulate --machine M --vartheta 0 --n 5 --seed 1", "vartheta must")):
        code, out, err = qclone(*(missing if a == "M" else a for a in command.split()))
        assert code == 2 and out == "", command
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        builtin = ("meridional" if a == "M" else a for a in command.split())
        assert qclone(*builtin) == (2, "", err)
    for command in ("fidelity --machine M --points 5",
                    "b92 analyze --machine M --vartheta 0.5",
                    "b92 simulate --machine M --vartheta 0.5 --n 5 --seed 1"):
        code, out, err = qclone(*(missing if a == "M" else a for a in command.split()))
        assert code == 1 and out == "" and err.startswith("error: cannot read machine file")


def test_spec_files_are_read_as_utf8_in_any_locale(tmp_path):
    # a child process, since the locale is fixed when the interpreter starts
    path = tmp_path / "cafe.json"
    doc = {"name": "caf\u00e9", "variant": "channel", "fidelity": 0.9}
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    report = tmp_path / "report.txt"
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    res = spawn("validate", "--spec", str(path), "--out", str(report), env=env)
    assert res.returncode == 0 and res.stderr == b""
    assert "name=caf\u00e9\n" in report.read_text(encoding="utf-8")
    # stdout gets the same UTF-8 bytes as --out, whatever the locale's encoding
    for args in (["validate", "--spec", str(path)],
                 ["b92", "analyze", "--machine", str(path), "--vartheta", "0.5"],
                 ["b92", "curve", "--machines", f"meridional,{path}", "--overlap-min",
                  "0.1", "--overlap-max", "0.9", "--points", "3"]):
        res = spawn(*args, env=env)
        assert res.returncode == 0 and res.stderr == b"", args
        assert spawn(*args, "--out", str(report), env=env).returncode == 0
        assert res.stdout == report.read_bytes()
        assert "caf\u00e9".encode("utf-8") in res.stdout


@pytest.mark.parametrize("doc, drop, field", [
    ({"variant": "channel", "fidelity": "0.9"}, (), "fidelity"),
    ({"variant": "channel", "fidelity": True}, (), "fidelity"),
    ({"variant": "channel", "fidelity": 0.9, "name": 7}, (), "name"),
    ({"variant": "explicit", "apparatus_dim": 2.7}, (), "apparatus_dim"),
    ({"variant": "explicit", "apparatus_dim": "2"}, (), "apparatus_dim"),
    ({"variant": "explicit"}, ("variant",), "variant"),
    ({"variant": "implicit"}, (), "variant"),
    ({"variant": "explicit"}, ("Q0",), "q0"),
    ({"variant": "explicit"}, ("apparatus_dim",), "apparatus_dim"),
    ({"variant": "channel"}, (), "fidelity"),
], ids=["fidelity-string", "fidelity-bool", "name-int", "dim-float", "dim-string",
        "no-variant", "unknown-variant", "no-Q0", "no-dim", "no-fidelity"])
def test_malformed_spec_fields_exit_1(tmp_path, doc, drop, field):
    path = tmp_path / "malformed.json"
    if doc["variant"] != "channel":
        save_spec(meridional_spec(), path)
        doc = {**json.loads(path.read_text()), **doc}
    doc = {key: value for key, value in doc.items() if key not in drop}
    path.write_text(json.dumps(doc))
    for args in (("validate", "--spec", str(path)),
                 ("b92", "analyze", "--machine", str(path), "--vartheta", "0.5")):
        res = qclone(*args)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert field in res.stderr


def test_validate_failing_spec_exits_1(tmp_path):
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    doc = json.loads(path.read_text())
    doc["Y1"] = doc["Y0"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    # validate reports it (test_pinned_validate_outputs[failing]); every
    # other command refuses the file as invalid, in one line
    for argv in (["fidelity", "--machine", str(bad)],
                 ["b92", "analyze", "--machine", str(bad), "--vartheta", "0.7"],
                 ["b92", "simulate", "--machine", str(bad), "--vartheta", "0.7", "--n", "9",
                  "--seed", "1"],
                 ["b92", "curve", "--machines", f"meridional,{bad}", "--overlap-min", "0.1",
                  "--overlap-max", "0.9", "--points", "3"]):
        res = qclone(*argv)
        assert (res.returncode, res.stdout) == (1, ""), argv
        assert res.stderr == (f"error: invalid machine file {str(bad)!r}: spec violates "
                              "unitarity: residual y_orthogonality = 1.000e-01\n"), argv


def test_fidelity_channel_machine_constant():
    res = qclone("fidelity", "--machine", "universal", "--points", "3")
    values = {line.split(",")[1] for line in res.stdout.strip().split("\n")[1:]}
    assert values == {"0.833333333333"}


def test_fidelity_phi_flag_and_degrees():
    rad = qclone("fidelity", "--machine", "meridional", "--points", "7",
                 "--phi", "3.14159265358979")
    deg = qclone("fidelity", "--machine", "meridional", "--points", "7",
                 "--phi", "180", "--degrees")
    assert rad.returncode == 0 and deg.returncode == 0
    assert rad.stdout.split("\n")[0] == "theta,F"
    assert rad.stdout == deg.stdout


@pytest.mark.parametrize("machine", ["meridional", "universal"])
def test_fidelity_phi_domain_is_the_same_for_every_machine(machine):
    for flags in (["--phi", "99"], ["--phi", "-0.1"], ["--phi", "nan"],
                  ["--phi", "360", "--degrees"]):
        res = qclone("fidelity", "--machine", machine, "--points", "5", *flags)
        assert res.returncode == 2, flags
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    res = qclone("fidelity", "--machine", machine, "--points", "5",
                 "--phi", "359.9", "--degrees")
    assert res.returncode == 0
    assert res.stdout.split("\n")[0] == "theta,F"


def test_out_flag_writes_identical_bytes(tmp_path):
    target = tmp_path / "curve.csv"
    res = qclone("fidelity", "--machine", "meridional", "--points", "19",
                 "--out", str(target))
    assert res.returncode == 0
    assert res.stdout == ""
    piped = qclone("fidelity", "--machine", "meridional", "--points", "19")
    assert target.read_text() == piped.stdout


def test_scan_to_a_file_peaks_under_24_mb(tmp_path):
    # the 7 MB float table and 8.86 MB of text in chunks; a whole-table
    # string, a whole-table array of cell texts or an encoded copy of the
    # whole text would each add another 7-9 MB
    tracemalloc.start()
    try:
        status = cli.run(["scan", "--grid-steps", "56", "--out", str(tmp_path / "scan.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 24e6


def test_closed_stdout_is_one_error_line_and_exit_1():
    # a child process, since only a process can start with file descriptor 1 closed
    command = f"{shlex.quote(sys.executable)} -m qclone optimize --mode average >&-"
    res = subprocess.run(["sh", "-c", command], capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_broken_pipe_is_one_error_line_and_exit_1(unbuffered):
    # a child process, since the subject is its stdout pipe; unbuffered,
    # stdout.buffer is a raw file whose write() may take part of the table.
    # The table is larger than the 64 KB pipe buffer, so some of it is still
    # unwritten when the reader closes the pipe after one byte
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with subprocess.Popen([sys.executable, "-m", "qclone", "scan", "--grid-steps", "20"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(1) == b"z"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 1
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), stderr


def test_entry_point_freezes_the_imported_heap():
    # child processes, since the collector's state and the freeze belong to
    # the process: `python -m qclone` pauses the collector while numpy and the
    # package are imported, and the entry moves the objects the imports made to
    # the permanent generation, which the collections at interpreter shutdown
    # skip, and then enables the collector
    argv = ["optimize", "--mode", "average"]
    script = ("import atexit, gc, runpy, sys\n"
              "early = []  # collections that start before the freeze\n"
              "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
              "                    and not gc.get_freeze_count() and early.append(info))\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, 'early',\n"
              "                              len(early), 'enabled', gc.isenabled(),\n"
              "                              file=sys.stderr))\n"
              "runpy.run_module('qclone', run_name='__main__')\n")
    res = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True)
    assert res.returncode == 0
    assert res.stderr == b"frozen True early 0 enabled True\n"
    assert res.stdout == qclone(*argv).stdout.encode("utf-8")
    # importing the package from library code leaves the collector as it was
    for state in ("enable", "disable"):
        script = (f"import gc; gc.{state}(); before = gc.isenabled()\n"
                  "import qclone, qclone.cli\n"
                  "print(before, gc.isenabled())\n")
        res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert res.returncode == 0
        assert res.stdout == f"{state == 'enable'} {state == 'enable'}\n"


@functools.cache  # so each baseline interpreter runs once per session
def _imported(*args):
    """The modules `python -X importtime ARGS` lists as imported."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True)
    return {line.rpartition("|")[2].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, unwanted", [
    (["optimize", "--mode", "average"], {"qclone.b92", "qclone.rng", "json"}),
    (["validate", "--spec", "SPEC"], {"qclone.b92", "qclone.rng", "qclone.optimizer"}),
    (["fidelity", "--machine", "meridional", "--points", "1"],
     {"qclone.b92", "qclone.rng", "qclone.optimizer", "json"}),
    (["b92", "simulate", "--machine", "meridional", "--vartheta", "0.7", "--n", "1000",
      "--seed", "5"], {"qclone.optimizer", "json"}),
    (["scan", "--grid-steps", "6"], {"qclone.b92", "qclone.rng", "json", "numpy.ma"}),
    (["fidelity", "--machine", "meridional", "--points", "9"],
     {"qclone.b92", "qclone.rng", "qclone.optimizer", "json", "numpy.ma"}),
    (["b92", "curve", "--machines", "meridional,universal", "--overlap-min", "0.1",
      "--overlap-max", "0.9", "--points", "9"], {"qclone.optimizer", "json", "numpy.ma"}),
], ids=["optimize", "validate", "fidelity-error", "b92-simulate", "scan", "fidelity",
        "b92-curve"])
def test_commands_import_only_what_they_use(tmp_path, argv, unwanted):
    # child processes, since only a fresh interpreter shows what a command
    # imports; a module a bare interpreter imports as well is not the
    # command's, nor is one that numpy's own import brings. numpy 2's
    # np.unique without return_* flags calls np.ma.is_masked, which imports
    # numpy.ma at a start-up cost, and no table command needs it
    spec = tmp_path / "spec.json"
    save_spec(meridional_spec(), spec)
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    new = _imported("-m", "qclone", *argv) - _imported("-c", "pass")
    assert {"numpy", "qclone.machines", "qclone.cli"} <= new
    assert not new & (unwanted - _imported("-c", "import numpy"))


def test_csv_roundtrip_reemit_byte_identical():
    res = qclone("b92", "curve", "--machines", "meridional,universal",
                 "--overlap-min", "0.1", "--overlap-max", "0.9", "--points", "9")
    lines = res.stdout.rstrip("\n").split("\n")
    rebuilt = [lines[0]]
    for line in lines[1:]:
        rebuilt.append(",".join(format_float(float(cell)) for cell in line.split(",")))
    assert "\n".join(rebuilt) + "\n" == res.stdout


def test_b92_curve_labels_for_spec_files(tmp_path):
    path = tmp_path / "custom.json"
    save_spec(replace(meridional_spec(), name="stored"), path)
    res = qclone("b92", "curve", "--machines", f"meridional,{path}",
                 "--overlap-min", "0.2", "--overlap-max", "0.8", "--points", "3")
    assert res.returncode == 0
    header = res.stdout.split("\n")[0].split(",")
    assert header[0] == "overlap"
    assert header[1] == "I_meridional"
    # the file-based machine reports under its stored name, not the file's
    assert header[2] == "I_stored"
    # both columns carry the same physics
    row = res.stdout.split("\n")[1].split(",")
    assert row[1] == row[2] and row[3] == row[4]


@pytest.mark.parametrize("name, label", [("", "mystem"), ("stored", "stored"),
                                         ("my machine", "my_machine")])
def test_machine_label_is_the_same_in_every_command(tmp_path, name, label):
    path = str(tmp_path / "mystem.json")
    save_spec(replace(meridional_spec(), name=name), path)
    for argv in (["b92", "analyze", "--machine", path, "--vartheta", "0.5"],
                 ["b92", "simulate", "--machine", path, "--vartheta", "0.5",
                  "--n", "10", "--seed", "1"]):
        code, out, _ = qclone(*argv)
        assert code == 0
        assert out.split("\n")[0] == f"machine={label}"
    code, out, _ = qclone("b92", "curve", "--machines", path, "--overlap-min", "0.2",
                          "--overlap-max", "0.8", "--points", "2")
    assert code == 0
    assert out.split("\n")[0] == f"overlap,I_{label},D_{label}"


def test_b92_curve_repeated_labels_exit_2(tmp_path):
    for name in ("a.json", "b.json"):
        save_spec(channel_spec(0.9, "eve"), tmp_path / name)
    curve = ("b92", "curve", "--overlap-min", "0.2", "--overlap-max", "0.8", "--points", "3")
    for machines in ("meridional,universal,meridional",
                     f"{tmp_path / 'a.json'},{tmp_path / 'b.json'}"):
        res = qclone(*curve, "--machines", machines)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_csv_records_quote_separators_and_read_back(tmp_path):
    path, name = tmp_path / "ch,1.json", 'eve, "v2"'
    save_spec(channel_spec(0.9, name), path)
    for argv, expected in (
            (["b92", "analyze", "--machine", str(path), "--vartheta", "0.5"],
             {"machine": "eve___v2_"}),
            (["b92", "simulate", "--machine", str(path), "--vartheta", "0.5",
              "--n", "100", "--seed", "1"], {"machine": "eve___v2_"}),
            (["validate", "--spec", str(path)], {"file": str(path), "name": name})):
        code, out, _ = qclone(*argv, "--format", "csv")
        assert code == 0
        header, row = csv.reader(io.StringIO(out, newline=""))
        assert len(header) == len(row)
        fields = dict(zip(header, row))
        assert {k: fields[k] for k in expected} == expected


@pytest.mark.parametrize("name", ["x\nmachine=forged", "tab\there", "del\x7f", "\x85",
                                  "x\u2028passed=true", "x\u2029passed=true"])
def test_spec_names_with_control_characters_exit_1(tmp_path, name):
    path = tmp_path / "ctl.json"
    path.write_text(json.dumps({"name": name, "variant": "channel", "fidelity": 0.9}))
    for args in (("validate", "--spec", str(path)),
                 ("b92", "analyze", "--machine", str(path), "--vartheta", "0.5")):
        res = qclone(*args)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_spec_paths_with_control_characters_exit_1(tmp_path):
    # reports echo the path, so a line break in it would forge a record line
    path = tmp_path / "a\npassed=true.json"
    save_spec(meridional_spec(), path)
    assert path.exists()
    for args in (("validate", "--spec", str(path)),
                 ("b92", "simulate", "--machine", str(path), "--vartheta", "0.5",
                  "--n", "10", "--seed", "1")):
        res = qclone(*args)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("args", [
    ("scan", "--grid-steps", "3000"),
    ("fidelity", "--machine", "meridional", "--points", "1000000000"),
    ("b92", "curve", "--machines", "meridional,universal", "--overlap-min", "0.1",
     "--overlap-max", "0.9", "--points", "1000000000"),
], ids=["scan", "fidelity", "b92-curve"])
def test_requests_too_large_for_memory_exit_2(args):
    # a child process, whose address space is capped at 2 GiB, so each
    # allocation fails at once whatever the host's memory
    res = spawn(*args, preexec_fn=_cap_address_space,
                env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120, text=True)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


# The 2*10**6- and 196,613-trial reports were recorded before the fused
# RNG/outcome kernel, the tallies of the 1000- and 100,000-trial ones before
# the simulation moved onto the batched kernel. 2*10**6 trials is the
# benchmark's size; 3 * 2**16 + 5 trials leave a ragged last chunk. `none` is
# the ideal channel, so its 1000-trial run is also the library's ideal one.
@pytest.mark.parametrize("argv, text", [
    (("meridional", "0.7", "2000000", "2024"),
     "machine=meridional\nvartheta=0.7\nseed=2024\nn_trials=2000000\nconclusive=700455\n"
     "inconclusive=1299545\nerrors=65724\nconclusive_rate=0.3502275\n"
     "error_rate=0.0938304387862\n"),
    (("meridional", "0.7", "2000000", "18446744073709551615"),
     "machine=meridional\nvartheta=0.7\nseed=18446744073709551615\nn_trials=2000000\n"
     "conclusive=701396\ninconclusive=1298604\nerrors=65865\nconclusive_rate=0.350698\n"
     "error_rate=0.093905582581\n"),
    (("none", "0.7", "2000000", "2024"),
     "machine=none\nvartheta=0.7\nseed=2024\nn_trials=2000000\nconclusive=710896\n"
     "inconclusive=1289104\nerrors=0\nconclusive_rate=0.355448\nerror_rate=0\n"),
    (("none", "0.7", "2000000", "18446744073709551615"),
     "machine=none\nvartheta=0.7\nseed=18446744073709551615\nn_trials=2000000\n"
     "conclusive=712025\ninconclusive=1287975\nerrors=0\nconclusive_rate=0.3560125\n"
     "error_rate=0\n"),
    (("meridional", "0.7", "196613", "99"),
     "machine=meridional\nvartheta=0.7\nseed=99\nn_trials=196613\nconclusive=68901\n"
     "inconclusive=127712\nerrors=6449\nconclusive_rate=0.350439696256\n"
     "error_rate=0.0935980609861\n"),
    (("none", "0.6", "1000", "123"),
     "machine=none\nvartheta=0.6\nseed=123\nn_trials=1000\nconclusive=402\n"
     "inconclusive=598\nerrors=0\nconclusive_rate=0.402\nerror_rate=0\n"),
    (("meridional", "0.6", "1000", "123"),
     "machine=meridional\nvartheta=0.6\nseed=123\nn_trials=1000\nconclusive=375\n"
     "inconclusive=625\nerrors=28\nconclusive_rate=0.375\nerror_rate=0.0746666666667\n"),
    (("meridional", "0.35", "100000", "2024"),
     "machine=meridional\nvartheta=0.35\nseed=2024\nn_trials=100000\nconclusive=60809\n"
     "inconclusive=39191\nerrors=4001\nconclusive_rate=0.60809\nerror_rate=0.0657961814863\n"),
    (("equatorial", "1.1", "100000", "7"),
     "machine=equatorial\nvartheta=1.1\nseed=7\nn_trials=100000\nconclusive=23163\n"
     "inconclusive=76837\nerrors=7798\nconclusive_rate=0.23163\nerror_rate=0.336657600484\n"),
    (("wootters-zurek", "0.9", "100000", "31337"),
     "machine=wootters-zurek\nvartheta=0.9\nseed=31337\nn_trials=100000\nconclusive=55952\n"
     "inconclusive=44048\nerrors=17174\nconclusive_rate=0.55952\nerror_rate=0.306941664284\n"),
], ids=["meridional-2024", "meridional-max-seed", "none-2024", "none-max-seed",
        "ragged-chunk", "none-1000", "meridional-1000", "meridional-100000",
        "equatorial-100000", "wootters-zurek-100000"])
def test_simulate_reports_pinned(argv, text):
    machine, vartheta, n, seed = argv
    code, out, _ = qclone("b92", "simulate", "--machine", machine, "--vartheta", vartheta,
                          "--n", n, "--seed", seed)
    assert code == 0
    assert out == text


def test_simulate_csv_report_pinned():
    code, out, _ = qclone("b92", "simulate", "--machine", "equatorial", "--vartheta", "1.1",
                          "--n", "196613", "--seed", "99", "--format", "csv")
    assert code == 0
    assert out == (
        "machine,vartheta,seed,n_trials,conclusive,inconclusive,errors,"
        "conclusive_rate,error_rate\n"
        "equatorial,1.1,99,196613,45293,151320,15217,0.230366252486,0.33596803038\n")


def test_simulate_seed_outside_64_bits_is_a_usage_error():
    # the RNG reduces seeds modulo 2**64; outside [0, 2**64) the reported seed
    # would name another seed's run
    base = ("b92", "simulate", "--machine", "meridional", "--vartheta", "0.7", "--n", "1000")
    for seed in (-1, 2 ** 64):
        res = qclone(*base, "--seed", str(seed))
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    for seed in (0, 2 ** 64 - 1):
        res = qclone(*base, "--seed", str(seed))
        assert res.returncode == 0 and f"seed={seed}\n" in res.stdout


def test_deterministic_output_repeated_runs():
    # two child processes with different hash seeds, so the output does not
    # depend on anything that varies from one process to the next
    a = spawn("b92", "curve", "--machines", "meridional,universal,equatorial",
              "--overlap-min", "0.05", "--overlap-max", "0.95", "--points", "19",
              env={**os.environ, "PYTHONHASHSEED": "1"})
    b = spawn("b92", "curve", "--machines", "meridional,universal,equatorial",
              "--overlap-min", "0.05", "--overlap-max", "0.95", "--points", "19",
              env={**os.environ, "PYTHONHASHSEED": "2"})
    assert a.stdout == b.stdout
    assert a.returncode == 0


_FUZZ_FLOATS = ("nan", "inf", "-inf", "-0.0", "-1", "0", "1", "0.3", "1e308", "5e-324")
_FUZZ_SIZES = ("-3", "0", "1", "2", "20")


def test_cli_flag_fuzz_exits_cleanly(tmp_path):
    """Seeded in-process fuzz of every subcommand: a valid invocation with up
    to three flags dropped or set to values argparse accepts but that lie
    outside the domain. No exception escapes run, the status is 0, 1 or 2,
    and every error that argparse did not report is one `error:` line."""
    spec = tmp_path / "mer.json"
    save_spec(meridional_spec(), spec)
    broken = tmp_path / "broken.json"
    broken.write_text("{broken")
    paths = (str(spec), str(broken), str(tmp_path / "missing.json"), str(tmp_path))
    machine = ("universal", "none", "") + paths
    # flag -> (valid value, out-of-domain values)
    commands = {
        ("validate",): {"--spec": (paths[0], machine)},
        ("fidelity",): {"--machine": ("meridional", machine),
                        "--points": ("5", _FUZZ_SIZES), "--phi": ("1", _FUZZ_FLOATS)},
        ("optimize",): {"--mode": ("average", ("equal-fidelity",))},
        ("scan",): {"--grid-steps": ("3", _FUZZ_SIZES)},
        ("b92", "curve"): {
            "--machines": ("meridional,ideal", ("", ",", ",,", "universal,none",
                                                f"equatorial,{paths[2]}", f"ideal,{paths[3]}")),
            "--overlap-min": ("0.2", _FUZZ_FLOATS), "--overlap-max": ("0.8", _FUZZ_FLOATS),
            "--points": ("4", _FUZZ_SIZES)},
        ("b92", "analyze"): {"--machine": ("meridional", machine),
                             "--vartheta": ("0.7", _FUZZ_FLOATS)},
        ("b92", "simulate"): {"--machine": ("meridional", machine),
                              "--vartheta": ("0.7", _FUZZ_FLOATS),
                              "--n": ("100", ("-1", "0", "1", "10000")),
                              "--seed": ("5", ("-1", "0", str(2 ** 64)))},
    }
    extras = ("--degrees", "--format=csv", "--format=text", f"--out={tmp_path / 'out.txt'}",
              f"--out={tmp_path / 'no' / 'out.txt'}", f"--out={tmp_path}")
    names = list(commands)
    rng = np.random.default_rng(505)
    for _ in range(300):
        words = names[rng.integers(len(names))]
        flags = commands[words]
        fuzzed = set(rng.choice(list(flags), size=min(len(flags), rng.integers(0, 4)),
                                replace=False))
        argv = list(words)
        for flag, (valid, values) in flags.items():
            if flag not in fuzzed:
                argv.append(f"{flag}={valid}")
            elif rng.random() < 0.9:  # otherwise the flag is left out
                argv.append(f"{flag}={values[rng.integers(len(values))]}")
        if rng.random() < 0.5:
            argv.append(extras[rng.integers(len(extras))])
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.build_parser().parse_args(argv)
            parsed = True
        except SystemExit:
            parsed = False
        status, _, err = qclone(*argv)
        assert status in (0, 1, 2), argv
        if status == 1 or (status == 2 and parsed):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif status == 0:
            assert err == "", (argv, err)
