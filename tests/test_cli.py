import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qclone.machines import meridional_spec, save_spec
from qclone.textio import format_float

GOLDEN_DIR = Path(__file__).parent / "goldens"


def qclone(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "qclone", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.mark.parametrize("argv, golden", [
    (["b92", "analyze", "--machine", "meridional", "--vartheta", "0.7"],
     "b92_analyze_meridional.txt"),
    (["b92", "simulate", "--machine", "meridional", "--vartheta", "0.7",
      "--n", "1000", "--seed", "5"], "b92_simulate_meridional.txt"),
    (["scan", "--grid-steps", "4"], "scan_4.csv"),
    (["scan", "--grid-steps", "4", "--format", "text"], "scan_4.txt"),
    (["optimize", "--mode", "average", "--format", "csv"], "optimize_average.csv"),
], ids=["analyze", "simulate", "scan-csv", "scan-text", "optimize-average-csv"])
def test_pinned_outputs(argv, golden):
    res = subprocess.run([sys.executable, "-m", "qclone", *argv], capture_output=True)
    assert res.returncode == 0 and res.stderr == b""
    assert res.stdout == (GOLDEN_DIR / golden).read_bytes()


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
    res = subprocess.run([sys.executable, "-m", "qclone", "validate", "--spec", str(path)],
                         capture_output=True)
    assert res.returncode == status and res.stderr == b""
    assert res.stdout.replace(str(path).encode(), b"<spec>") == (
        GOLDEN_DIR / golden).read_bytes()


def test_usage_errors_exit_2():
    assert qclone().returncode == 2
    assert qclone("bogus").returncode == 2
    assert qclone("fidelity").returncode == 2               # missing --machine
    assert qclone("optimize", "--mode", "nope").returncode == 2
    assert qclone("optimize", "--mode", "average", "--grid-step", "0.4").returncode == 2
    assert qclone("b92").returncode == 2


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


@pytest.mark.parametrize("doc", [
    {"variant": "channel", "fidelity": "0.9"},
    {"variant": "channel", "fidelity": True},
    {"variant": "channel", "fidelity": 0.9, "name": 7},
    {"variant": "explicit", "apparatus_dim": 2.7},
    {"variant": "explicit", "apparatus_dim": "2"},
], ids=["fidelity-string", "fidelity-bool", "name-int", "dim-float", "dim-string"])
def test_malformed_spec_fields_exit_1(tmp_path, doc):
    path = tmp_path / "malformed.json"
    if doc["variant"] == "explicit":
        save_spec(meridional_spec(), path)
        doc = {**json.loads(path.read_text()), **doc}
    path.write_text(json.dumps(doc))
    for args in (("validate", "--spec", str(path)),
                 ("b92", "analyze", "--machine", str(path), "--vartheta", "0.5")):
        res = qclone(*args)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_validate_passing_spec(tmp_path):
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    res = qclone("validate", "--spec", str(path))
    assert res.returncode == 0
    assert "passed=true" in res.stdout
    assert "residual_row0_norm=0" in res.stdout


def test_validate_failing_spec_exits_1(tmp_path):
    import json
    path = tmp_path / "mer.json"
    save_spec(meridional_spec(), path)
    doc = json.loads(path.read_text())
    doc["Y1"] = doc["Y0"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    res = qclone("validate", "--spec", str(bad))
    assert res.returncode == 1
    assert "passed=false" in res.stdout


def test_fidelity_csv_shape_and_header():
    res = qclone("fidelity", "--machine", "meridional", "--points", "5")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "theta,F_east,F_west"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first == ["0", "0.9", "0.9"]


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
    save_spec(meridional_spec(), path)
    res = qclone("b92", "curve", "--machines", f"meridional,{path}",
                 "--overlap-min", "0.2", "--overlap-max", "0.8", "--points", "3")
    assert res.returncode == 0
    header = res.stdout.split("\n")[0].split(",")
    assert header[0] == "overlap"
    assert header[1] == "I_meridional"
    # the file-based machine reports under its stored name
    assert header[2] == "I_meridional"
    # both columns carry the same physics
    row = res.stdout.split("\n")[1].split(",")
    assert row[1] == row[2] and row[3] == row[4]


def test_simulate_matches_library_and_none_machine():
    res = qclone("b92", "simulate", "--machine", "none", "--vartheta", "0.6",
                 "--n", "1000", "--seed", "123")
    assert res.returncode == 0
    assert "conclusive=402" in res.stdout
    assert "errors=0" in res.stdout
    assert "machine=none" in res.stdout


def test_text_format_for_tables_and_csv_for_records():
    tabbed = qclone("fidelity", "--machine", "meridional", "--points", "3",
                    "--format", "text")
    assert "\t" in tabbed.stdout.split("\n")[0]
    rec = qclone("b92", "analyze", "--machine", "universal", "--vartheta", "0.5",
                 "--format", "csv")
    lines = rec.stdout.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("machine,vartheta,overlap,mutual_information,discrepancy")


def test_analyze_reports_discrepancy_constant():
    res = qclone("b92", "analyze", "--machine", "universal", "--vartheta", "0.9")
    assert "discrepancy=0.166666666667" in res.stdout


def test_scan_grid():
    res = qclone("scan", "--grid-steps", "3")
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "zeta,eta,kappa,feasible,avg_fidelity"
    assert len(lines) == 28
    assert lines[1] == "0,0,0,1,0.75"
    assert lines[2].endswith(",0,nan")


def test_deterministic_output_repeated_runs():
    a = qclone("b92", "curve", "--machines", "meridional,universal,equatorial",
               "--overlap-min", "0.05", "--overlap-max", "0.95", "--points", "19")
    b = qclone("b92", "curve", "--machines", "meridional,universal,equatorial",
               "--overlap-min", "0.05", "--overlap-max", "0.95", "--points", "19")
    assert a.stdout == b.stdout
    assert a.returncode == 0
