"""scripts/report_diff.py: identical output trees exit 0, and a changed
report field or CSV column exits 1 with that field or column named."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dsm import run_experiment

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_diff.py"
CONFIG = {"kind": "lemma-sim", "a": 0.5, "b": {"kind": "power", "exponent": 1.0}, "horizon": 20}


def report_diff(old, new):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(SCRIPT), str(old), str(new)],
        capture_output=True,
        text=True,
    )
    assert proc.stderr == ""
    return proc.returncode, proc.stdout


def change_observed(tree):
    path = tree / "report.json"
    report = json.loads(path.read_text())
    report["runs"][0]["checks"][0]["observed"] *= 1.5
    path.write_text(json.dumps(report))


def change_majorant(tree):
    path = tree / "sequences.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) * 2.0)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def change_pass_flag(tree):
    path = tree / "report.json"
    report = json.loads(path.read_text())
    report["checks_pass"] = False
    path.write_text(json.dumps(report))


@pytest.mark.parametrize(
    "change, named",
    [
        (change_observed, "report.json: runs[lemma-sim].checks[induction-chain].observed"),
        (change_majorant, "sequences.csv: majorant"),
        (change_pass_flag, "report.json: checks_pass: True != False"),
    ],
    ids=["float-field", "csv-column", "pass-flag"],
)
def test_identical_trees_pass_and_a_changed_field_is_named(tmp_path, change, named):
    for side in ("old", "new"):
        run_experiment(CONFIG, tmp_path / side / "lemma")
    status, out = report_diff(tmp_path / "old", tmp_path / "new")
    assert status == 0, out
    assert "2 files compared: 0 mismatches, 0 float fields changed" in out

    shutil.copytree(tmp_path / "new", tmp_path / "changed")
    change(tmp_path / "changed" / "lemma")
    status, out = report_diff(tmp_path / "old", tmp_path / "changed")
    assert status == 1
    assert named in out
