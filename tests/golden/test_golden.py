"""Every artifact of the CLI battery equals its recorded SHA-256, at any
number of OpenBLAS threads."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permlearn

_spec = importlib.util.spec_from_file_location(
    "golden_battery", Path(__file__).with_name("battery.py")
)
battery = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(battery)

RECORDED = json.loads(battery.HASHES.read_text())


def check_versions():
    recorded, running = RECORDED["versions"], battery.versions()
    assert running == recorded, (
        f"hashes.json was recorded with {recorded}, this run has {running}; "
        f"re-record with `{RECORDED['record_command']}` and say why in CHANGES.md"
    )


def compare(got: dict, expected: dict):
    assert battery.diff(expected, got) == {"changed": [], "added": [], "removed": []}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    return path, battery.run_battery(path)


def test_artifacts_equal_the_recorded_hashes(workdir):
    check_versions()
    _, result = workdir
    compare(result["artifacts"], RECORDED["artifacts"])
    assert result["failures"] == RECORDED["failures"]


@pytest.mark.parametrize("blas_threads", ["1", "4", None])
def test_analyze_bytes_do_not_depend_on_blas_threads(workdir, blas_threads):
    check_versions()
    path, _ = workdir
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    src = str(Path(permlearn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(battery.__file__), "--only", "analyze", "--dir", str(path)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    expected = {
        name: digest
        for name, digest in RECORDED["artifacts"].items()
        if name.startswith(tuple(out + "/" for out in battery.ANALYZE_DIRS))
    }
    compare(result["artifacts"], expected)
    assert result["failures"] == {}
