"""``import rydsim.cli`` loads numpy and rydsim, not scipy or the process pool.

scipy loads at the first pulse or Lindblad integration and the pool at the
first multi-worker fan-out.  The checks run in a fresh interpreter, since
this test process has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydsim
from rydsim.cli import main

#: module prefixes only a pulse, a Lindblad run or a pool fan-out may load
HEAVY = ("scipy", "multiprocessing", "concurrent.futures.process")

SERIAL = ["toric-cool", "--engine", "syndrome", "--lx", "2", "--ly", "2", "--theta", "pi",
          "--steps", "4", "--trajectories", "20"]
LAZY = {
    "gate-fidelity": ["gate-fidelity", "--durations", "13.1"],
    "lindblad": ["toric-cool", "--engine", "lindblad", "--lx", "2", "--ly", "2",
                 "--theta", "pi/2", "--steps", "4", "--trajectories", "1"],
}

SCRIPT = """
import json, os, sys
heavy, serial, lazy, out = json.loads(sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in heavy))

import rydsim.cli as cli
report = {"import": loaded()}
os.environ["RYDSIM_WORKERS"] = "1"
report["serial_status"] = cli.main(serial + ["--out", os.path.join(out, "serial.csv")])
report["serial"] = loaded()
report["lazy_status"] = {name: cli.main(argv + ["--out", os.path.join(out, name + ".csv")])
                         for name, argv in lazy.items()}
report["lazy"] = loaded()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """What a fresh interpreter loaded and wrote, and where it wrote."""
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=str(Path(rydsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([HEAVY, SERIAL, LAZY, str(out)])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1]), out


def test_import_loads_no_scipy_or_pool(fresh):
    assert fresh[0]["import"] == []


def test_serial_syndrome_run_loads_no_scipy_or_pool(fresh):
    report, _ = fresh
    assert report["serial_status"] == 0
    assert report["serial"] == []


@pytest.mark.parametrize("name", sorted(LAZY))
def test_cold_lazy_import_writes_the_warm_csv(fresh, tmp_path, name):
    report, out = fresh
    assert report["lazy_status"][name] == 0
    assert "scipy.integrate" in report["lazy"]  # the probe sees what a run loads
    warm = tmp_path / "warm.csv"
    assert main(LAZY[name] + ["--out", str(warm)]) == 0
    assert (out / f"{name}.csv").read_text() == warm.read_text()
