"""No command loads scipy or a process pool, and only a multi-worker run loads mmap.

``import rydsim.cli`` loads numpy and rydsim's own modules; pulses and the
master equation integrate in numpy, so no subcommand loads scipy.  A
multi-worker fan-out forks its workers itself, so no run loads
``multiprocessing`` or ``concurrent.futures``; it imports ``mmap`` for the
map its workers fill, at the probe's last run: seeing that load shows that
the probe sees what a run loads.  The checks run in a fresh interpreter,
since this test process has long since loaded all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydsim
from rydsim.cli import main

#: module prefixes no run loads
HEAVY = ("scipy", "multiprocessing", "concurrent.futures")
#: the module a multi-worker fan-out loads, and nothing before it
WITNESS = "mmap"

SERIAL = ["toric-cool", "--engine", "syndrome", "--lx", "2", "--ly", "2", "--theta", "pi",
          "--steps", "4", "--trajectories", "20"]
LAZY = {
    "gate-fidelity": ["gate-fidelity", "--durations", "13.1", "--blockade", "20"],
    "lindblad": ["toric-cool", "--engine", "lindblad", "--lx", "2", "--ly", "2",
                 "--theta", "pi/2", "--steps", "4", "--trajectories", "1"],
    "trajectory": ["toric-cool", "--engine", "trajectory", "--lx", "2", "--ly", "2",
                   "--theta", "pi", "--steps", "2", "--trajectories", "3"],
    "heisenberg": ["heisenberg", "--lx", "3", "--tau", "0.1", "--steps", "1"],
    "toric-evolve": ["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.3", "--steps", "1"],
    "hubbard-spectrum": ["hubbard-spectrum", "--lx", "2", "--ly", "2", "--encoding", "both"],
    "dump-hamiltonian": ["dump-hamiltonian", "--model", "toric", "--lx", "2", "--ly", "2"],
}
#: 130 trajectories, split over two workers
POOLED = ["toric-cool", "--engine", "syndrome", "--lx", "2", "--ly", "2", "--theta", "pi",
          "--steps", "2", "--trajectories", "130"]

SCRIPT = """
import json, os, sys
heavy, serial, lazy, pooled, out = json.loads(sys.argv[1])

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
os.environ["RYDSIM_WORKERS"] = "2"
report["pooled_status"] = cli.main(pooled + ["--out", os.path.join(out, "pooled.csv")])
report["pooled"] = loaded()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """What a fresh interpreter loaded and wrote, and where it wrote."""
    out = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ, PYTHONPATH=str(Path(rydsim.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         json.dumps([HEAVY + (WITNESS,), SERIAL, LAZY, POOLED, str(out)])],
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
    assert report["lazy"] == []  # no subcommand loads scipy
    warm = tmp_path / "warm.csv"
    assert main(LAZY[name] + ["--out", str(warm)]) == 0
    assert (out / f"{name}.csv").read_text() == warm.read_text()


def test_pooled_run_loads_no_pool_and_no_scipy(fresh):
    report, _ = fresh
    assert report["pooled_status"] == 0
    assert report["pooled"] == [WITNESS]  # the probe sees what a run loads
