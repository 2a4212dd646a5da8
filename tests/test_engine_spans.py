"""The CLI's cooling runs go through the public engines the benchmark traces.

``bench/layers.py`` reads the spans of ``cooling.syndrome_mc_run`` (and from
it ``cooling.mc.cell_visit_ns``) and ``cooling.trajectory_run``.  A CLI path
that bypassed them would leave those metrics at 0 without failing anything,
so this guard counts the calls: each public engine is wrapped wherever a
rydsim module binds it, the way the tracer installs its spans.
"""

import sys

import pytest

from rydsim import cooling
from rydsim.cli import main

ENGINES = ("syndrome_mc_run", "trajectory_run")


@pytest.fixture
def calls(monkeypatch):
    counts = dict.fromkeys(ENGINES, 0)
    for name in ENGINES:
        original = getattr(cooling, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "rydsim" and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("engine,want", [
    ("syndrome", {"syndrome_mc_run": 1, "trajectory_run": 0}),
    ("trajectory", {"syndrome_mc_run": 0, "trajectory_run": 1}),
    ("compare", {"syndrome_mc_run": 1, "trajectory_run": 1}),
])
def test_toric_cool_runs_each_public_engine_once(calls, monkeypatch, capsys, engine, want):
    # one call per run, whatever the number of thetas
    monkeypatch.setenv("RYDSIM_WORKERS", "1")
    assert main(["toric-cool", "--engine", engine, "--lx", "2", "--ly", "2",
                 "--theta", "pi,pi/2", "--steps", "2", "--trajectories", "4",
                 "--q-init", "0", "--out", "-"]) == 0
    assert calls == want
