"""Tests of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py

The worker and tracing tests run full workloads and take about two
minutes on a 2-core machine.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import checks  # noqa: E402
from layers import TARGETS, layer_metrics  # noqa: E402
from tracer import Tracer, tail_percentile  # noqa: E402
from workloads import WORKLOADS, run_experiment, run_pass  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench_out")


def _run(argv, out_dir):
    return run_experiment(tuple(argv.split()), SEED, 1, out_dir / "exp.out")


def _edit(out, text):
    return dataclasses.replace(out, text=text)


def _with_cell(out, row, col, value):
    lines = out.text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(value)
    lines[row + 1] = ",".join(cells)
    return _edit(out, "\n".join(lines) + "\n")


# -- output checks fire on injected defects -------------------------------

SMALL = {
    "compare": ("toric-cool --engine compare --lx 2 --ly 2 --theta pi,pi/2 "
                "--steps 6 --trajectories 40", checks.check_compare),
    "syndrome": ("toric-cool --engine syndrome --lx 4 --ly 4 --theta pi,pi/2,pi/4 "
                 "--steps 10 --trajectories 400", checks.check_syndrome),
    "lindblad": ("toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4,pi "
                 "--steps 5 --trajectories 1", checks.check_lindblad),
    "toric-evolve": ("toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 5 --order 2",
                     checks.check_toric_evolve),
    "heisenberg": ("heisenberg --lx 3 --ly 2 --jz 0.5 --field 0.3 --tau 0.05 "
                   "--steps 5 --order 2", checks.check_heisenberg),
    "hubbard-both": ("hubbard-spectrum --lx 2 --ly 1 --spinful true --u 4 "
                     "--encoding both", checks.check_hubbard_both),
    "hubbard-local": ("hubbard-spectrum --lx 2 --ly 2 --encoding local",
                      checks.check_hubbard_local),
    "gate-fidelity": ("gate-fidelity --durations 13.1,26.2 --blockade 20",
                      checks.check_gate_fidelity),
    "dump-toric": ("dump-hamiltonian --model toric --lx 4 --ly 3",
                   checks.check_dump_toric),
    "dump-local": ("dump-hamiltonian --model hubbard-local --lx 4 --ly 2 --spinful true",
                   checks.check_dump_hubbard_local),
}


@pytest.fixture(scope="module")
def small_outputs(out_dir):
    return {key: _run(argv, out_dir) for key, (argv, _) in SMALL.items()}


@pytest.mark.parametrize("key", sorted(SMALL))
def test_check_passes_on_real_output(small_outputs, key):
    assert SMALL[key][1](small_outputs[key]) == []


def _perturbed(key, out):
    """One defect per check: a CSV value moved, or a dump term dropped."""
    if key == "compare":  # trajectory mean shifted by 8 sigma, z kept consistent
        _, rows = checks.parse_csv(out.text)
        r = rows[3]
        shifted = r[4] - 8.0 * math.hypot(r[3], r[5]) - 1.0
        edited = _with_cell(out, 3, 4, shifted)
        z = abs(r[2] - shifted) / math.hypot(r[3], r[5])
        return _with_cell(edited, 3, 6, z)
    if key == "syndrome":  # a step that heats
        return _with_cell(out, 5, 3, checks.parse_csv(out.text)[1][4][3] + 0.5)
    if key == "lindblad":
        return _with_cell(out, 3, 3, checks.parse_csv(out.text)[1][3][3] + 1e-6)
    if key in ("toric-evolve", "heisenberg"):
        return _with_cell(out, 4, 2, checks.parse_csv(out.text)[1][4][2] + 2e-3)
    if key == "hubbard-both":
        return _with_cell(out, 7, 3, checks.parse_csv(out.text)[1][7][3] + 1e-6)
    if key == "hubbard-local":
        return _with_cell(out, 2, 2, checks.parse_csv(out.text)[1][2][2] + 1e-6)
    if key == "gate-fidelity":
        return _with_cell(out, 1, 1, checks.parse_csv(out.text)[1][1][1] * (1 + 1e-6))
    lines = out.text.splitlines(keepends=True)  # dumps: one term missing
    return _edit(out, "".join(lines[:-1]))


@pytest.mark.parametrize("key", sorted(SMALL))
def test_check_fires_on_perturbed_value(small_outputs, key):
    assert SMALL[key][1](_perturbed(key, small_outputs[key]))


def test_syndrome_check_fires_on_swapped_theta_order(small_outputs):
    out = small_outputs["syndrome"]
    header, *lines = out.text.splitlines()
    pi, quarter = repr(math.pi), repr(math.pi / 4)
    swapped = [ln.replace(f",{pi},", ",PI,").replace(f",{quarter},", f",{pi},")
               .replace(",PI,", f",{quarter},") for ln in lines]
    blocks = len(lines) // 3
    reordered = swapped[2 * blocks:] + swapped[blocks:2 * blocks] + swapped[:blocks]
    failures = checks.check_syndrome(_edit(out, "\n".join([header, *reordered]) + "\n"))
    assert any("curve above" in f for f in failures)


def test_compare_check_fires_on_wrong_cli_verdict(small_outputs):
    out = small_outputs["compare"]
    assert checks.check_compare(dataclasses.replace(
        out, status=1, stderr=out.stderr + " (3-sigma failure)"))


def test_dump_checks_fire_on_wrong_term_count(small_outputs):
    for key in ("dump-toric", "dump-local"):
        out = small_outputs[key]
        doubled = _edit(out, out.text + out.text.splitlines(keepends=True)[0])
        assert SMALL[key][1](doubled)


def test_bonferroni_threshold():
    assert checks.z_threshold(1) == pytest.approx(3.2905, abs=1e-4)
    assert checks.z_threshold(42) > checks.z_threshold(1)


# -- determinism across workers and under tracing -------------------------

def test_syndrome_configs_identical_at_one_and_two_workers(tmp_path):
    for exp in WORKLOADS["cool-syndrome"].experiments:
        a = run_experiment(exp.argv, SEED, 1, tmp_path / "a.out")
        b = run_experiment(exp.argv, SEED, 2, tmp_path / "b.out")
        assert a.status == b.status == 0
        assert a.text == b.text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_byte(name, tmp_path):
    workload = WORKLOADS[name]
    plain = run_pass(workload, SEED, tmp_path)
    tracer = Tracer(TARGETS)
    with tracer.installed():
        traced = run_pass(workload, SEED, tmp_path)
    assert tracer.span_count() > 0
    for exp, a, b in zip(workload.experiments, plain, traced):
        assert a.text == b.text, exp.argv
        assert exp.check(a) == []


# -- tracer ----------------------------------------------------------------

def test_tracer_records_parents_and_restores_originals():
    from rydsim import cooling, gates
    from rydsim.pauli import PauliString
    from rydsim.statevec import StateVector

    before = (gates.syndrome_map, cooling.syndrome_map, StateVector.apply_exp_pauli)
    tracer = Tracer(TARGETS)
    with tracer.installed():
        assert cooling.syndrome_map is gates.syndrome_map is not before[0]
        state = StateVector.zero_state(5)
        gates.syndrome_map(state, 4, PauliString.from_label("XXXXI"))
        gates.syndrome_map(state, 4, PauliString.from_label("ZZZZI"))
    assert (gates.syndrome_map, cooling.syndrome_map,
            StateVector.apply_exp_pauli) == before
    stats = tracer.stats()
    assert stats["gates.syndrome_map"].calls == 2
    assert stats["gates.controlled_string.perm"].calls == 1
    assert stats["gates.controlled_string.dense"].calls == 1
    assert stats["statevec.apply_exp_pauli"].calls == 4
    assert stats["statevec.apply_exp_pauli"].work == 4 * 32
    outer = stats["gates.syndrome_map"]
    assert 0.0 < outer.self_s < outer.total_s


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


# -- times at reference speed ------------------------------------------------

def test_speed_window_uses_jobs_inside_and_around_a_step():
    nominal = run.REF_NOMINAL_S
    sampler = run.SpeedSampler()
    sampler.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 2 * nominal),
                       (3.0, 3 * nominal), (4.0, 9 * nominal)]
    speed, sampling = sampler.window(0.5, 2.5)
    assert speed == pytest.approx(1 / 2.0)  # mean of 1, 2, 2 and 3
    assert sampling == pytest.approx(4 * nominal)
    speed, sampling = sampler.window(1.2, 1.8)  # no job inside
    assert speed == pytest.approx(1 / 2.0) and sampling == 0.0


def test_sampler_runs_jobs_only_while_active_and_restores_sigalrm():
    import signal
    import time

    with run.SpeedSampler(interval=0.05) as sampler:
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        with sampler.paused():
            before = len(sampler.samples)
            time.sleep(0.3)
            assert len(sampler.samples) == before
    assert len(sampler.samples) >= 6
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- the benchmark's contract ------------------------------------------------

def test_metric_lists_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    context = dict.fromkeys(("cycles", "cell_visits", "pool_fallbacks", "compare_flags",
                             "tracing_overhead_s", "spans"), 0)
    produced = layer_metrics({}, {}, context)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, m["unit"]) for name, m in produced.items()]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "toric-cool_s", "cycles_per_s", "peak_rss_mb"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "certify", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert run.OUT_DIR not in {p.name for p in tmp_path.iterdir()}
