"""The benchmark's workloads and the pass that runs one of them.

A workload is a fixed list of CLI experiments plus the ``RYDSIM_WORKERS``
value it runs at.  One pass calls ``rydsim.cli.main`` once per experiment,
inside this process, with the workload's seed, and keeps each output's
text, exit status, captured stderr and wall time.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

WORKERS_ENV = "RYDSIM_WORKERS"


@dataclass(frozen=True)
class Experiment:
    argv: tuple[str, ...]
    check: Callable
    #: exit statuses that are not failures; compare exits 1 on its own
    #: 3-sigma verdict, which check_compare records and cross-checks
    statuses: tuple[int, ...] = (0,)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    experiments: tuple[Experiment, ...]


@dataclass
class Output:
    argv: tuple[str, ...]
    status: int
    text: str
    stderr: str
    seconds: float
    #: time.perf_counter() when the call started
    started: float


def _exp(cmdline: str, check, statuses=(0,)) -> Experiment:
    return Experiment(tuple(cmdline.split()), check, statuses)


WORKLOADS = {
    w.name: w
    for w in (
        # Criterion 09 at a tenth of its trajectories: 9-qubit trajectories,
        # per-gate overhead and the dense star-cycle fallback; the MC half
        # is under 1% of the time.
        Workload("cool-trajectory", 1, (
            _exp("toric-cool --engine compare --lx 2 --ly 2 --theta pi,pi/2 "
                 "--steps 20 --trajectories 50", checks.check_compare, (0, 1)),
        )),
        # Syndrome MC only, through the process pool: many short
        # trajectories (criterion 08) and few large lattices.
        Workload("cool-syndrome", 2, (
            _exp("toric-cool --engine syndrome --lx 4 --ly 4 --theta pi,pi/2,pi/4 "
                 "--steps 40 --trajectories 1000", checks.check_syndrome),
            _exp("toric-cool --engine syndrome --lx 32 --ly 32 --theta pi,pi/4 "
                 "--steps 40 --trajectories 100", checks.check_syndrome),
        )),
        # Unitary gates at 12 qubits plus every layer the cooling
        # workloads skip: pauli, models, fock, trotter, pulse, Lindblad.
        Workload("certify", 1, (
            _exp("heisenberg --lx 4 --ly 3 --jz 0.5 --field 0.3 --tau 0.05 "
                 "--steps 60 --order 2", checks.check_heisenberg),
            _exp("toric-evolve --lx 3 --ly 2 --tau 0.3 --steps 150 --order 2",
                 checks.check_toric_evolve),
            _exp("hubbard-spectrum --lx 2 --ly 2 --spinful true --u 4 --encoding both",
                 checks.check_hubbard_both),
            _exp("hubbard-spectrum --lx 5 --ly 2 --encoding both",
                 checks.check_hubbard_both),
            _exp("hubbard-spectrum --lx 2 --ly 2 --encoding local",
                 checks.check_hubbard_local),
            _exp("gate-fidelity --durations 13.1,26.2,52.4,104.7,209.4,418.9 "
                 "--blockade 20", checks.check_gate_fidelity),
            _exp("toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4,pi/2,pi "
                 "--steps 100 --trajectories 1", checks.check_lindblad),
            _exp("dump-hamiltonian --model toric --lx 32 --ly 32",
                 checks.check_dump_toric),
            _exp("dump-hamiltonian --model hubbard-local --lx 8 --ly 8 --spinful true",
                 checks.check_dump_hubbard_local),
        )),
    )
}


def cooling_work(argv) -> tuple[int, int]:
    """(cooling-cycle attempts, syndrome-MC cell visits) of one experiment.

    A cycle attempt is one cell visited in one sweep of one trajectory, on
    every engine; the Lindblad reference system is one plaquette with one
    density matrix.
    """
    if argv[0] != "toric-cool":
        return 0, 0
    engine = checks.option(argv, "--engine", "syndrome")
    n_theta = len(checks.thetas(argv))
    steps = int(checks.option(argv, "--steps"))
    if engine == "lindblad":
        return n_theta * steps, 0
    cells = 2 * int(checks.option(argv, "--lx")) * int(checks.option(argv, "--ly"))
    per_engine = n_theta * steps * int(checks.option(argv, "--trajectories")) * cells
    if engine == "compare":
        return 2 * per_engine, per_engine
    return per_engine, per_engine if engine == "syndrome" else 0


def run_experiment(argv, seed: int, workers: int, out_path: Path) -> Output:
    """Run one CLI experiment in this process and collect its output."""
    from rydsim import cli

    full = [*argv, "--seed", str(seed), "--out", str(out_path)]
    saved = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(workers)
    err = io.StringIO()
    out_path.unlink(missing_ok=True)
    try:
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                status = cli.main(full)
            except SystemExit as exc:  # argparse usage errors
                status = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - t0
    finally:
        if saved is None:
            os.environ.pop(WORKERS_ENV, None)
        else:
            os.environ[WORKERS_ENV] = saved
    text = out_path.read_text() if out_path.is_file() else ""
    return Output(tuple(argv), int(status), text, err.getvalue(), seconds, t0)


def run_pass(workload: Workload, seed: int, out_dir: Path,
             around=contextlib.nullcontext) -> list[Output]:
    """Every experiment of the workload once, in order, each inside
    ``around()``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for k, exp in enumerate(workload.experiments):
        with around():
            outputs.append(run_experiment(exp.argv, seed, workload.workers,
                                          out_dir / f"{workload.name}-{k}.out"))
    return outputs
