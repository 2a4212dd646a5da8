"""Every function defined in ``src/rydsim`` runs in some command.

A fixed list of small command lines, one or more per subcommand, engine,
encoding and model, plus ``--init``, ``--observables`` and ``--config``,
runs through ``rydsim.cli.main`` in a fresh interpreter under a call
profile (``sys.setprofile``).  The profile is installed before ``import
rydsim``, so calls made at import time count too.  The runs use one
worker, since calls made inside pool children are invisible to the
profile.  A ``def`` in ``src/rydsim/*.py``, at any nesting, that no line
calls fails the test, named by module and qualified name, unless
:data:`ALLOWED` or the benchmark's traced targets cover it.  Such code is
an oracle, which belongs in ``tests/``, or dead.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydsim

PACKAGE = Path(rydsim.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"

#: functions no command runs, one reason per group; nothing else goes here
ALLOWED = {
    # subjects of acceptance criteria 06 (faulty gate) and 10 (duration
    # calibration), with their helpers
    "gates.faulty_gate", "statevec.StateVector.apply_operator",
    "pulse.calibrate_duration",
    # the Hadamard-framed hopping sequence, until lattice fermions are Trotterized
    "gates.hopping_step",
    # read by bench/checks.py for its dump round trip
    "pauli.parse_operator",
}

LINES = [
    "toric-cool --engine syndrome --lx 3 --ly 2 --theta pi,pi/2 --steps 3 --trajectories 70",
    "toric-cool --engine trajectory --lx 2 --ly 2 --theta pi/2 --steps 2 --trajectories 3",
    "toric-cool --engine compare --lx 2 --ly 2 --theta pi --steps 2 --trajectories 4",
    "toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4 --steps 2 --trajectories 1",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 2 --init 10000000 --observables z0,x3",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 1 --order 2",
    "heisenberg --lx 3 --ly 2 --jz 0.5 --field 0.3 --tau 0.1 --steps 2 --observables y1",
    "heisenberg --lx 3 --tau 0.1 --steps 1 --order 2",
    "hubbard-spectrum --lx 2 --ly 1 --spinful true --u 4 --encoding both",
    "hubbard-spectrum --lx 2 --ly 2 --encoding jw",
    "hubbard-spectrum --lx 2 --ly 2 --encoding fock",
    "hubbard-spectrum --lx 2 --ly 2 --encoding local",
    "gate-fidelity --durations 13.1 --blockade 20",
    "dump-hamiltonian --model toric --lx 2 --ly 2",
    "dump-hamiltonian --model heisenberg --lx 3 --ly 2",
    "dump-hamiltonian --model hubbard-jw --lx 2 --ly 2 --spinful true",
    "dump-hamiltonian --model hubbard-local --lx 2 --ly 2",
    "dump-hamiltonian --model aux --lx 2 --ly 2",
    "gate-fidelity --config {config}",
]

CONFIG = "command = gate-fidelity\ndurations = 13.1, 26.2\nblockade = inf\n"

SCRIPT = """
import json, os, sys
package, lines, out = json.loads(sys.argv[1])
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

os.environ["RYDSIM_WORKERS"] = "1"
sys.setprofile(profile)
import rydsim.cli
statuses = [rydsim.cli.main(line.split() + ["--out", os.path.join(out, "%d.csv" % k)])
            for k, line in enumerate(lines)]
sys.setprofile(None)
print(json.dumps({"statuses": statuses, "called": sorted(called)}))
"""


def _defs(node, prefix, found, file_name):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            found[file_name, first] = name
            _defs(child, name, found, file_name)
        else:
            inner = f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix
            _defs(child, inner, found, file_name)


def defined(package: Path) -> dict:
    """``{(file name, first line of the code object): "module.qualname"}``
    for every ``def`` in the package; a decorated function's code starts
    at its first decorator."""
    found = {}
    for path in sorted(package.glob("*.py")):
        _defs(ast.parse(path.read_text()), path.stem, found, path.name)
    return found


def traced_names() -> set:
    """``module.qualname`` of every function the benchmark's tracer wraps."""
    sys.path.insert(0, str(BENCH))
    try:
        from layers import TARGETS
    finally:
        sys.path.remove(str(BENCH))
    return {f"{t.module.rpartition('.')[2]}.{t.attr}" for t in TARGETS}


def profile_lines(package: Path, tmp_path: Path) -> dict:
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG)
    lines = [line.format(config=config) for line in LINES]
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([str(package), lines, str(tmp_path)])],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def unreached(package: Path, report: dict) -> list:
    called = {tuple(pair) for pair in report["called"]}
    exempt = ALLOWED | traced_names()
    return sorted(name for key, name in defined(package).items()
                  if key not in called and name not in exempt
                  and not name.endswith(".__repr__"))


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return profile_lines(PACKAGE, tmp_path_factory.mktemp("reached"))


def test_every_line_succeeds(report):
    assert report["statuses"] == [0] * len(LINES)


def test_profile_sees_import_time_calls(report):
    # cli builds its list parsers at import, before any command runs
    names = defined(PACKAGE)
    assert "cli._list_parser" in {names.get(tuple(pair)) for pair in report["called"]}


def test_allowed_names_are_defined():
    # a stale entry would exempt whatever is later defined under its name
    stale = sorted(ALLOWED - set(defined(PACKAGE).values()))
    assert not stale, f"ALLOWED names no def in src/rydsim: {stale}"


def test_every_function_runs_in_a_command(report):
    missing = unreached(PACKAGE, report)
    assert not missing, f"defined in src/rydsim but run by no command: {missing}"
