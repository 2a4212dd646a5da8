"""Every function defined in ``src/rydsim`` runs in some command.

A fixed list of small command lines, one or more per subcommand, engine,
encoding and model, plus ``--init``, ``--observables`` and ``--config``,
runs through ``rydsim.cli.main`` in a fresh interpreter under a call
profile (``sys.setprofile``).  The profile is installed before ``import
rydsim``, so calls made at import time count too.  The runs use one
worker, since calls made inside forked workers are invisible to the
profile.  A ``def`` in ``src/rydsim/*.py``, at any nesting, that no line
calls fails the test, named by module and qualified name, unless
:data:`ALLOWED` or the benchmark's traced targets cover it.  Such code is
an oracle, which belongs in ``tests/``, or dead.

The same run pins every line's output bytes: its sha256 must be the one in
:data:`DIGESTS`, and the test names each line whose digest changed.  A
change that moves some output on purpose updates its digest and says so.
The :data:`WORKER_LINES` run again at two workers and must write the same
bytes.
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
    # read by bench/checks.py for its dump round trip
    "pauli.parse_operator",
}

LINES = [
    "toric-cool --engine syndrome --lx 3 --ly 2 --theta pi,pi/2 --steps 3 --trajectories 70",
    "toric-cool --engine trajectory --lx 2 --ly 2 --theta pi/2 --steps 2 --trajectories 3",
    "toric-cool --engine compare --lx 2 --ly 2 --theta pi --steps 2 --trajectories 4",
    # 12 system qubits, where the trajectory kernel is limited by memory traffic
    "toric-cool --engine compare --lx 3 --ly 2 --theta pi,pi/3 --steps 4 --trajectories 40",
    "toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4 --steps 2 --trajectories 1",
    # theta pi takes two substeps a step, the others one
    "toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4,pi/2,pi --steps 20 --trajectories 1 "
    "--q-init 0.3",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 2 --init 10000000 --observables z0,x3",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 1 --order 2",
    "heisenberg --lx 3 --ly 2 --jz 0.5 --field 0.3 --tau 0.1 --steps 2 --observables y1",
    "heisenberg --lx 3 --tau 0.1 --steps 1 --order 2",
    "hubbard-spectrum --lx 2 --ly 1 --spinful true --u 4 --encoding both",
    "hubbard-spectrum --lx 2 --ly 2 --encoding jw",
    "hubbard-spectrum --lx 2 --ly 2 --encoding fock",
    "hubbard-spectrum --lx 2 --ly 2 --encoding local",
    "hubbard-spectrum --lx 2 --ly 2 --spinful true --u 4 --encoding local",
    "hubbard-spectrum --lx 4 --ly 2 --encoding local",
    "gate-fidelity --durations 13.1 --blockade 20",
    "dump-hamiltonian --model toric --lx 2 --ly 2",
    "dump-hamiltonian --model heisenberg --lx 3 --ly 2",
    "dump-hamiltonian --model hubbard-jw --lx 2 --ly 2 --spinful true",
    "dump-hamiltonian --model hubbard-local --lx 2 --ly 2",
    "dump-hamiltonian --model aux --lx 2 --ly 2",
    # past the 2x2 lines: several arrows per column, a spinful local encoding,
    # and wider grid walks
    "dump-hamiltonian --model hubbard-local --lx 4 --ly 4 --spinful true",
    "dump-hamiltonian --model aux --lx 4 --ly 2 --spinful true",
    "dump-hamiltonian --model heisenberg --lx 4 --ly 3",
    "hubbard-spectrum --lx 5 --ly 2 --encoding both",
    "gate-fidelity --config {config}",
    # 130 trajectories each: run again at two workers, which take 65 each
    "toric-cool --engine syndrome --lx 3 --ly 3 --theta pi,pi/4 --steps 6 --trajectories 130",
    "toric-cool --engine trajectory --lx 2 --ly 2 --theta pi/2 --steps 4 --trajectories 130",
]

#: the lines that run again at RYDSIM_WORKERS=2, after the profile is off
WORKER_LINES = LINES[-2:]

#: sha256 of each line's output at --seed 0 (the default) and one worker
DIGESTS = {
    "toric-cool --engine syndrome --lx 3 --ly 2 --theta pi,pi/2 --steps 3 --trajectories 70":
        "b1a68848ca13b1f7db6fe9762344d999c15eeec3e2b3e2dc96c9ebbc05001626",
    "toric-cool --engine trajectory --lx 2 --ly 2 --theta pi/2 --steps 2 --trajectories 3":
        "9a1394ced8b1dc40314cf22986e234314d2d77b813a900d1ca06c7f649902b94",
    "toric-cool --engine compare --lx 2 --ly 2 --theta pi --steps 2 --trajectories 4":
        "47bc36f8378de504c491ca8cfbe504efcc7c2d01f90de1d24145093d5162a194",
    "toric-cool --engine compare --lx 3 --ly 2 --theta pi,pi/3 --steps 4 --trajectories 40":
        "4d1eec8fe94c4009a881d2896d48fd74b3800232675adba74a292bf7361e9d05",
    "toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4 --steps 2 --trajectories 1":
        "4bca6c56d327c0cd42b974a1cfeebb4fa182a59c5387ab63404ba1126de65968",
    "toric-cool --engine lindblad --lx 2 --ly 2 --theta 0.4,pi/2,pi --steps 20 --trajectories 1 "
    "--q-init 0.3":
        "3f4529e6cacaed14c1d36f556548b3706cb3eeca2f32f5c28f65e2049aaad4a5",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 2 --init 10000000 --observables z0,x3":
        "1b4b8e6614ed63c2c0cf0b2be2dc6d9709687b9dd1c8990772963ca43225009d",
    "toric-evolve --lx 2 --ly 2 --tau 0.3 --steps 1 --order 2":
        "1a14ea6321db2fbbf27cb63d6798e4955221e13a6abb3adaa198d873a0416bb6",
    "heisenberg --lx 3 --ly 2 --jz 0.5 --field 0.3 --tau 0.1 --steps 2 --observables y1":
        "f412aed9d73ed57dfdccf5332b87d10e31970e0b172f20a1e1f6313ac0ae92f6",
    "heisenberg --lx 3 --tau 0.1 --steps 1 --order 2":
        "e0aaaa21ffc6fbfdf9d867f2bea02fe3cbcd063cde1c745be8772766f93d216a",
    "hubbard-spectrum --lx 2 --ly 1 --spinful true --u 4 --encoding both":
        "3d40de68edf094a46105d0eec1b8386d6ce969e8a6040fa204dde227ad1f979f",
    "hubbard-spectrum --lx 2 --ly 2 --encoding jw":
        "5c107f99927bed9705506d03f23d114318293f6e91c206c5fd44f8cd7de7d739",
    "hubbard-spectrum --lx 2 --ly 2 --encoding fock":
        "ac1f0b2fbc43c7cb729914c7a4d7af16cef4a33f81897ae1aa468bc0bfbbca97",
    "hubbard-spectrum --lx 2 --ly 2 --encoding local":
        "65bf310c7c89605188bcd4035d3aaee33bbb89d9c25edeb07e7cd09efb3c9cdc",
    "hubbard-spectrum --lx 2 --ly 2 --spinful true --u 4 --encoding local":
        "f55572128726f110544576c0b0766e631649a91b732d5b9237c7e615230eb634",
    "hubbard-spectrum --lx 4 --ly 2 --encoding local":
        "26288857ee1a07d1c0c6e9f1deb9c4a35fec03fedbda15abd81400775462fd7f",
    "gate-fidelity --durations 13.1 --blockade 20":
        "725205460fd71e8a4ccc24cab1f7e46172c09ff4c5dd15eec40061f8829aad43",
    "dump-hamiltonian --model toric --lx 2 --ly 2":
        "8302dfa3b6fe42ab1aac429c36ab46dd33eeba66f6c53c0fde489a94217c2cbb",
    "dump-hamiltonian --model heisenberg --lx 3 --ly 2":
        "e63329b3436c5148be8ee564f416bc1f006986ea1b04dcae01d2eb2cb6f067d2",
    "dump-hamiltonian --model hubbard-jw --lx 2 --ly 2 --spinful true":
        "f6ba5b15b3056f2f4b3212f4ebf35e3ef9a80466a98dcf741346ac742402fc9c",
    "dump-hamiltonian --model hubbard-local --lx 2 --ly 2":
        "4bd1f0246948deb60298f41b5f82018906b9d2650838917fbc5a4886246567b4",
    "dump-hamiltonian --model aux --lx 2 --ly 2":
        "e444e5118d02a9cee161de972e2d8800ada6e4dc707036bcd90757ce6115fdf4",
    "dump-hamiltonian --model hubbard-local --lx 4 --ly 4 --spinful true":
        "2ae456fe5cbef0e64cf29982e32bcca74a60c0f578b35f7202997a7a465424e2",
    "dump-hamiltonian --model aux --lx 4 --ly 2 --spinful true":
        "92f5f78e227f713be81afd6841ea95fa30160f798e5251a0352450019526da2c",
    "dump-hamiltonian --model heisenberg --lx 4 --ly 3":
        "cc35a7640042b33436448eb5515c3597baf040ab166c5ee10feb61b2aa7b2105",
    "hubbard-spectrum --lx 5 --ly 2 --encoding both":
        "c7f14b1d7ef73566e5ce3ddc3d0e12d00c86383f139480f77355250d93fa1bc5",
    "gate-fidelity --config {config}":
        "cdf19cb7a31b10ee6f00f5f5c9a899ee701a20c5b855944eaf373e33d4c0a05a",
    "toric-cool --engine syndrome --lx 3 --ly 3 --theta pi,pi/4 --steps 6 --trajectories 130":
        "9c42c99ebdd416344697ede89bdb8315440fd530da60c8da4fc1f77977367146",
    "toric-cool --engine trajectory --lx 2 --ly 2 --theta pi/2 --steps 4 --trajectories 130":
        "58a800446c0693ae2491e8efecb6f140fbb9ed64e220cc75a33424ac4d281f17",
}

#: thread-count variables of the BLAS libraries numpy may load
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CONFIG = "command = gate-fidelity\ndurations = 13.1, 26.2\nblockade = inf\n"

SCRIPT = """
import hashlib, json, os, sys
package, lines, worker_lines, out = json.loads(sys.argv[1])
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

def run(lines, tag):
    paths = [os.path.join(out, "%s%d.csv" % (tag, k)) for k in range(len(lines))]
    return [rydsim.cli.main(line.split() + ["--out", path])
            for line, path in zip(lines, paths)], paths

os.environ["RYDSIM_WORKERS"] = "1"
sys.setprofile(profile)
import rydsim.cli
statuses, paths = run(lines, "")
sys.setprofile(None)
os.environ["RYDSIM_WORKERS"] = "2"
worker_statuses, worker_paths = run(worker_lines, "w")

def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

print(json.dumps({"statuses": statuses, "called": sorted(called),
                  "digests": [digest(path) for path in paths],
                  "worker_statuses": worker_statuses,
                  "worker_digests": [digest(path) for path in worker_paths]}))
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
    # one BLAS thread: a threaded eigensolver may round differently, and the
    # digests pin every byte
    env = dict(os.environ, PYTHONPATH=str(package.parent), **dict.fromkeys(BLAS_THREADS, "1"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         json.dumps([str(package), lines, WORKER_LINES, str(tmp_path)])],
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


def test_every_output_has_its_pinned_digest(report):
    changed = [line for line, digest in zip(LINES, report["digests"])
               if DIGESTS.get(line) != digest]
    assert not changed, f"outputs whose sha256 is not the pinned one: {changed}"


def test_multi_block_outputs_are_independent_of_workers(report):
    assert report["worker_statuses"] == [0] * len(WORKER_LINES)
    assert report["worker_digests"] == [report["digests"][LINES.index(line)]
                                        for line in WORKER_LINES]


def test_local_line_is_independent_of_blas_threads(tmp_path):
    # once tapered, this line diagonalizes number blocks of at most 24 states
    line = "hubbard-spectrum --lx 2 --ly 2 --encoding local".split()
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent),
                   **dict.fromkeys(BLAS_THREADS, threads))
        subprocess.run([sys.executable, "-m", "rydsim.cli", *line, "--out", str(out)],
                       env=env, capture_output=True, timeout=60, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
