"""Experiment harness: named subcommands, flat key=value config files,
seeded reproducibility, CSV emission.

Every run is fully determined by its configuration and seed; identical
config+seed gives byte-identical CSV, for the eigensolver command
``hubbard-spectrum`` at a fixed BLAS thread count, as a threaded eigensolver
rounds differently.  Timestamps and wall time go to stderr only.  Exit codes:
0 success, 1 runtime or statistical failure, 2 usage/configuration error,
also when a runner finds it.  The environment variable ``RYDSIM_WORKERS``
sets the worker count of both the quantum trajectory and the syndrome Monte
Carlo engines (default: machine parallelism).

Angles are accepted as multiples of pi ("pi", "pi/2", "0.25pi", "3pi/4")
or as raw radians.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cooling import (
    CoolingParams,
    equivalence_check,
    lindblad_reference_trace,
    syndrome_mc_run,
    trajectory_run,
)
from .fock import hubbard_matrix, sectors, spectrum
from .models import (
    HubbardSpec,
    ToricLattice,
    aux_pair_count,
    build_aux_hamiltonian,
    build_heisenberg,
    build_hubbard_jw,
    build_hubbard_local,
    build_toric,
    constrained_local_spectrum,
    grid_adjacency,
)
from .pauli import OperatorSum, PauliString, format_operator, to_matrices
from .pulse import PulseProfile, calibrate_area, gate_fidelity
from .statevec import StateVector
from .trotter import run as run_circuit
from .trotter import trotterize

WORKERS_ENV = "RYDSIM_WORKERS"


class ConfigError(Exception):
    """Invalid or missing configuration field."""


def _finite(value: float, text) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_float(text) -> float:
    return _finite(float(text), text)


def parse_angle(text: str) -> float:
    """Radians from "pi", "pi/2", "0.25pi", "-3pi/4", or a raw float."""
    s = str(text).strip().lower().replace(" ", "").replace("*", "")
    if "pi" in s:
        m = re.fullmatch(r"([+-]?\d*\.?\d*)pi(?:/(\d*\.?\d+))?", s)
        if not m:
            raise ValueError(f"cannot parse angle {text!r}")
        coeff_text = m.group(1)
        coeff = float(coeff_text) if coeff_text not in ("", "+", "-") else float(
            coeff_text + "1"
        )
        denom = float(m.group(2)) if m.group(2) else 1.0
        if denom == 0.0:
            raise ValueError(f"angle {text!r} divides by zero")
        return _finite(coeff * math.pi / denom, text)
    return _parse_float(s)


def _parse_blockade(text: str) -> float:
    s = str(text).strip().lower()
    if s in ("inf", "infinite", "infinity"):
        return math.inf
    return _parse_float(s)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    s = str(text).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _list_parser(item):
    def parse(text) -> list:
        values = [item(v) for v in str(text).split(",") if v.strip()]
        if not values:
            raise ValueError("expected at least one comma-separated value")
        return values
    return parse


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "anglelist": _list_parser(parse_angle),
    "floatlist": _list_parser(_parse_float),
    "bool": _parse_bool,
    "blockade": _parse_blockade,
}


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""
    #: the dump-hamiltonian models that read the field (empty: every model)
    models: tuple = ()


_COMMON = (
    Param("seed", "int", default=0, help="master seed for all randomness"),
)

COMMANDS: dict[str, tuple[Param, ...]] = {
    "toric-cool": _COMMON + (
        Param("lx", "int", required=True, help="plaquette grid width"),
        Param("ly", "int", required=True, help="plaquette grid height"),
        Param("theta", "anglelist", required=True,
              help="pump angle(s), e.g. 'pi' or 'pi,pi/2,pi/4'"),
        Param("steps", "int", required=True, help="number of cooling sweeps"),
        Param("trajectories", "int", required=True),
        Param("q-init", "float", default=0.5,
              help="initial excitation probability per stabilizer"),
        Param("engine", "str", default="syndrome",
              choices=("syndrome", "trajectory", "lindblad", "compare")),
    ),
    "toric-evolve": _COMMON + (
        Param("lx", "int", required=True),
        Param("ly", "int", required=True),
        Param("tau", "float", required=True, help="Trotter time step"),
        Param("steps", "int", required=True),
        Param("order", "int", default=1, choices=(1, 2)),
        Param("init", "str", default="",
              help="initial basis bitstring (qubit 0 first; default all zeros)"),
        Param("observables", "str", default="",
              help="comma list of single-qubit observables, e.g. 'z0,x3'"),
    ),
    "heisenberg": _COMMON + (
        Param("lx", "int", required=True, help="chain/grid width"),
        Param("ly", "int", default=1, help="grid height (1 = chain)"),
        Param("jx", "float", default=1.0),
        Param("jy", "float", default=1.0),
        Param("jz", "float", default=1.0),
        Param("field", "float", default=0.0, help="z-field strength"),
        Param("tau", "float", required=True),
        Param("steps", "int", required=True),
        Param("order", "int", default=1, choices=(1, 2)),
        Param("init", "str", default=""),
        Param("observables", "str", default=""),
    ),
    "hubbard-spectrum": _COMMON + (
        Param("lx", "int", required=True),
        Param("ly", "int", required=True),
        Param("t", "float", default=1.0, help="hopping energy"),
        Param("u", "float", default=0.0, help="on-site energy (spinful only)"),
        Param("spinful", "bool", default=False),
        Param("encoding", "str", default="both",
              choices=("jw", "fock", "both", "local")),
    ),
    "gate-fidelity": _COMMON + (
        Param("durations", "floatlist", required=True,
              help="comma list of pulse durations to sweep"),
        Param("omega-c", "float", default=2.0),
        Param("delta", "float", default=1.0),
        Param("blockade", "blockade", default=math.inf,
              help="Rydberg blockade shift; 'inf' for perfect blockade"),
    ),
    "dump-hamiltonian": _COMMON + (
        Param("model", "str", required=True,
              choices=("toric", "heisenberg", "hubbard-jw", "hubbard-local", "aux")),
        Param("lx", "int", required=True),
        Param("ly", "int", required=True),
        Param("jx", "float", default=1.0, models=("heisenberg",)),
        Param("jy", "float", default=1.0, models=("heisenberg",)),
        Param("jz", "float", default=1.0, models=("heisenberg",)),
        Param("field", "float", default=0.0, models=("heisenberg",)),
        Param("t", "float", default=1.0, models=("hubbard-jw", "hubbard-local")),
        Param("u", "float", default=0.0, models=("hubbard-jw", "hubbard-local")),
        Param("v-aux", "float", default=1.0, models=("hubbard-local", "aux")),
        Param("spinful", "bool", default=False, models=("hubbard-jw", "hubbard-local", "aux")),
    ),
}


def _parse_config_text(text: str) -> dict:
    out, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"config field {key!r} set twice: lines {first[key]} and {lineno}")
        out[key], first[key] = value, lineno
    return out


def _resolve_values(command: str, file_values: dict, flag_values: dict) -> dict:
    """Merge defaults < config file < flags, parsing and validating types."""
    params = {p.name: p for p in COMMANDS[command]}
    unknown = set(file_values) - set(params)
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
    values = {}
    for name, p in params.items():
        if flag_values.get(name) is not None:
            raw = flag_values[name]
        elif name in file_values:
            raw = file_values[name]
        elif p.required:
            raise ConfigError(f"missing required field {name!r}")
        else:
            values[name] = p.default
            continue
        if p.models and values["model"] not in p.models:  # 'model' is resolved first
            raise ConfigError(f"model {values['model']!r} does not read field {name!r}")
        try:
            value = _PARSERS[p.kind](raw) if isinstance(raw, str) else raw
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid value for field {name!r}: {exc}") from None
        if p.choices and value not in p.choices:
            raise ConfigError(
                f"field {name!r} must be one of {list(p.choices)}, got {value!r}"
            )
        values[name] = value
    if (command == "toric-cool" and values["engine"] == "lindblad"
            and (values["lx"], values["ly"], values["trajectories"]) != (2, 2, 1)):
        raise ConfigError("engine 'lindblad' integrates the single-plaquette 2x2 reference "
                          "system once, so fields 'lx', 'ly' and 'trajectories' must be 2, 2 "
                          f"and 1; got {values['lx']}, {values['ly']} and {values['trajectories']}")
    return values


# ---------------------------------------------------------------------
# runners: each takes the resolved values and returns
# (header, rows, key_result, exit_status)
# ---------------------------------------------------------------------

def _workers() -> int:
    """Worker count from RYDSIM_WORKERS; default: the CPUs this process may run on."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:  # cpu_count() would also count CPUs outside the affinity mask
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
            os.cpu_count() or 1)
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)`` for a runner's lattice, spec, profile or
    start state: the ValueError of bad input there is a usage error, found
    before any run; a cap it exceeds, a ``CapExceededError``, is not a
    ValueError and stays a runtime failure."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _run_toric_cool(cfg: dict):
    lattice = _checked(ToricLattice.build, cfg["lx"], cfg["ly"])
    params = _checked(CoolingParams, tuple(cfg["theta"]), cfg["steps"], cfg["trajectories"],
                      cfg["q-init"], cfg["seed"])
    workers = _workers()
    if cfg["engine"] == "compare":
        header = ["step", "theta", "mean_syndrome", "stderr_syndrome",
                  "mean_trajectory", "stderr_trajectory", "z"]
        reports = equivalence_check(lattice, params, workers)
        rows = [[step, rep.mc.theta, *values] for rep in reports for step, *values in zip(
            rep.mc.steps, rep.mc.mean_energy, rep.mc.stderr, rep.trajectory.mean_energy,
            rep.trajectory.stderr, rep.z_scores)]
        status = 0 if all(rep.passed for rep in reports) else 1
        worst = max(rep.max_abs_delta for rep in reports)
        result = f"max_abs_delta={worst:.3e} ({'ok' if status == 0 else 'the engines differ'})"
        return header, rows, result, status
    header = ["step", "theta", "engine", "mean_energy", "stderr"]
    if cfg["engine"] == "lindblad":
        traces = [lindblad_reference_trace(theta, cfg["steps"], cfg["q-init"])
                  for theta in params.thetas]
    else:
        run = syndrome_mc_run if cfg["engine"] == "syndrome" else trajectory_run
        traces = run(lattice, params, workers)
    rows = [[trace.steps[k], trace.theta, trace.engine, trace.mean_energy[k], trace.stderr[k]]
            for trace in traces for k in range(len(trace.steps))]
    return header, rows, f"final_mean_energy={traces[-1].mean_energy[-1]:.6f}", 0


def _parse_observables(text: str, n_qubits: int):
    obs = []
    for token in str(text).split(","):
        token = token.strip().lower()
        if not token:
            continue
        m = re.fullmatch(r"([xyz])(\d+)", token)
        if not m:
            raise ConfigError(f"invalid observable {token!r} (use e.g. 'z0')")
        qubit = int(m.group(2))
        if qubit >= n_qubits:
            raise ConfigError(f"observable qubit {qubit} out of range")
        obs.append((token, PauliString.single(n_qubits, qubit, m.group(1).upper())))
    return obs


def _evolution_rows(h, n_qubits, cfg, extra_columns=()):
    if cfg["steps"] < 0:
        raise ConfigError(f"steps must be non-negative, got {cfg['steps']}")
    circuit = trotterize(h, cfg["tau"], cfg["order"])
    state = _checked(StateVector.basis_state, n_qubits, cfg["init"] or 0)
    obs = _parse_observables(cfg["observables"], n_qubits)
    header = ["step", "time", "energy"]
    header += [name for name, _ in extra_columns]
    header += [name for name, _ in obs]
    rows = []
    for step in range(cfg["steps"] + 1):
        if step:
            state = run_circuit(circuit, state)
        row = [step, step * cfg["tau"], state.expectation(h)]
        row += [state.expectation(op) for _, op in extra_columns]
        row += [float(state.expectation_string(p).real) for _, p in obs]
        rows.append(row)
    return header, rows, f"final_energy={rows[-1][2]:.6f}", 0


def _run_toric_evolve(cfg: dict):
    h, lattice = _checked(build_toric, cfg["lx"], cfg["ly"])
    return _evolution_rows(h, lattice.n_edges, cfg)


def _heisenberg(cfg: dict):
    """(H, n_qubits) of the Heisenberg grid."""
    n = cfg["lx"] * cfg["ly"]
    adjacency = _checked(grid_adjacency, cfg["lx"], cfg["ly"])
    return build_heisenberg(adjacency, cfg["jx"], cfg["jy"], cfg["jz"],
                            cfg["field"], n_qubits=n), n


def _run_heisenberg(cfg: dict):
    h, n = _heisenberg(cfg)
    total_z = OperatorSum(
        [(1.0, PauliString.single(n, q, "Z")) for q in range(n)], n
    )
    return _evolution_rows(h, n, cfg, extra_columns=[("total_z", total_z)])


def _hubbard_spec(cfg: dict) -> HubbardSpec:
    """The spec of the Hubbard fields; only dump-hamiltonian sets 'v-aux'."""
    return _checked(HubbardSpec, cfg["lx"], cfg["ly"], cfg["t"], cfg["u"],
                    cfg.get("v-aux", HubbardSpec.v_aux), cfg["spinful"])


def _run_hubbard_spectrum(cfg: dict):
    spec = _hubbard_spec(cfg)
    encoding = cfg["encoding"]
    if encoding == "local":  # the aux geometry, then the tapered 12-qubit cap, before the Fock cap
        w_local = spec.v_aux * _checked(aux_pair_count, spec) + constrained_local_spectrum(spec)
    blocks = sectors(spec)  # checks the Fock mode cap before any matrix
    encodings = {"both": ("jw", "fock"), "local": ("jw",)}.get(encoding, (encoding,))
    jw = build_hubbard_jw(spec) if "jw" in encodings else None  # realized one sector at a time
    fock = hubbard_matrix(spec) if "fock" in encodings else None
    columns = [[np.sort(np.linalg.eigvalsh(m)) for m in to_matrices(jw, [i for _, i in blocks])]
               if e == "jw" else [spectrum(fock, i) for _, i in blocks] for e in encodings]
    both = encoding == "both"  # then each row ends in its abs_delta
    header = ["index", "sector", *(f"eigenvalue_{e}" for e in encodings)] + ["abs_delta"] * both
    rows = [[label, *vals, *([abs(vals[0] - vals[1])] if both else [])]
            for (label, _), *levels in zip(blocks, *columns) for vals in zip(*levels)]
    if encoding == "local":  # each local level against its own Jordan-Wigner level, in order
        header = ["index", "eigenvalue_jw", "eigenvalue_local_shifted", "abs_delta"]
        rows = [[a, b, abs(a - b)] for a, b in zip(sorted(r[1] for r in rows), w_local, strict=True)]
    rows = [[index, *row] for index, row in enumerate(rows)]
    result = (f"max_abs_delta={max(row[-1] for row in rows):.3e}" if header[-1] == "abs_delta"
              else f"levels={len(rows)}")
    return header, rows, result, 0


def _run_gate_fidelity(cfg: dict):
    header = ["T", "x_max", "V", "f_zero", "f_rydberg", "leak_R"]
    rows = []
    for duration in cfg["durations"]:
        profile = _checked(PulseProfile, 1.0, duration, cfg["omega-c"], cfg["delta"],
                           cfg["blockade"])
        try:  # amplitude rescaled to area pi, the gate's target
            profile = calibrate_area(profile)
        except ValueError as exc:  # the area reads every field but the blockade
            raise ConfigError(f"fields 'durations', 'omega-c', 'delta': {exc}") from None
        try:
            f_zero, f_rydberg, leak = gate_fidelity(profile)
        except ValueError as exc:
            raise ConfigError(f"fields 'durations', 'omega-c', 'delta', 'blockade': {exc}") from None
        rows.append([duration, profile.x_max, profile.blockade,
                     f_zero, f_rydberg, leak])
    return header, rows, f"f_zero_last={rows[-1][3]:.6f}", 0


def _run_dump_hamiltonian(cfg: dict):
    model = cfg["model"]
    if model == "toric":
        h, _ = _checked(build_toric, cfg["lx"], cfg["ly"])
    elif model == "heisenberg":
        h, _ = _heisenberg(cfg)
    else:
        build = {"hubbard-jw": build_hubbard_jw, "hubbard-local": build_hubbard_local,
                 "aux": build_aux_hamiltonian}[model]
        h = _checked(build, _hubbard_spec(cfg))
    return None, format_operator(h), f"terms={len(h)}", 0


_RUNNERS = {
    "toric-cool": _run_toric_cool,
    "toric-evolve": _run_toric_evolve,
    "heisenberg": _run_heisenberg,
    "hubbard-spectrum": _run_hubbard_spectrum,
    "gate-fidelity": _run_gate_fidelity,
    "dump-hamiltonian": _run_dump_hamiltonian,
}


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_output(header, rows, path: str):
    if header is None:
        text = rows  # pre-formatted text artifact (operator dump)
    else:
        lines = [",".join(header)]
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def build_parser(command=None) -> argparse.ArgumentParser:  # with command, its parser only
    parser = argparse.ArgumentParser(
        prog="rydsim",
        description="Digital simulation experiments: Trotterized lattice models, "
                    "pulse-level gate sweeps, and dissipative toric-code cooling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in [command] if command else COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None,
                       help="key = value file; flags override file values")
        p.add_argument("--out", default="-", help="output path ('-' = stdout)")
        for param in COMMANDS[name]:
            p.add_argument(f"--{param.name}", default=None, dest=param.name,
                           help=param.help or param.name, metavar=param.kind.upper())
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        file_values = {}
        if args.config:
            with open(args.config) as fh:
                file_values = _parse_config_text(fh.read())
            command = file_values.pop("command", args.command)
            if command != args.command:
                raise ConfigError(f"config file is for {command!r}, not {args.command!r}")
        flags = {p.name: getattr(args, p.name) for p in COMMANDS[args.command]}
        cfg = _resolve_values(args.command, file_values, flags)
        _workers()  # a bad worker count is a usage error, caught before any work
    except (ConfigError, OSError) as exc:
        print(f"rydsim: error: {exc}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        header, rows, result, status = _RUNNERS[args.command](cfg)
        _write_output(header, rows, args.out)
    except ConfigError as exc:  # bad input a runner finds is still a usage error
        print(f"rydsim: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure -> exit 1 with a diagnostic
        print(f"rydsim: {args.command} failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    print(
        f"[rydsim] {args.command}: {wall:.2f}s seed={cfg['seed']} {result}",
        file=sys.stderr,
    )
    return status


if __name__ == "__main__":
    sys.exit(main())
