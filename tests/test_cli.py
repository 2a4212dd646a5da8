import math
import tracemalloc

import numpy as np
import pytest

from rydsim import cooling
from rydsim.cli import main, parse_angle
from rydsim.pauli import parse_operator
from rydsim.models import build_toric


# -- angle parsing -------------------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("0.25pi", math.pi / 4),
        ("3pi/4", 3 * math.pi / 4),
        ("-pi/2", -math.pi / 2),
        ("2*pi", 2 * math.pi),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value)


def test_parse_angle_raw_radians():
    assert parse_angle("1.25") == pytest.approx(1.25)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("pie")


# -- config handling -------------------------------------------------------------

def test_config_missing_field(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = toric-cool\n")
    assert main(["toric-cool", "--config", str(cfg), "--out", "-"]) == 2
    assert "missing required field 'lx'" in capsys.readouterr().err


def test_config_unknown_field(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = toric-cool\nbogus = 3\nlx = 2\nly = 2\n"
                   "theta = pi\nsteps = 1\ntrajectories = 1\n")
    assert main(["toric-cool", "--config", str(cfg), "--out", "-"]) == 2
    assert "unknown config field 'bogus'" in capsys.readouterr().err


def test_empty_config_file_usage_error(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    status = main(["toric-cool", "--config", str(cfg)])
    assert status == 2
    assert "missing required field" in capsys.readouterr().err


def test_no_command_usage_error(capsys):
    assert main([]) == 2


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "lx = 2\nly = 2\ntheta = pi\nsteps = 2\ntrajectories = 4\nseed = 1\n"
    )
    out = tmp_path / "a.csv"
    assert main(["toric-cool", "--config", str(cfg), "--steps", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,theta,engine,mean_energy,stderr"
    assert len(lines) == 1 + 4  # steps 0..3


# -- experiment runs ----------------------------------------------------------------

def test_toric_cool_deterministic_output(tmp_path):
    args = ["toric-cool", "--lx", "3", "--ly", "3", "--theta", "pi/2",
            "--steps", "4", "--trajectories", "16", "--seed", "5"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_toric_cool_multi_theta_rows(tmp_path):
    out = tmp_path / "multi.csv"
    assert main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi,pi/2",
                 "--steps", "2", "--trajectories", "4", "--seed", "0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    thetas = {line.split(",")[1] for line in lines[1:]}
    assert len(thetas) == 2


def test_toric_cool_syndrome_thetas_run_together(tmp_path):
    # one run over two thetas gives the rows of one run per theta, in order
    args = ["toric-cool", "--engine", "syndrome", "--lx", "3", "--ly", "3",
            "--steps", "5", "--trajectories", "150", "--seed", "4"]
    lines = {}
    for theta in ("pi,pi/4", "pi", "pi/4"):
        out = tmp_path / f"{theta.replace('/', '_')}.csv"
        assert main(args + ["--theta", theta, "--out", str(out)]) == 0
        lines[theta] = out.read_text().splitlines()
    assert lines["pi,pi/4"][1:] == lines["pi"][1:] + lines["pi/4"][1:]
    assert lines["pi,pi/4"][0] == lines["pi"][0] == lines["pi/4"][0]


@pytest.mark.parametrize("engine", ["trajectory", "compare"])
def test_toric_cool_quantum_thetas_run_together(tmp_path, engine):
    # as for the syndrome engine: the rows of one run per theta, in order
    args = ["toric-cool", "--engine", engine, "--lx", "2", "--ly", "2",
            "--steps", "3", "--trajectories", "70", "--seed", "4"]
    lines = {}
    for theta in ("pi,pi/4", "pi", "pi/4"):
        out = tmp_path / f"{theta.replace('/', '_')}.csv"
        assert main(args + ["--theta", theta, "--out", str(out)]) == 0
        lines[theta] = out.read_text().splitlines()
    assert lines["pi,pi/4"][1:] == lines["pi"][1:] + lines["pi/4"][1:]
    assert lines["pi,pi/4"][0] == lines["pi"][0] == lines["pi/4"][0]


def test_toric_cool_trajectory_engine(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi",
                 "--steps", "2", "--trajectories", "3", "--seed", "2",
                 "--engine", "trajectory", "--q-init", "0", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert all(abs(float(r[3]) + 8.0) < 1e-9 for r in rows)


def test_toric_cool_lindblad_engine(tmp_path):
    out = tmp_path / "lb.csv"
    assert main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "0.4",
                 "--steps", "3", "--trajectories", "1", "--seed", "0",
                 "--engine", "lindblad", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    energies = [float(r[3]) for r in rows]
    gamma = math.sin(0.2) ** 2
    want = [-1.0 + math.exp(-gamma * k) for k in range(4)]
    assert np.allclose(energies, want, atol=1e-6)


def test_toric_cool_compare_engine(tmp_path):
    out = tmp_path / "cmp.csv"
    status = main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi",
                   "--steps", "3", "--trajectories", "30", "--seed", "7",
                   "--engine", "compare", "--out", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,theta,mean_syndrome")
    assert len(lines) == 1 + 4


def test_toric_evolve_energy_conserved(tmp_path):
    out = tmp_path / "ev.csv"
    assert main(["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.3",
                 "--steps", "4", "--observables", "z0,x3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,time,energy,z0,x3"
    energies = [float(line.split(",")[2]) for line in lines[1:]]
    assert np.allclose(energies, energies[0], atol=1e-10)


def test_heisenberg_run(tmp_path):
    out = tmp_path / "h.csv"
    assert main(["heisenberg", "--lx", "3", "--tau", "0.05", "--steps", "3",
                 "--init", "100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,time,energy,total_z"


def test_hubbard_spectrum_both(tmp_path):
    out = tmp_path / "sp.csv"
    assert main(["hubbard-spectrum", "--lx", "2", "--ly", "2", "--t", "1",
                 "--encoding", "both", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,sector,eigenvalue_jw,eigenvalue_fock,abs_delta"
    deltas = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(deltas) < 1e-8
    assert len(deltas) == 16


def test_hubbard_spectrum_holds_one_dense_matrix(tmp_path):
    # 10 modes: one 1024^2 float64 matrix is 8 MB, so two at once exceed the bound
    out = tmp_path / "sp.csv"
    tracemalloc.start()
    try:
        status = main(["hubbard-spectrum", "--lx", "5", "--ly", "2", "--encoding", "both",
                       "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 12e6


@pytest.mark.parametrize("lattice", [["--lx", "3", "--ly", "2"],
                                     ["--lx", "2", "--ly", "2", "--spinful", "true", "--u", "4"]])
def test_hubbard_spectrum_jw_realizes_one_sector_at_a_time(tmp_path, monkeypatch, lattice):
    # the Jordan-Wigner spectrum realizes each number sector's block, never the
    # whole 2^n matrix, and its levels are the Fock oracle's
    from rydsim import pauli
    whole = pauli.to_matrix

    def blocks_only(op, block=None):
        assert block is not None, "the whole Jordan-Wigner matrix was realized"
        return whole(op, block)
    levels = {}
    for encoding in ("jw", "fock"):
        out = tmp_path / f"{encoding}.csv"
        with monkeypatch.context() as patch:
            patch.setattr(pauli, "to_matrix", blocks_only)
            assert main(["hubbard-spectrum", *lattice, "--encoding", encoding,
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()[1:]
        levels[encoding] = np.array([line.split(",")[2] for line in lines], dtype=float)
    assert np.allclose(levels["jw"], levels["fock"], atol=1e-9)


def test_hubbard_spectrum_local(tmp_path):
    out = tmp_path / "lp.csv"
    assert main(["hubbard-spectrum", "--lx", "2", "--ly", "2",
                 "--encoding", "local", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    deltas = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(deltas) < 1e-8


def test_hubbard_spectrum_local_spinful(tmp_path):
    # 16 qubits before tapering, 12 after: past the dense cap until tapered
    out = tmp_path / "lp.csv"
    assert main(["hubbard-spectrum", "--lx", "2", "--ly", "2", "--spinful", "true",
                 "--u", "4", "--encoding", "local", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 256
    assert max(float(line.split(",")[-1]) for line in lines[1:]) <= 1e-12


def test_hubbard_spectrum_local_past_the_cap_exits_1(tmp_path, capsys):
    assert main(["hubbard-spectrum", "--lx", "4", "--ly", "4", "--encoding", "local",
                 "--out", str(tmp_path / "lp.csv")]) == 1
    assert "exceeds the 12-qubit cap" in capsys.readouterr().err


def test_gate_fidelity_sweep(tmp_path):
    out = tmp_path / "gf.csv"
    assert main(["gate-fidelity", "--durations", "30,60", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,x_max,V,f_zero,f_rydberg,leak_R"
    assert len(lines) == 3
    f_ryd = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(f > 0.999 for f in f_ryd)


def test_dump_hamiltonian_round_trip(tmp_path):
    out = tmp_path / "toric.txt"
    assert main(["dump-hamiltonian", "--model", "toric", "--lx", "2", "--ly", "2",
                 "--out", str(out)]) == 0
    parsed = parse_operator(out.read_text())
    h, _ = build_toric(2, 2)
    assert all(abs(c) <= 1e-10 for c, _ in (parsed - h).normalized())


def test_runtime_failure_exit_code(tmp_path, capsys):
    # a lattice beyond the trajectory cap is a runtime error, not a usage error
    status = main(["toric-cool", "--lx", "3", "--ly", "3", "--theta", "pi",
                   "--steps", "1", "--trajectories", "1", "--engine", "trajectory",
                   "--out", "-"])
    assert status == 1
    assert "failed" in capsys.readouterr().err


def test_invalid_angle_flag(tmp_path, capsys):
    status = main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "tau",
                   "--steps", "1", "--trajectories", "1"])
    assert status == 2
    assert "theta" in capsys.readouterr().err


_COOL = ["toric-cool", "--lx", "2", "--ly", "2", "--steps", "1", "--trajectories", "1"]


@pytest.mark.parametrize("field,argv", [
    ("theta", _COOL + ["--theta", "pi/0"]),
    ("theta", _COOL + ["--theta", "pi,inf"]),
    ("q-init", _COOL + ["--theta", "pi", "--q-init=-inf"]),
    ("q-init", _COOL + ["--theta", "pi", "--q-init", "nan"]),
    ("tau", ["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "nan", "--steps", "1"]),
    ("jz", ["heisenberg", "--lx", "2", "--tau", "0.1", "--steps", "1", "--jz=-inf"]),
    ("durations", ["gate-fidelity", "--durations", "nan"]),
    ("durations", ["gate-fidelity", "--durations", "10,1e999"]),
    ("omega-c", ["gate-fidelity", "--durations", "10", "--omega-c", "nan"]),
    ("blockade", ["gate-fidelity", "--durations", "10", "--blockade", "nan"]),
    ("delta", ["gate-fidelity", "--durations", "10", "--delta=-inf"]),
    ("omega-c", ["gate-fidelity", "--durations", "10", "--omega-c", "1e200"]),
    ("delta", ["gate-fidelity", "--durations", "10", "--delta", "1e-320"]),
    ("omega-c", ["gate-fidelity", "--durations", "10", "--omega-c", "1e150"]),
    ("durations", ["gate-fidelity", "--durations", "1e300"]),
])
def test_undefined_number_is_usage_error(capsys, field, argv):
    # a zero denominator, a non-finite value, given or derived, or a pulse
    # phase past what the integrator is run to, is a usage error
    assert main(argv + ["--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rydsim: error:") and f"{field!r}" in err


@pytest.mark.parametrize("word", ["inf", "Infinite", "infinity"])
def test_blockade_infinity_words_mean_perfect_blockade(tmp_path, word):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command = gate-fidelity\ndurations = 10\nblockade = {word}\n")
    out = tmp_path / "a.csv"
    assert main(["gate-fidelity", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert float(row.split(",")[header.split(",").index("V")]) == math.inf


def test_invalid_observable(tmp_path, capsys):
    status = main(["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.1",
                   "--steps", "1", "--observables", "q9"])
    assert status == 2


@pytest.mark.parametrize("argv", [
    ["toric-cool", "--lx", "2", "--ly", "2", "--theta", ",", "--steps", "1",
     "--trajectories", "1"],
    ["gate-fidelity", "--durations", ","],
])
def test_empty_list_is_usage_error(capsys, argv):
    assert main(argv + ["--out", "-"]) == 2
    assert "at least one" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.1", "--steps", "1",
     "--init", "0101"],
    ["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.1", "--steps", "1",
     "--observables", "z99"],
    ["heisenberg", "--lx", "2", "--tau", "0.1", "--steps", "-2"],
])
def test_evolution_input_errors_are_usage_errors(capsys, argv):
    assert main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("rydsim: error:")


@pytest.mark.parametrize("flag,value", [("theta", "4"), ("steps", "-1"),
                                        ("trajectories", "0"), ("lx", "1")])
@pytest.mark.parametrize("engine", ["syndrome", "compare"])
def test_toric_cool_bad_knob_is_usage_error(capsys, flag, value, engine):
    values = {"lx": "2", "ly": "2", "theta": "pi", "steps": "1", "trajectories": "1"}
    values[flag] = value
    argv = ["toric-cool", "--engine", engine, "--out", "-"]
    argv += [arg for name, v in values.items() for arg in (f"--{name}", v)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("rydsim: error:")


COMPARE = ["toric-cool", "--engine", "compare", "--lx", "2", "--ly", "2", "--theta", "pi,pi/2"]


def test_compare_runs_one_trajectory(tmp_path):
    # the verdict compares trajectories one by one, so one is enough; its
    # standard errors read 0
    out = tmp_path / "one.csv"
    assert main(COMPARE + ["--steps", "2", "--trajectories", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 6 and all(float(r[3]) == float(r[5]) == float(r[6]) == 0.0 for r in rows)


@pytest.mark.parametrize("seed", [26, 35, 75, 108, 132, 140, 142, 180])
def test_compare_benchmark_line_passes(seed):
    # the benchmark's compare line at the seeds where a per-step 3-sigma cut
    # on the mean energies flagged these correct engines
    assert main(COMPARE + ["--steps", "20", "--trajectories", "50", "--seed", str(seed),
                           "--out", "-"]) == 0


def test_compare_exits_1_when_the_engines_differ(monkeypatch, capsys):
    real = cooling._trajectory_energies

    def defective(*args):
        energies = real(*args)
        energies[0, 0, -1] += 4.0  # one trajectory ends a pair of excitations higher
        return energies
    monkeypatch.setattr(cooling, "_trajectory_energies", defective)
    assert main(COMPARE + ["--steps", "3", "--trajectories", "20", "--out", "-"]) == 1
    assert "the engines differ" in capsys.readouterr().err


def test_compare_csv_is_independent_of_workers(tmp_path, monkeypatch):
    # 150 trajectories: two processes take 75 each
    text = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("RYDSIM_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert main(COMPARE + ["--steps", "4", "--trajectories", "150", "--seed", "5",
                               "--out", str(out)]) == 0
        text[workers] = out.read_bytes()
    assert text["1"] == text["2"]


@pytest.mark.parametrize("engine", ["compare", "trajectory"])
def test_quantum_engine_csv_is_independent_of_workers(tmp_path, monkeypatch, engine):
    # 130 trajectories: blocks of 64 whose live sets shrink apart, split 65/65
    # over two processes
    text = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("RYDSIM_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert main(["toric-cool", "--engine", engine, "--lx", "2", "--ly", "2",
                     "--theta", "pi,pi/2", "--steps", "8", "--trajectories", "130",
                     "--seed", "13", "--out", str(out)]) == 0
        text[workers] = out.read_bytes()
    assert text["1"] == text["2"]


@pytest.mark.parametrize("area", [["--area", "pi/2"], ["--area=-pi"]])
def test_gate_fidelity_has_no_area_flag(capsys, area):
    # the gate is judged against its pi-area target, so the profile is always
    # calibrated to pi
    with pytest.raises(SystemExit) as exc:
        main(["gate-fidelity", "--durations", "10", "--out", "-", *area])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gate_fidelity_config_rejects_area(tmp_path, capsys):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("command = gate-fidelity\ndurations = 10\narea = pi/2\n")
    assert main(["gate-fidelity", "--config", str(cfg), "--out", "-"]) == 2
    assert "unknown config field 'area'" in capsys.readouterr().err


def test_gate_fidelity_has_no_x_max(tmp_path, capsys):
    # calibration sets the amplitude, so no amplitude is read from the input
    with pytest.raises(SystemExit) as exc:
        main(["gate-fidelity", "--durations", "10", "--x-max", "0.2", "--out", "-"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "gate.cfg"
    cfg.write_text("command = gate-fidelity\ndurations = 10\nx-max = 0.2\n")
    assert main(["gate-fidelity", "--config", str(cfg), "--out", "-"]) == 2
    assert "unknown config field 'x-max'" in capsys.readouterr().err


@pytest.mark.parametrize("field,argv", [
    # E0 = 1 is the unit: the flip law sin^2(theta/2) has no energy scale and
    # toric-evolve's E0 tau is --tau
    ("e0", _COOL + ["--theta", "pi"]),
    ("e0", ["toric-evolve", "--lx", "2", "--ly", "2", "--tau", "0.1", "--steps", "1"]),
    ("e0", ["dump-hamiltonian", "--model", "toric", "--lx", "2", "--ly", "2"]),
    # no branch of hubbard-spectrum reads the auxiliary coupling
    ("v-aux", ["hubbard-spectrum", "--lx", "2", "--ly", "2"]),
])
def test_unread_field_is_refused(tmp_path, capsys, field, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--{field}", "2", "--out", "-"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{field}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{field} = 2\n")
    assert main(argv + ["--config", str(cfg), "--out", "-"]) == 2
    assert f"unknown config field {field!r}" in capsys.readouterr().err


#: each optional dump-hamiltonian field at its default value
DUMP_FIELDS = {"jx": "1", "jy": "1", "jz": "1", "field": "0", "t": "1", "u": "0",
               "v-aux": "1", "spinful": "false"}


@pytest.mark.parametrize("model,reads", [
    ("toric", ()),
    ("heisenberg", ("jx", "jy", "jz", "field")),
    ("hubbard-jw", ("t", "u", "spinful")),
    ("hubbard-local", ("t", "u", "spinful", "v-aux")),
    ("aux", ("v-aux", "spinful")),
])
def test_dump_hamiltonian_refuses_fields_its_model_does_not_read(tmp_path, capsys, model,
                                                                 reads):
    # set by flag or config file, even to its default, a field the model does
    # not read exits 2 and is named; its own fields and the seed are accepted
    argv = ["dump-hamiltonian", "--model", model, "--lx", "2", "--ly", "2", "--seed", "3",
            "--out", "-"]
    cfg = tmp_path / "run.cfg"
    for field, value in DUMP_FIELDS.items():
        cfg.write_text(f"{field} = {value}\n")
        for extra in ([f"--{field}", value], ["--config", str(cfg)]):
            status = main(argv + extra)
            err = capsys.readouterr().err
            if field in reads:
                assert status == 0, err
            else:
                assert status == 2
                assert f"model {model!r} does not read field {field!r}" in err


@pytest.mark.parametrize("argv", [
    ["hubbard-spectrum", "--lx", "2", "--ly", "2", "--u", "4"],
    ["dump-hamiltonian", "--model", "hubbard-jw", "--lx", "2", "--ly", "2", "--u", "4"],
])
def test_spinless_u_is_usage_error(capsys, argv):
    # spinless modes share no site, so an on-site energy would be ignored
    assert main(argv + ["--out", "-"]) == 2
    assert "u = 4.0 needs a spinful lattice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["toric-evolve", "--lx", "1", "--ly", "2", "--tau", "0.1", "--steps", "1"],
    ["dump-hamiltonian", "--model", "toric", "--lx", "1", "--ly", "2"],
    ["heisenberg", "--lx", "0", "--tau", "0.1", "--steps", "1"],
    ["hubbard-spectrum", "--lx", "0", "--ly", "2"],
    ["hubbard-spectrum", "--lx", "3", "--ly", "2", "--encoding", "local"],
    ["dump-hamiltonian", "--model", "aux", "--lx", "3", "--ly", "2"],
    ["dump-hamiltonian", "--model", "hubbard-local", "--lx", "3", "--ly", "2"],
    ["gate-fidelity", "--durations", "-5"],
    ["gate-fidelity", "--durations", "10", "--delta", "0"],
    ["gate-fidelity", "--durations", "0"],
])
def test_runner_bad_input_is_usage_error(capsys, argv):
    assert main(argv + ["--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("rydsim: error:")


def test_config_command_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("command = heisenberg\nlx = 2\nly = 2\ntheta = pi\n"
                   "steps = 1\ntrajectories = 1\n")
    assert main(["toric-cool", "--config", str(cfg), "--out", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rydsim: error:") and "'heisenberg'" in err
    cfg.write_text(cfg.read_text().replace("heisenberg", "toric-cool"))
    assert main(["toric-cool", "--config", str(cfg), "--out", "-"]) == 0


@pytest.mark.parametrize("text,field,lines", [
    ("command = toric-evolve\nlx = 2\nly = 2\nlx = 3\n", "lx", (2, 4)),
    ("command = toric-evolve\nlx = 2\n# again\ncommand = toric-evolve\nly = 2\n",
     "command", (1, 4)),
])
def test_config_field_set_twice_is_usage_error(tmp_path, capsys, text, field, lines):
    # the second value would otherwise win silently
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = ["toric-evolve", "--config", str(cfg), "--tau", "0.1", "--steps", "1", "--out", "-"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"rydsim: error: config field {field!r} set twice: "
                                       f"lines {lines[0]} and {lines[1]}\n")


def test_gate_fidelity_negative_area_is_usage_error(capsys):
    # Raman area (omega_c^2 / 4 delta) * 3 T / 8 at omega_c = 2, delta = -1, T = 13.1
    argv = ["gate-fidelity", "--durations", "13.1", "--delta", "-1", "--out", "-"]
    assert main(argv) == 2
    assert "Raman area -4.9125 is not positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", "0", "-2", "1.5"])
def test_bad_workers_env_is_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("RYDSIM_WORKERS", value)
    status = main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi",
                   "--steps", "1", "--trajectories", "1", "--out", "-"])
    assert status == 2
    err = capsys.readouterr().err
    assert "RYDSIM_WORKERS must be a positive integer" in err
    assert repr(value) in err


def test_good_workers_env_runs(monkeypatch, tmp_path):
    monkeypatch.setenv("RYDSIM_WORKERS", " 2 ")
    out = tmp_path / "w.csv"
    assert main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi",
                 "--steps", "1", "--trajectories", "2", "--out", str(out)]) == 0


@pytest.mark.parametrize("lx,ly", [("3", "2"), ("2", "4")])
def test_lindblad_engine_rejects_other_lattices(capsys, lx, ly):
    status = main(["toric-cool", "--lx", lx, "--ly", ly, "--theta", "0.4",
                   "--steps", "1", "--trajectories", "1", "--engine", "lindblad",
                   "--out", "-"])
    assert status == 2
    assert "lindblad" in capsys.readouterr().err


@pytest.mark.parametrize("trajectories", ["2", "500"])
def test_lindblad_engine_rejects_more_trajectories(capsys, trajectories):
    # one density matrix is integrated: a trajectory count would be ignored
    status = main(["toric-cool", "--lx", "2", "--ly", "2", "--theta", "0.4",
                   "--steps", "1", "--trajectories", trajectories, "--engine", "lindblad",
                   "--out", "-"])
    assert status == 2
    assert "'trajectories'" in capsys.readouterr().err


def test_syndrome_csv_independent_of_workers(monkeypatch, tmp_path):
    # 150 trajectories: two workers take 75 each
    args = ["toric-cool", "--lx", "3", "--ly", "3", "--theta", "pi,pi/4",
            "--steps", "4", "--trajectories", "150", "--engine", "syndrome",
            "--seed", "5"]
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("RYDSIM_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_trajectory_csv_independent_of_workers(monkeypatch, tmp_path):
    # 130 trajectories: two workers take 65 each
    args = ["toric-cool", "--lx", "2", "--ly", "2", "--theta", "pi,pi/2",
            "--steps", "2", "--trajectories", "130", "--engine", "trajectory",
            "--seed", "5"]
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("RYDSIM_WORKERS", workers)
        out = tmp_path / f"w{workers}.csv"
        assert main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
