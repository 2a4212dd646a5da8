import contextlib
import math
import os
import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rydsim import cooling
from rydsim.cli import main
from rydsim.cooling import (
    LINDBLAD_QUBIT_CAP,
    CoolingParams,
    EquivalenceReport,
    Trace,
    cooling_cycle_trajectory,
    equivalence_check,
    jump_operator,
    lindblad_integrate,
    lindblad_reference_trace,
    state_from_config,
    syndrome_mc_run,
    trajectory_run,
)
from rydsim.errors import CapExceededError, DimensionMismatchError
from rydsim.gates import controlled_flip, flip_probability, syndrome_map
from rydsim.models import ToricLattice, build_toric, toric_ground_state
from rydsim.pauli import OperatorSum, PauliString, pauli_action, sum_action
from rydsim.statevec import DensityMatrix, StateVector

from oracles import (ScriptedRng, cooling_draw, eigenstate, lindblad_reference, random_label,
                     splitmix64, start_syndromes, sum_matrix, sweep_loop_reference,
                     syndrome_chain_exact, syndrome_mc_reference, trajectory_energies_reference,
                     with_ancilla)


LATTICE = ToricLattice.build(2, 2)
H_TORIC, _ = build_toric(2, 2)


def _seeded(rng, theta=np.pi, q_init=0.5):
    # one trajectory of one sweep, at a seed drawn from ``rng``
    return CoolingParams(thetas=(theta,), n_steps=1, n_trajectories=1, q_init=q_init,
                         seed=int(rng.integers(1 << 63)))


def sample_syndrome_config(lattice, q_init, rng):
    return cooling._sample_bits(cooling._kinds(lattice), _seeded(rng, q_init=q_init), range(1))[0]


def _parity_ok(bits, lattice=LATTICE):
    # both stabilizer products of a row of syndrome bits are +1
    n_p = lattice.n_plaquettes
    return int(np.prod(bits[:n_p])) == 1 and int(np.prod(bits[n_p:])) == 1


# -- jump operators ----------------------------------------------------------

def test_jump_vanishes_on_ground_state():
    gs = toric_ground_state(LATTICE)
    for p in range(LATTICE.n_plaquettes):
        c_p = jump_operator(LATTICE.plaquette_string(p),
                            PauliString.single(8, LATTICE.plaquettes[p][0], "Z"))
        assert np.linalg.norm(c_p.to_matrix() @ gs.amps) < 1e-12


def test_jump_interrogation_projector():
    p = 1
    edge = LATTICE.plaquettes[p][2]
    c_p = jump_operator(LATTICE.plaquette_string(p), PauliString.single(8, edge, "Z"))
    want = 0.5 * (
        OperatorSum.identity(8) - OperatorSum.from_string(LATTICE.plaquette_string(p))
    )
    assert len(((c_p.adjoint() @ c_p) - want).normalized()) == 0


def test_jump_maps_excited_to_ground_partner():
    p = 0
    edge = LATTICE.plaquettes[p][1]
    c_p = jump_operator(LATTICE.plaquette_string(p), PauliString.single(8, edge, "Z"))
    gs = toric_ground_state(LATTICE)
    excited = gs.copy().apply_string(PauliString.single(8, edge, "Z"))
    image = c_p.to_matrix() @ excited.amps
    image /= np.linalg.norm(image)
    assert abs(np.vdot(gs.amps, image)) == pytest.approx(1.0)


def test_star_jump_structure():
    s = 2
    edge = LATTICE.stars[s][0]
    c_s = jump_operator(LATTICE.star_string(s), PauliString.single(8, edge, "X"))
    want = 0.5 * (
        OperatorSum.from_string(PauliString.single(8, edge, "X"))
        @ (OperatorSum.identity(8) - OperatorSum.from_string(LATTICE.star_string(s)))
    )
    assert len((c_s - want).normalized()) == 0


def test_jump_requires_incident_edge():
    # a pump off the cell commutes with its stabilizer and cannot flip it
    with pytest.raises(ValueError):
        jump_operator(LATTICE.plaquette_string(0),
                      PauliString.single(8, LATTICE.plaquettes[3][1], "Z"))


# -- Lindblad integration ------------------------------------------------------

def _single_plaquette_setup():
    a_p = PauliString.from_label("XXXX")
    pump = OperatorSum.from_string(PauliString.single(4, 0, "Z"))
    interrogate = OperatorSum.identity(4) - OperatorSum.from_string(a_p)
    jump = (0.5 * (pump @ interrogate)).normalized()
    proj_minus = 0.5 * (np.eye(16) - a_p.to_matrix())
    return jump, proj_minus


def test_lindblad_closed_form_decay():
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(proj_minus / 8.0, copy=False)
    gamma = 0.7
    for t in (0.5, 1.5, 3.0):
        (rho,) = lindblad_integrate([jump], gamma, rho0, t)
        pop = float(np.trace(proj_minus @ rho.matrix).real)
        assert abs(pop - np.exp(-gamma * t)) < 1e-6
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-8)


def test_lindblad_gamma_zero_constant():
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(proj_minus / 8.0, copy=False)
    (rho,) = lindblad_integrate([jump], 0.0, rho0, 4.0)
    assert np.allclose(rho.matrix, rho0.matrix)


def test_lindblad_ground_sector_stationary():
    jump, proj_minus = _single_plaquette_setup()
    proj_plus = np.eye(16) - proj_minus
    rho0 = DensityMatrix(proj_plus / 8.0, copy=False)
    (rho,) = lindblad_integrate([jump], 1.0, rho0, 2.0)
    assert np.max(np.abs(rho.matrix - rho0.matrix)) < 1e-8


def test_lindblad_long_time_support_in_ground_sector():
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(np.eye(16) / 16.0, copy=False)
    (rho,) = lindblad_integrate([jump], 1.0, rho0, 40.0)
    assert float(np.trace(proj_minus @ rho.matrix).real) < 1e-6
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-8)


def test_lindblad_cap_and_negative_rate():
    rho = DensityMatrix(np.eye(2) / 2.0, copy=False)
    with pytest.raises(ValueError):
        lindblad_integrate([], -1.0, rho, 1.0)
    big = DensityMatrix(np.eye(1 << 7) / float(1 << 7), copy=False)
    with pytest.raises(CapExceededError):
        lindblad_integrate([], 1.0, big, 1.0)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` have passed."""
    def expire(*_):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("gamma,t", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                     (1.0, math.inf), (1.0, -1.0)])
def test_lindblad_rejects_non_finite_rate_or_time(gamma, t):
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(proj_minus / 8.0, copy=False)
    with deadline(5.0), pytest.raises(ValueError, match="finite and non-negative"):
        lindblad_integrate([jump], gamma, rho0, t)


def test_lindblad_caps_its_substeps():
    # 1e9 rate units need about 2e9 substeps: the call refuses before the first
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(proj_minus / 8.0, copy=False)
    with deadline(5.0), pytest.raises(CapExceededError, match="substeps"):
        lindblad_integrate([jump], 1.0, rho0, 1e9)
    with deadline(5.0), pytest.raises(CapExceededError, match="substeps"):
        lindblad_integrate([jump], 1e300, rho0, 1e300)  # t * bound overflows


def _random_jumps(rng, n_qubits, count):
    """``count`` jump operators, each two random Pauli strings with complex
    Gaussian coefficients."""
    return [OperatorSum([(complex(*rng.normal(size=2)),
                          PauliString.from_label(random_label(rng, n_qubits)))
                         for _ in range(2)], n_qubits)
            for _ in range(count)]


def _random_density(rng, n_qubits):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n_qubits", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3])
def test_lindblad_series_matches_dop853(n_qubits, count):
    rng = np.random.default_rng(10 * n_qubits + count)
    jumps = _random_jumps(rng, n_qubits, count)
    rho0 = _random_density(rng, n_qubits)
    gamma, t = rng.uniform(0.2, 2.0), rng.uniform(0.3, 3.0)
    got = lindblad_integrate(jumps, gamma, DensityMatrix(rho0), t)[0].matrix
    want = lindblad_reference([op.to_matrix() for op in jumps], gamma, rho0, t)
    assert np.abs(got - want).max() < 1e-9


def test_lindblad_series_matches_dop853_at_the_cap():
    rng = np.random.default_rng(11)
    jumps = _random_jumps(rng, LINDBLAD_QUBIT_CAP, 2)
    rho0 = _random_density(rng, LINDBLAD_QUBIT_CAP)
    got = lindblad_integrate(jumps, 0.6, DensityMatrix(rho0), 1.3)[0].matrix
    want = lindblad_reference([op.to_matrix() for op in jumps], 0.6, rho0, 1.3)
    assert np.abs(got - want).max() < 1e-9


def _series_dtype(monkeypatch):
    # the dtype of each call's validated stack, which the series ran in
    seen, validated = [], DensityMatrix.validated
    monkeypatch.setattr(DensityMatrix, "validated",
                        lambda stack: (seen.append(stack.dtype), validated(stack))[1])
    return seen


def test_a_real_lindblad_problem_runs_in_float64(monkeypatch):
    # the toric jump Z0 (1 - XXXX)/2 = 0.5 ZIII - 0.5i YXXX realizes as float64,
    # as c i^#Y is real for both terms, and equals its complex oracle
    seen = _series_dtype(monkeypatch)
    jump, proj_minus = _single_plaquette_setup()
    rho0 = 0.3 * proj_minus / 8.0 + 0.7 * (np.eye(16) - proj_minus) / 8.0
    assert jump.to_matrix().dtype == float
    assert np.array_equal(jump.to_matrix(), sum_matrix([(0.5, "ZIII"), (-0.5j, "YXXX")], 4))
    a_p, z0 = PauliString.from_label("XXXX"), PauliString.single(4, 0, "Z")
    assert np.array_equal(jump_operator(a_p, z0).to_matrix(), jump.to_matrix())
    (got,) = lindblad_integrate([jump], 0.9, DensityMatrix(rho0), 1.7)
    want = lindblad_reference([jump.to_matrix()], 0.9, rho0, 1.7)
    assert seen == [np.float64] and np.abs(got.matrix - want).max() < 1e-9


@pytest.mark.parametrize("start", ["real", "complex"])
def test_a_complex_jump_or_start_runs_in_complex128(monkeypatch, start):
    seen = _series_dtype(monkeypatch)
    a_p = PauliString.from_label("XXXX")
    jumps = ([jump_operator(a_p, PauliString.single(4, 0, "Y"))] if start == "real"
             else [_single_plaquette_setup()[0]])
    rho0 = np.eye(16, dtype=complex) / 16.0
    if start == "complex":
        rho0 += 0.01j * (a_p.to_matrix() @ PauliString.single(4, 0, "Z").to_matrix())
    got = lindblad_integrate(jumps, 0.9, DensityMatrix(rho0), 1.7)[0].matrix
    want = lindblad_reference([op.to_matrix() for op in jumps], 0.9, rho0, 1.7)
    assert seen == [np.complex128] and np.abs(got - want).max() < 1e-9


def test_lindblad_rejects_jumps_of_another_size():
    # a smaller jump operator is not padded with identities, whatever the rate
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(np.eye(32) / 32.0, copy=False)
    for gamma in (0.0, 1.0):
        with pytest.raises(DimensionMismatchError):
            lindblad_integrate([jump], gamma, rho0, 1.0)


def test_lindblad_reads_a_generator_of_jumps_once():
    jump, proj_minus = _single_plaquette_setup()
    rho0 = DensityMatrix(proj_minus / 8.0, copy=False)
    (want,) = lindblad_integrate([jump], 0.7, rho0, 1.5)
    (got,) = lindblad_integrate((c for c in [jump]), 0.7, rho0, 1.5)
    assert np.array_equal(got.matrix, want.matrix)


def test_lindblad_steps_equal_chained_calls():
    # one setup for all steps: each state is bit for bit the one a call per
    # step reaches, and each is validated
    jump, proj_minus = _single_plaquette_setup()
    rho = DensityMatrix(np.eye(16) / 16.0, copy=False)
    states = lindblad_integrate([jump], 0.7, rho, 1.0, steps=3)
    for state in states:
        (rho,) = lindblad_integrate([jump], 0.7, rho, 1.0)
        assert state.matrix.tobytes() == rho.matrix.tobytes()
    assert len(states) == 3 and len(lindblad_integrate([jump], 0.0, rho, 1.0, steps=2)) == 2


def test_small_theta_rate_scales_as_theta_squared():
    # iterate the deterministic cooling channel; fitted decay rate ~ theta^2
    jump, proj_minus = _single_plaquette_setup()
    rates = []
    thetas = [0.05, 0.1, 0.2]
    for theta in thetas:
        s = flip_probability(theta)
        # per-cycle excited population decays exactly by (1 - s)
        pops = [(1 - s) ** k for k in range(0, 30, 10)]
        rate = -np.polyfit(range(0, 30, 10), np.log(pops), 1)[0]
        rates.append(rate)
    slope = np.polyfit(np.log(thetas), np.log(rates), 1)[0]
    assert abs(slope - 2.0) < 0.2


# -- cooling cycles (circuit level) --------------------------------------------

def test_ground_state_is_exact_fixed_point_of_every_cycle():
    rng = np.random.default_rng(0)
    gs = with_ancilla(toric_ground_state(LATTICE))
    for p in range(LATTICE.n_plaquettes):
        state = gs.copy()
        _, flipped = cooling_cycle_trajectory(
            state, LATTICE.plaquettes[p], np.pi, rng, kind="plaquette"
        )
        assert not flipped
        assert 1.0 - abs(np.vdot(state.amps, gs.amps)) < 1e-10
    for s in range(LATTICE.n_stars):
        state = gs.copy()
        _, flipped = cooling_cycle_trajectory(
            state, LATTICE.stars[s], np.pi, rng, kind="star"
        )
        assert not flipped
        assert 1.0 - abs(np.vdot(state.amps, gs.amps)) < 1e-10


def test_theta_pi_flips_excited_plaquette_with_certainty():
    rng = np.random.default_rng(1)
    config = sample_syndrome_config(LATTICE, 0.0, rng)
    config[0] = config[1] = -1  # plaquettes 0 and 1
    state = with_ancilla(eigenstate(LATTICE, config))
    _, flipped = cooling_cycle_trajectory(
        state, LATTICE.plaquettes[0], np.pi, rng, kind="plaquette"
    )
    assert flipped
    a_p = LATTICE.plaquette_string(0)
    assert state.expectation_string(
        PauliString(9, a_p.x_mask, a_p.z_mask)
    ).real == pytest.approx(1.0)


def test_cycle_flip_frequency_binomial():
    # flip frequency over many cycles approaches sin^2(theta/2) = theta^2/4
    rng = np.random.default_rng(2)
    theta = 0.2
    p_flip = flip_probability(theta)
    config = sample_syndrome_config(LATTICE, 0.0, rng)
    config[0] = config[1] = -1  # plaquettes 0 and 1
    base = with_ancilla(eigenstate(LATTICE, config))
    n_cycles = 10_000
    flips = 0
    for _ in range(n_cycles):
        state = base.copy()
        _, flipped = cooling_cycle_trajectory(
            state, LATTICE.plaquettes[0], theta, rng, kind="plaquette"
        )
        flips += flipped
    sigma = np.sqrt(n_cycles * p_flip * (1 - p_flip))
    assert abs(flips - n_cycles * p_flip) < 3.0 * sigma
    assert p_flip == pytest.approx(theta**2 / 4.0, rel=1e-2)


# -- syndrome configurations and Monte Carlo -----------------------------------

def test_sampled_config_parity():
    rng = np.random.default_rng(3)
    for q in (0.0, 0.3, 0.5, 1.0):
        for _ in range(50):
            config = sample_syndrome_config(LATTICE, q, rng)
            assert _parity_ok(config)


def _one_row_sweep(lattice, config, theta, rng):
    # one Monte Carlo sweep of a single row of syndrome bits, at a seed from ``rng``
    bits, params = config.copy()[None], _seeded(rng, theta)
    tables = cooling._tables(cooling._kinds(lattice), params, 1, [flip_probability(theta)])
    cooling._sweep(bits, tables, params, 1, 0)
    return bits[0]


def test_mc_step_preserves_parity_and_ground():
    rng = np.random.default_rng(4)
    config = sample_syndrome_config(LATTICE, 0.0, rng)
    out = _one_row_sweep(LATTICE, config, np.pi, rng)
    assert np.array_equal(out[:4], config[:4])
    assert np.array_equal(out[4:], config[4:])
    config = sample_syndrome_config(LATTICE, 0.6, rng)
    for _ in range(30):
        config = _one_row_sweep(LATTICE, config, np.pi / 2, rng)
        assert _parity_ok(config)


def test_adjacent_pair_annihilation_probability():
    # two adjacent excited plaquettes at theta=pi: the first mover picks the
    # shared edge with chance >= 1/4, annihilating the pair within one sweep
    rng = np.random.default_rng(5)
    lattice = ToricLattice.build(4, 4)
    hits = 0
    trials = 4000
    for _ in range(trials):
        config = np.ones(32, dtype=np.int8)  # 16 plaquettes, then 16 stars
        config[5] = config[6] = -1  # plaquettes (1, 1) and (2, 1)
        out = _one_row_sweep(lattice, config, np.pi, rng)
        hits += int(np.all(out[:16] == 1))
    freq = hits / trials
    assert freq >= 0.25 - 3.0 * np.sqrt(0.25 * 0.75 / trials)


def test_state_from_config_realizes_syndromes():
    rng = np.random.default_rng(6)
    h = H_TORIC
    for _ in range(25):
        config = sample_syndrome_config(LATTICE, 0.5, rng)
        state = eigenstate(LATTICE, config)
        assert state.expectation(h) == pytest.approx(-float(config.sum()), abs=1e-9)
        for p in range(4):
            assert state.expectation_string(
                LATTICE.plaquette_string(p)
            ).real == pytest.approx(float(config[p]))
        for s in range(4):
            assert state.expectation_string(
                LATTICE.star_string(s)
            ).real == pytest.approx(float(config[4 + s]))


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_state_from_config_realizes_syndromes_non_square(shape):
    # 12 qubits: the chains pair excitations along x, then along y
    rng = np.random.default_rng(31)
    h, lattice = build_toric(*shape)
    n_p = lattice.n_plaquettes
    for _ in range(10):
        config = sample_syndrome_config(lattice, 0.5, rng)
        state = eigenstate(lattice, config)
        assert state.expectation(h) == pytest.approx(-float(config.sum()), abs=1e-9)
        for p in range(n_p):
            assert state.expectation_string(
                lattice.plaquette_string(p)).real == pytest.approx(float(config[p]))
        for s in range(lattice.n_stars):
            assert state.expectation_string(
                lattice.star_string(s)).real == pytest.approx(float(config[n_p + s]))


@pytest.mark.parametrize("bits", [
    [1, -1, -1, 1],  # plaquettes only
    [1, 1, 1, 1, 1, 1, 1, 1, 1],  # one syndrome too many
    [0, 1, 1, 0, 1, 1, 1, 1],  # 0/1 values
    [1, 1, 1, 1, 1, 1, 1, 2],
])
def test_state_from_config_rejects_a_row_not_of_signed_syndromes(bits):
    with pytest.raises(ValueError, match=r"\+1 or -1 per plaquette and per star"):
        state_from_config(LATTICE, np.array([bits], dtype=np.int8))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
def test_state_from_config_block_equals_its_rows(shape):
    # one stacked gather per kind realizes each row exactly as a block of one does
    lattice = ToricLattice.build(*shape)
    params = CoolingParams(thetas=(np.pi,), n_steps=0, n_trajectories=40, seed=3)
    bits = cooling._sample_bits(cooling._kinds(lattice), params, range(40))
    block = state_from_config(lattice, bits)
    assert block.shape == (40, 1 << lattice.n_edges)
    rows = np.concatenate([state_from_config(lattice, row[None]) for row in bits])
    assert block.tobytes() == rows.tobytes()


def _even_configs(lattice):
    """Every row of syndromes with an even number of excited cells per kind."""
    cells = lattice.n_plaquettes + lattice.n_stars
    rows = 1 - 2 * ((np.arange(1 << cells)[:, None] >> np.arange(cells)) & 1)
    return rows[[_parity_ok(row, lattice) for row in rows]].astype(np.int8)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
def test_trajectory_engine_reads_real_amplitudes_only(shape):
    # the engine holds float64 rows, so every start row and every stabilizer,
    # pump and energy table it reads must be real in the exact complex algebra:
    # a Y pump, or a start with a complex phase, would lose its imaginary part
    lattice = ToricLattice.build(*shape)
    n = lattice.n_edges
    for kind in cooling._kinds(lattice):
        for edges in kind.cells.tolist():
            strings = [PauliString.from_sites(n, dict.fromkeys(edges, kind.letter))]
            strings += [PauliString.single(n, e, kind.pump) for e in edges]
            for s in strings:
                assert not pauli_action(n, s.x_mask, s.z_mask, s.phase_exp)[1].imag.any()
    assert not any(factor.imag.any() for _, factor in sum_action(build_toric(*shape)[0]))
    # every 2x2 syndrome row, 40 of the 1024 on 3x2: the row the engine starts
    # from is the complex construction's real part, whose imaginary part is 0
    configs = _even_configs(lattice) if shape == (2, 2) else cooling._sample_bits(
        cooling._kinds(lattice), CoolingParams((np.pi,), 0, 40, seed=5), range(40))
    rows = state_from_config(lattice, configs)
    assert rows.dtype == np.float64
    ground, (_, chains) = toric_ground_state(lattice).amps, cooling._chains(lattice)
    for bits, row in zip(configs, rows):
        state = ground
        for kind, chain in chains:
            mask = int(np.bitwise_xor.reduce(chain[bits[kind.offset:][:len(chain)] < 0]))
            edges = [e for e in range(n) if mask >> e & 1]
            state = PauliString.from_sites(n, dict.fromkeys(edges, kind.pump)).act(state)
        assert not state.imag.any()
        assert np.array_equal(state.real, row)  # exactly, up to the sign of a zero


@pytest.mark.parametrize("bad,match", [
    ([1] * 9, None),  # one syndrome too many: numpy refuses the ragged block
    ([1, 1, 1, 1, 1, 1, 1, 0], r"\+1 or -1 per plaquette and per star"),
    ([1, 1, 1, 1, 1, 1, 1, 2], r"\+1 or -1 per plaquette and per star"),
    ([1, 1, 1, 1, -1, 1, 1, 1], "parity"),  # one excited star
])
def test_state_from_config_rejects_a_block_with_one_bad_row(bad, match):
    rows = [[1, -1, -1, 1, 1, 1, 1, 1], bad, [1] * 8]
    with pytest.raises(ValueError, match=match):
        state_from_config(LATTICE, rows)


def test_mc_run_ground_start_is_flat():
    params = CoolingParams(thetas=(np.pi,), n_steps=10, n_trajectories=20,
                           q_init=0.0, seed=0)
    trace = syndrome_mc_run(LATTICE, params)[0]
    assert np.allclose(trace.mean_energy, -8.0)
    assert np.allclose(trace.stderr, 0.0)


def test_mc_run_reaches_ground_and_is_monotone():
    lattice = ToricLattice.build(4, 4)
    params = CoolingParams(thetas=(np.pi,), n_steps=40, n_trajectories=300,
                           q_init=0.5, seed=2)
    trace = syndrome_mc_run(lattice, params)[0]
    assert trace.mean_energy[-1] == pytest.approx(-32.0, abs=0.5)
    # monotone non-increasing in expectation, allowing 3-sigma noise
    for k in range(len(trace.steps) - 1):
        slack = 3.0 * np.sqrt(trace.stderr[k] ** 2 + trace.stderr[k + 1] ** 2)
        assert trace.mean_energy[k + 1] <= trace.mean_energy[k] + slack


def test_mc_determinism_and_worker_independence():
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=8, n_trajectories=64,
                           q_init=0.5, seed=9)
    a = syndrome_mc_run(LATTICE, params, workers=1)[0]
    b = syndrome_mc_run(LATTICE, params, workers=1)[0]
    c = syndrome_mc_run(LATTICE, params, workers=3)[0]
    assert np.array_equal(a.mean_energy, b.mean_energy)
    assert np.array_equal(a.mean_energy, c.mean_energy)


def test_theta_ordering_at_fixed_step():
    lattice = ToricLattice.build(4, 4)
    means = {}
    for theta in (np.pi, np.pi / 2, np.pi / 4):
        params = CoolingParams(thetas=(theta,), n_steps=10, n_trajectories=400,
                               q_init=0.5, seed=3)
        means[theta] = syndrome_mc_run(lattice, params)[0].mean_energy[10]
    assert means[np.pi] < means[np.pi / 2] < means[np.pi / 4]


# -- quantum trajectories -------------------------------------------------------

def test_trajectory_ground_start_flat():
    params = CoolingParams(thetas=(np.pi,), n_steps=4, n_trajectories=5,
                           q_init=0.0, seed=4)
    trace = trajectory_run(LATTICE, params)[0]
    assert np.allclose(trace.mean_energy, -8.0, atol=1e-9)


def _rows_per_energy_call(monkeypatch, lattice, params, rows):
    """The trajectory energies, and the row count of each ``row_energies`` call:
    a block's start rows, once for all thetas, then after each sweep the
    rows that acted in it, which are the rows the next sweep runs."""
    energies, counts = cooling.row_energies, []

    def counted(psi, *args):
        counts.append(len(psi))
        return energies(psi, *args)
    monkeypatch.setattr(cooling, "row_energies", counted)
    return cooling._trajectory_energies(lattice, params, rows), counts


def test_ground_start_makes_no_sweep_draws(monkeypatch):
    # a ground-sector row reads P- psi = 0 at every position, so it never
    # acts: a q_init = 0 start enters no live set, each block reads its start
    # draws and no sweep draw, and each energy is carried forward bit for bit
    draws, read = cooling._draws, []

    def logged(seed, lane, index):
        read.append(index)
        return draws(seed, lane, index)
    monkeypatch.setattr(cooling, "_draws", logged)
    params = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=20, n_trajectories=70,
                           q_init=0.0, seed=9)
    energies, counts = _rows_per_energy_call(monkeypatch, LATTICE, params, range(70))
    assert counts == [64, 6]
    # sweep 0's indices are those below cells * trajectories
    assert read and max(index.max(initial=0) for index in read) < 8 * 70
    assert np.array_equal(energies, np.broadcast_to(energies[..., :1], energies.shape))
    assert np.allclose(energies, -8.0, atol=1e-12)


def test_mc_stops_sweeping_at_the_ground_sector(monkeypatch):
    # the ground sector is a fixed point of every sweep: a batch whose rows all
    # read -8 sweeps no more and carries its energies forward, so a q_init = 0
    # start never sweeps and the compare size stops at its first all-ground step
    sweep, calls = cooling._sweep, []

    def counted(bits, tables, params, step, first):
        calls.append(step)
        return sweep(bits, tables, params, step, first)
    monkeypatch.setattr(cooling, "_sweep", counted)
    ground = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=20, n_trajectories=50,
                           q_init=0.0, seed=7)
    assert np.array_equal(cooling._mc_energies(LATTICE, ground, range(50)),
                          np.full((2, 50, 21), -8.0))
    assert calls == []
    energies = cooling._mc_energies(LATTICE, replace(ground, q_init=0.5), range(50))
    settled = int(np.argmax((energies == -8.0).all(axis=(0, 1))))
    assert 0 < settled < 20 and calls == list(range(1, settled + 1))


@pytest.mark.parametrize("seed", [7, 26])
def test_live_rows_follow_the_monte_carlo_energies(monkeypatch, seed):
    # the benchmark's compare size: a row acts in a sweep iff it starts the
    # sweep off the ground sector, so after sweep t the energies are computed
    # for exactly the rows whose Monte Carlo energy after sweep t - 1 is above
    # -8, over both thetas, and for none once no row is left; the start
    # energies are computed once for both thetas
    params = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=20, n_trajectories=50, seed=seed)
    mc = cooling._mc_energies(LATTICE, params, range(50))
    energies, counts = _rows_per_energy_call(monkeypatch, LATTICE, params, range(50))
    excited = [int((mc[..., t] > -8.0).sum()) for t in range(20)]
    assert counts == [50] + [count for count in excited if count]
    assert np.max(np.abs(energies - mc)) <= 1e-9


def test_trajectory_cools_to_ground():
    params = CoolingParams(thetas=(np.pi,), n_steps=25, n_trajectories=40,
                           q_init=0.5, seed=5)
    trace = trajectory_run(LATTICE, params)[0]
    assert trace.mean_energy[-1] == pytest.approx(-8.0, abs=0.3)


def test_trajectory_cap():
    lattice = ToricLattice.build(3, 3)
    params = CoolingParams(thetas=(np.pi,), n_steps=2, n_trajectories=2, seed=0)
    with pytest.raises(CapExceededError):
        trajectory_run(lattice, params)


def test_compare_cap_fails_before_any_engine_runs(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an engine ran on a lattice beyond the trajectory cap")

    monkeypatch.setattr(cooling, "syndrome_mc_run", never)
    monkeypatch.setattr(cooling, "_fan_out", never)
    params = CoolingParams(thetas=(np.pi,), n_steps=40, n_trajectories=20000, seed=0)
    with pytest.raises(CapExceededError):
        equivalence_check(ToricLattice.build(3, 3), params, workers=2)


def test_trajectory_independent_of_workers():
    # 150 trajectories: three workers take 50 each, two blocks of 64 and 22 serially
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=2, n_trajectories=150,
                           q_init=0.5, seed=23)
    serial = trajectory_run(LATTICE, params, workers=1)[0]
    pooled = trajectory_run(LATTICE, params, workers=3)[0]
    assert np.array_equal(pooled.mean_energy, serial.mean_energy)
    assert np.array_equal(pooled.stderr, serial.stderr)


def _pids(lattice, params, rows):
    # every energy of a row reads the id of the process that filled it
    return np.full((len(params.thetas), len(rows), params.n_steps + 1), float(os.getpid()))


def _fails_past_row_0(lattice, params, rows):
    if rows.start:
        raise ValueError(f"rows from {rows.start} refused")
    return np.zeros((len(params.thetas), len(rows), params.n_steps + 1))


FAN_OUT = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=1, n_trajectories=256, seed=4)


def test_fan_out_starts_one_process_per_chunk():
    # at most one process per BLOCK trajectories: 256 trajectories are 4 chunks
    # of 64, each filled by its own child and none by this process
    pids = cooling._fan_out(_pids, LATTICE, FAN_OUT, workers=64)
    firsts = pids[0, ::64, 0]
    assert len(set(pids.ravel().tolist())) == 4 and os.getpid() not in firsts
    assert np.array_equal(pids, np.repeat(firsts, 64)[None, :, None].repeat(2, 0).repeat(2, 2))
    pooled = cooling._fan_out(cooling._mc_energies, LATTICE, FAN_OUT, workers=64)
    assert np.array_equal(pooled, cooling._mc_energies(LATTICE, FAN_OUT, range(256)))


def test_a_failing_child_fails_the_run_and_leaves_no_process():
    with pytest.raises(RuntimeError, match="ValueError: rows from 128 refused"):
        cooling._fan_out(_fails_past_row_0, LATTICE, FAN_OUT, workers=2)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_child_exits_the_cli_with_1(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cooling, "_mc_energies", _fails_past_row_0)
    monkeypatch.setenv("RYDSIM_WORKERS", "2")
    argv = ["toric-cool", "--engine", "syndrome", "--lx", "2", "--ly", "2", "--theta", "pi",
            "--steps", "1", "--trajectories", "256", "--out", str(tmp_path / "cool.csv")]
    assert main(argv) == 1
    assert "ValueError: rows from 128 refused" in capsys.readouterr().err
    assert not (tmp_path / "cool.csv").exists()


@pytest.mark.parametrize("missing", [False, True])
def test_fan_out_runs_serially_without_fork(monkeypatch, capsys, missing):
    def refused():
        raise OSError("fork refused")
    if missing:
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", refused)
    pooled = cooling._fan_out(cooling._mc_energies, LATTICE, FAN_OUT, workers=2)
    assert np.array_equal(pooled, cooling._mc_energies(LATTICE, FAN_OUT, range(256)))
    assert "process pool unavailable" in capsys.readouterr().err
    assert np.array_equal(cooling._fan_out(_pids, LATTICE, FAN_OUT, workers=2),
                          np.full((2, 256, 2), float(os.getpid())))


def test_trajectory_matches_lindblad_small_theta():
    # single-plaquette: trajectory excited population vs exp(-gamma t)
    rng_master = 6
    theta = 0.2
    p_flip = flip_probability(theta)
    n_traj, n_cycles = 400, 50
    rng = np.random.default_rng(rng_master)
    config = sample_syndrome_config(LATTICE, 0.0, rng)
    config[0] = config[1] = -1  # plaquettes 0 and 1
    base = with_ancilla(eigenstate(LATTICE, config))
    excited = np.zeros(n_cycles + 1)
    excited[0] = n_traj
    for k in range(n_traj):
        state = base.copy()
        alive = True
        for cycle in range(1, n_cycles + 1):
            if alive:
                _, flipped = cooling_cycle_trajectory(
                    state, LATTICE.plaquettes[0], theta, rng,
                    kind="plaquette",
                )
                alive = not flipped
            excited[cycle] += alive
    frac = excited / n_traj
    reference = np.exp(-p_flip * np.arange(n_cycles + 1))
    sigma = np.sqrt(np.maximum(reference * (1 - reference), 1e-12) / n_traj)
    assert np.all(np.abs(frac - reference) <= 3.0 * sigma + 0.01)


def _q_init_id(q_init):
    # q_init, then whether it is 1/2, where the start law is uniform over even patterns
    return f"{q_init}-{q_init == 0.5}"


@pytest.mark.parametrize("theta", [np.pi, np.pi / 2, 0.3])
@pytest.mark.parametrize("q_init", [0.5, 0.3, 0.0, 1.0], ids=_q_init_id)
def test_trajectory_engine_matches_circuit_oracle(theta, q_init):
    # 130 trajectories: two full blocks and a partial one; the system-
    # register engine must read the circuit's draws and make its flip decisions
    params = CoolingParams(thetas=(theta,), n_steps=5, n_trajectories=130,
                           q_init=q_init, seed=19)
    engine = cooling._trajectory_energies(LATTICE, params, range(130))[0]
    oracle = trajectory_energies_reference(LATTICE, params, range(130))
    assert engine.shape == oracle.shape == (130, 6)
    assert np.max(np.abs(engine - oracle)) <= 1e-9


def test_trajectory_engine_matches_circuit_oracle_on_3x2():
    # 12 system qubits, the largest register under the cap; the circuit holds 13
    lattice = ToricLattice.build(3, 2)
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=3, n_trajectories=5,
                           q_init=0.5, seed=19)
    engine = cooling._trajectory_energies(lattice, params, range(5))[0]
    oracle = trajectory_energies_reference(lattice, params, range(5))
    assert engine.shape == oracle.shape == (5, 4)
    assert np.max(np.abs(engine - oracle)) <= 1e-9


@pytest.mark.parametrize("n_trajectories", [1, 64, 65])
@pytest.mark.parametrize("n_steps", [0, 3])
@pytest.mark.parametrize("q_init", [0.5, 0.3], ids=_q_init_id)
def test_batched_thetas_match_circuit_oracle_per_theta(n_trajectories, n_steps, q_init):
    # one run of three thetas advances all (theta, row) states together; each
    # theta's rows must be the circuit's, draw for draw.  1 trajectory is a
    # one-row batch, 65 a full block plus a one-row partial block
    params = CoolingParams(thetas=(np.pi, np.pi / 2, 0.3), n_steps=n_steps,
                           n_trajectories=n_trajectories, q_init=q_init, seed=37)
    rows = range(n_trajectories)
    engine = cooling._trajectory_energies(LATTICE, params, rows)
    assert engine.shape == (3, n_trajectories, n_steps + 1)
    for got, theta in zip(engine, params.thetas):
        want = trajectory_energies_reference(LATTICE, replace(params, thetas=(theta,)), rows)
        assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("q_init", [0.5, 0.3, 1.0])
@pytest.mark.parametrize("n_trajectories", [1, 64, 65])
def test_trajectory_start_is_the_mc_start_sampler(q_init, n_trajectories):
    # each row's step-0 energy is that of the start syndromes the Monte
    # Carlo's sampler reads for its trajectory, the Monte Carlo's own
    params = CoolingParams(thetas=(np.pi, 0.3), n_steps=2, n_trajectories=n_trajectories,
                           q_init=q_init, seed=43)
    rows = range(n_trajectories)
    want = -cooling._sample_bits(cooling._kinds(LATTICE), params, rows).sum(axis=1)
    energies = cooling._trajectory_energies(LATTICE, params, rows)
    for theta_rows in energies:
        assert np.max(np.abs(theta_rows[:, 0] - want)) <= 1e-9


@pytest.mark.parametrize("engine", ["_mc_energies", "_trajectory_energies"])
def test_a_rows_energies_do_not_depend_on_the_other_rows(engine):
    # a draw is a function of its trajectory's counters alone: any range of
    # rows gives each of its rows the energies of the whole run, bit for bit
    params = CoolingParams(thetas=(np.pi / 2, np.pi), n_steps=6, n_trajectories=150,
                           q_init=0.5, seed=47)
    energies = getattr(cooling, engine)
    whole = energies(LATTICE, params, range(150))
    for rows in (range(1), range(149, 150), range(37, 101), range(60, 150)):
        assert np.array_equal(energies(LATTICE, params, rows), whole[:, rows.start:rows.stop])
    # and nothing else than its draws: the same rows at another seed differ
    other = energies(LATTICE, replace(params, seed=48), range(150))
    assert not np.array_equal(other, whole)


@pytest.mark.parametrize("q_init", [0.5, 0.3])
def test_trajectory_energies_are_syndrome_levels(q_init):
    # every trajectory state is an eigenstate of every stabilizer, so each
    # row's energy is -(plaquette sum) - (star sum), each sum in {-4, 0, 4}
    # on the 2x2 torus: a map applied to, or renormalized by, the wrong row
    # leaves that set
    params = CoolingParams(thetas=(np.pi, np.pi / 2, 0.3), n_steps=6, n_trajectories=130,
                           q_init=q_init, seed=41)
    energies = cooling._trajectory_energies(LATTICE, params, range(130))
    levels = np.array([-8.0, -4.0, 0.0, 4.0, 8.0])
    assert np.max(np.min(np.abs(energies[..., None] - levels), axis=-1)) <= 1e-12


@pytest.mark.parametrize("kind", ["plaquette", "star"])
def test_two_outcome_map_is_the_circuit_cycle(kind):
    # K0 = P+ + cos(theta/2) P- and K1 = -i sin(theta/2) sigma_pump P- are the
    # ancilla-0 and ancilla-1 blocks of the circuit's unitary part, and the
    # cycle with a scripted readout leaves K psi / |K psi| on the system
    theta, n = 0.7, LATTICE.n_edges
    cells, stabilizer, pump, axis = (
        (LATTICE.plaquettes, LATTICE.plaquette_string(0), "Z", "z") if kind == "plaquette"
        else (LATTICE.stars, LATTICE.star_string(0), "X", "x"))
    one = OperatorSum.identity(n)
    p_plus = 0.5 * (one + OperatorSum.from_string(stabilizer))
    p_minus = 0.5 * (one - OperatorSum.from_string(stabilizer))
    k0 = (p_plus + np.cos(theta / 2) * p_minus).to_matrix()
    rng = np.random.default_rng(29)
    psi = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize().amps
    with_anc = PauliString(n + 1, stabilizer.x_mask, stabilizer.z_mask)
    for pick, edge in enumerate(cells[0]):
        sigma = OperatorSum.from_string(PauliString.single(n, edge, pump))
        k1 = (-1j * np.sin(theta / 2) * (sigma @ p_minus)).to_matrix()
        blocks = np.empty((2 << n, 1 << n), dtype=complex)
        for j in range(1 << n):
            state = StateVector.basis_state(n + 1, j)
            syndrome_map(state, n, with_anc)
            controlled_flip(state, n, edge, theta, axis=axis)
            syndrome_map(state, n, with_anc)
            blocks[:, j] = state.amps
        assert np.allclose(blocks[: 1 << n], k0, atol=1e-12)
        assert np.allclose(blocks[1 << n:], k1, atol=1e-12)
        assert np.allclose(k0.conj().T @ k0 + k1.conj().T @ k1, np.eye(1 << n), atol=1e-12)
        for u, k in ((0.0, k0), (1.0 - 1e-9, k1)):
            state = StateVector(np.concatenate([psi, np.zeros(1 << n)]))
            _, flipped = cooling_cycle_trajectory(state, cells[0], theta, ScriptedRng(pick, u),
                                                  kind=kind)
            assert flipped == (k is k1)
            want = k @ psi
            assert np.allclose(state.amps[: 1 << n], want / np.linalg.norm(want), atol=1e-12)
            assert np.allclose(state.amps[1 << n:], 0.0, atol=1e-12)


def test_equivalence_check_small():
    params = CoolingParams(thetas=(np.pi,), n_steps=12, n_trajectories=120,
                           q_init=0.5, seed=7)
    report = equivalence_check(LATTICE, params)[0]
    assert report.passed, report.max_abs_delta
    assert report.mc.energies.shape == report.trajectory.energies.shape == (120, 13)
    assert not report.z_scores.any()
    assert report.mc.mean_energy[-1] == pytest.approx(-8.0, abs=0.2)
    assert report.trajectory.mean_energy[-1] == pytest.approx(-8.0, abs=0.2)


def test_trajectory_stays_keep_the_norm(monkeypatch):
    # every uniform at 0.9 is above sin^2(pi/4), so no cell of a fully
    # excited start ever flips: each visit is a stay of weight cos^2(theta/2),
    # renormalized back; dividing by sqrt(1 - p_flip) instead of the state's
    # own norm would double the norm's rounding error at every visit
    draws = cooling._draws  # k = round(0.9 2^53), a uniform of 0.9
    monkeypatch.setattr(cooling, "_draws", lambda seed, lane, index: (
        np.full(index.shape, round(0.9 * 2**53)) if lane == 1 else draws(seed, lane, index)))
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=10, n_trajectories=3, q_init=1.0)
    report = equivalence_check(LATTICE, params)[0]
    assert np.all(report.mc.energies == 8.0)
    assert report.passed, report.max_abs_delta


def test_equivalence_degenerate_ground_start():
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=5, n_trajectories=10,
                           q_init=0.0, seed=8)
    report = equivalence_check(LATTICE, params)[0]
    assert report.passed and not report.z_scores.any()
    assert np.allclose(report.mc.mean_energy, -8.0)
    assert np.allclose(report.trajectory.mean_energy, -8.0)


def test_equivalence_verdict_bound():
    # the CLI's compare verdict: every (trajectory, step) energy within 1e-9,
    # the bound below which bench/checks.py reads the z column as 0
    assert cooling.MAX_ABS_DELTA == 1e-9
    mc = Trace(np.zeros((3, 2)), np.pi, "syndrome")
    for delta, passed in ((1e-9, True), (np.nextafter(1e-9, 1.0), False)):
        energies = np.zeros((3, 2))
        energies[1, 1] = -delta
        report = EquivalenceReport(mc, Trace(energies, np.pi, "trajectory"))
        assert report.max_abs_delta == delta and report.passed == passed


@pytest.mark.parametrize("engine", ["_mc_energies", "_trajectory_energies"])
def test_equivalence_check_catches_a_weaker_flip_in_one_engine(monkeypatch, engine):
    # a flip probability of 0.9 sin^2(theta/2) in one engine alone fails the
    # benchmark's compare run at both thetas
    real, flip = getattr(cooling, engine), cooling.flip_probability

    def defective(*args):
        with monkeypatch.context() as patch:
            patch.setattr(cooling, "flip_probability", lambda theta: 0.9 * flip(theta))
            return real(*args)
    monkeypatch.setattr(cooling, engine, defective)
    params = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=20, n_trajectories=50)
    for report in equivalence_check(LATTICE, params):
        assert not report.passed and report.max_abs_delta >= 4.0


# -- lindblad reference engine ---------------------------------------------------

def test_lindblad_reference_trace_decay():
    theta = 0.4
    trace = lindblad_reference_trace(theta, 10, q_init=0.5)
    gamma = flip_probability(theta)
    # E(t) = -1 + 2 q exp(-gamma t) for the single-plaquette system
    want = -1.0 + 2 * 0.5 * np.exp(-gamma * np.arange(11))
    assert np.allclose(trace.mean_energy, want, atol=1e-6)


def test_cooling_params_validation():
    with pytest.raises(ValueError):
        CoolingParams(thetas=(0.0,), n_steps=1, n_trajectories=1)
    with pytest.raises(ValueError):
        CoolingParams(thetas=(4.0,), n_steps=1, n_trajectories=1)
    with pytest.raises(ValueError):
        CoolingParams(thetas=(1.0,), n_steps=1, n_trajectories=1, q_init=1.5)


@pytest.mark.parametrize("thetas", [(np.pi, 0.0), (np.pi / 2, 4.0, np.pi)])
def test_cooling_params_rejects_one_bad_theta(thetas):
    with pytest.raises(ValueError, match=r"theta must lie in \(0, pi\]"):
        CoolingParams(thetas=thetas, n_steps=1, n_trajectories=1)


@pytest.mark.parametrize("q_init", [0.5, 0.3])
def test_trajectory_thetas_match_independent_runs(q_init):
    # 70 trajectories (a full block and a partial one) on two workers:
    # each theta of one run reads the draws of its own single-theta run
    params = CoolingParams(thetas=(np.pi / 2, np.pi), n_steps=3, n_trajectories=70,
                           q_init=q_init, seed=31)
    together = trajectory_run(LATTICE, params, workers=2)
    assert len(together) == 2
    for got, theta in zip(together, params.thetas):
        want = trajectory_run(LATTICE, replace(params, thetas=(theta,)))[0]
        assert got.theta == want.theta == theta and got.engine == "trajectory"
        assert np.array_equal(got.mean_energy, want.mean_energy)
        assert np.array_equal(got.stderr, want.stderr)


def _worst_over_bernstein_cut(lattice, traces, q_init, n, family, alpha=1e-3):
    """Largest |mean - exact mean| / cut over every step of ``traces``, each
    a mean of ``n`` i.i.d. energies, cut at Bernstein's bound at
    ``alpha / family`` two-sided.

    Bernstein's bound uses the exact variance and holds for any law within
    |E| <= cells; a normal cut does not (at theta pi the late steps expect
    under one excited trajectory).  So by Bonferroni over ``family`` means
    the family-wise false-alarm rate on correct code is at most ``alpha``.
    """
    log_term = math.log(2.0 * family / alpha)
    cells = lattice.n_plaquettes + lattice.n_stars
    worst = 0.0
    for trace in traces:
        mean, var = syndrome_chain_exact(lattice, trace.theta, q_init,
                                         len(trace.mean_energy) - 1)
        bound = cells + np.abs(mean)  # |E - mean| <= bound, as |E| <= cells
        # P(|MC mean - mean| >= t) <= 2 exp(-n t^2 / (2 var + 2 bound t / 3))
        reach = 2.0 / 3.0 * bound * log_term
        cut = (reach + np.sqrt(reach**2 + 8.0 * n * log_term * var)) / (2.0 * n)
        worst = max(worst, float(np.max(np.abs(trace.mean_energy - mean) / cut)))
    return worst


def test_syndrome_mc_matches_exact_chain():
    """The MC's mean energy at every step against the exact chain: 2x2 and
    3x2, theta pi and pi/2, q_init 0.5 and 0.3, steps 0-10, 4000
    trajectories, 88 means in all, each cut at Bernstein's bound at 1e-3 / 88
    (family-wise false-alarm rate at most 1e-3).
    """
    n, seed, worst = 4000, 41, 0.0
    for shape in ((2, 2), (3, 2)):
        lattice = ToricLattice.build(*shape)
        for q_init in (0.5, 0.3):
            params = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=10, n_trajectories=n,
                                   q_init=q_init, seed=seed)
            traces = syndrome_mc_run(lattice, params)
            worst = max(worst, _worst_over_bernstein_cut(lattice, traces, q_init, n, 88))
    assert worst <= 1.0


def test_trajectory_run_matches_exact_chain():
    """The quantum trajectories' mean energy at every step against the exact
    chain: 2x2, theta pi and pi/2, q_init 0.5 and 0.3, steps 0-10, 2000
    trajectories on two workers, 44 means, each cut at Bernstein's bound at
    1e-3 / 44, so the family-wise false-alarm rate on correct code is at
    most 1e-3.

    On correct code the worst mean reads 0.44 of its cut (0.54 at seed 42).
    Flip probability x0.95, injected with K0 rescaled to match, reads 0.84
    (0.81 at seed 42): not caught at this size, where the exact means put it
    at 0.68 of the cut (1.0 at 4000 trajectories).  x0.90 reads 1.43 (1.46
    at seed 42) and is caught.
    """
    n, seed, worst = 2000, 41, 0.0
    for q_init in (0.5, 0.3):
        params = CoolingParams(thetas=(np.pi, np.pi / 2), n_steps=10, n_trajectories=n,
                               q_init=q_init, seed=seed)
        traces = trajectory_run(LATTICE, params, workers=2)
        worst = max(worst, _worst_over_bernstein_cut(LATTICE, traces, q_init, n, 44))
    assert worst <= 1.0


# -- batched Monte Carlo and its counter-based draws ----------------------------

@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (4, 4)])
@pytest.mark.parametrize("theta", [np.pi, np.pi / 2, np.pi / 4])
@pytest.mark.parametrize("q_init", [0.0, 0.3, 0.5])
def test_batched_mc_matches_scalar_oracle(shape, theta, q_init):
    # the batched sampler and sweep must read the per-trajectory draws and
    # make the moves of the scalar loop, bit for bit
    lattice = ToricLattice.build(*shape)
    params = CoolingParams(thetas=(theta,), n_steps=12, n_trajectories=25,
                           q_init=q_init, seed=13)
    rows = range(params.n_trajectories)
    assert np.array_equal(cooling._mc_energies(lattice, params, rows)[0],
                          syndrome_mc_reference(lattice, params, rows))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4)])
@pytest.mark.parametrize("grid", [1, 4])
def test_tied_visit_times_go_to_the_lower_cell(monkeypatch, shape, grid):
    # lane 0 cut to ``grid`` values (1: all equal) makes visit times tie
    # often: the Monte Carlo must make the moves of the scalar loop that
    # visits tied cells lowest first, bit for bit, and the trajectory engine
    # must follow it
    def clock(times):
        return np.floor(times * grid) / grid

    draws = cooling._draws  # the seam returns k, the uniform u = k 2^-53: clock u, return its k
    monkeypatch.setattr(cooling, "_draws", lambda seed, lane, index: (
        (clock(draws(seed, lane, index) * 2.0**-53) * 2.0**53).astype(np.int64) if lane == 0
        else draws(seed, lane, index)))
    lattice = ToricLattice.build(*shape)
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=8, n_trajectories=20,
                           q_init=0.5, seed=53)
    rows = range(params.n_trajectories)
    mc = cooling._mc_energies(lattice, params, rows)[0]
    assert np.array_equal(mc, syndrome_mc_reference(lattice, params, rows, clock=clock))
    if shape == (2, 2):
        trajectories = cooling._trajectory_energies(lattice, params, rows)[0]
        assert np.max(np.abs(trajectories - mc)) <= 1e-9


def test_mc_independent_of_workers_and_batch_size(monkeypatch):
    # 150 trajectories, split 50/50/50 over three workers
    lattice = ToricLattice.build(3, 3)
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=8, n_trajectories=150,
                           q_init=0.5, seed=21)
    serial = syndrome_mc_run(lattice, params, workers=1)[0]
    runs = [syndrome_mc_run(lattice, params, workers=3)[0]]
    monkeypatch.setattr(cooling, "BATCH_ROW_CELLS", 1)  # one trajectory per batch
    runs.append(syndrome_mc_run(lattice, params, workers=1)[0])
    for run in runs:
        assert np.array_equal(run.mean_energy, serial.mean_energy)
        assert np.array_equal(run.stderr, serial.stderr)


@pytest.mark.parametrize("chunk", [1, 7, 1000, 2700, 2701])
def test_mc_chunked_first_flips_match_one_pass(monkeypatch, chunk):
    # 3 theta x 150 trajectories x 18 cells = 8100 entries per sweep, one
    # pass at the default chunk; a small chunk splits every theta block's
    # first flips into rows and spreads them in slices that straddle the
    # blocks (2700 entries is exactly one block), which must move no energy
    lattice = ToricLattice.build(3, 3)
    params = CoolingParams(thetas=(np.pi / 3, np.pi, np.pi / 5), n_steps=8, n_trajectories=150,
                           q_init=0.5, seed=29)
    whole = syndrome_mc_run(lattice, params)
    monkeypatch.setattr(cooling, "SWEEP_CHUNK", chunk)
    for got, want in zip(syndrome_mc_run(lattice, params), whole):
        assert np.array_equal(got.energies, want.energies)


def test_trajectory_tables_are_built_once_per_lattice(monkeypatch):
    # the energy plan and the per-position rules depend on the lattice alone:
    # two runs on one lattice build them once and read the same energies
    built = []
    monkeypatch.setattr(cooling, "build_toric",
                        lambda *shape: built.append(shape) or build_toric(*shape))
    cooling._plan.cache_clear()
    params = CoolingParams(thetas=(np.pi / 2, np.pi), n_steps=6, n_trajectories=20, seed=3)
    first = cooling._trajectory_energies(LATTICE, params, range(20))
    assert np.array_equal(cooling._trajectory_energies(LATTICE, params, range(20)), first)
    assert built == [(2, 2)]


def test_every_uniform_is_below_the_bound_at_pi():
    # at theta = pi the flip bound is 2^53, above every draw, so every u passes
    assert flip_probability(np.pi) == 1.0 and int(cooling._below(1.0)) == 2**53
    k = cooling._draws(5, 1, np.arange(1 << 20))
    assert k.min() >= 0 and k.max() < 2**53
    assert int(np.uint64(2**64 - 1) >> cooling._S11) == 2**53 - 1  # the largest top-53-bit value


def _u_drawn_in_sweeps(monkeypatch, params):
    """The u (lane 1) values the Monte Carlo draws inside its sweeps, and the
    lanes it draws there at all; sweep 0's parity-repair picks are outside."""
    draws, sweep, inside, lanes = cooling._draws, cooling._sweep, [], {0: 0, 1: 0, 2: 0}

    def logged(seed, lane, index):
        if inside:
            lanes[lane] += index.size
        return draws(seed, lane, index)

    def marked(*args):
        inside.append(True)
        try:
            return sweep(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(cooling, "_draws", logged)
    monkeypatch.setattr(cooling, "_sweep", marked)
    cooling._mc_energies(ToricLattice.build(4, 4), params, range(params.n_trajectories))
    monkeypatch.undo()
    return lanes


def test_mc_draws_no_uniform_at_pi(monkeypatch):
    # every u passes at pi, so a pi run hashes none inside its sweeps, and a
    # run with pi hashes exactly the u of its other thetas
    params = CoolingParams(thetas=(np.pi,), n_steps=6, n_trajectories=200, q_init=0.5, seed=31)
    lanes = _u_drawn_in_sweeps(monkeypatch, params)
    assert lanes[1] == 0 and lanes[0] and lanes[2]
    pair = _u_drawn_in_sweeps(monkeypatch, replace(params, thetas=(np.pi, np.pi / 4)))
    alone = _u_drawn_in_sweeps(monkeypatch, replace(params, thetas=(np.pi / 4,)))
    assert pair[1] == alone[1] > 0


@pytest.mark.parametrize("workers,batch_row_cells", [(1, None), (3, None), (1, 1)])
def test_mc_scan_matches_independent_runs(monkeypatch, workers, batch_row_cells):
    # unsorted thetas with a duplicate on 150 trajectories: sweeping them
    # together on one set of draws must give each theta's own run, bit for bit
    lattice = ToricLattice.build(3, 3)
    params = CoolingParams(thetas=(np.pi / 2,), n_steps=8, n_trajectories=150,
                           q_init=0.5, seed=23)
    thetas = (np.pi / 4, np.pi, np.pi / 2, np.pi / 4)
    singles = [syndrome_mc_run(lattice, replace(params, thetas=(theta,)))[0]
               for theta in thetas]
    if batch_row_cells is not None:
        monkeypatch.setattr(cooling, "BATCH_ROW_CELLS", batch_row_cells)
    scan = syndrome_mc_run(lattice, replace(params, thetas=thetas), workers=workers)
    assert len(scan) == len(thetas)
    for got, want in zip(scan, singles):
        assert got.theta == want.theta and got.engine == want.engine == "syndrome"
        assert got.energies.shape == want.energies.shape == (150, 9)
        assert np.array_equal(got.energies, want.energies)
        assert np.array_equal(got.steps, want.steps)
        assert np.array_equal(got.mean_energy, want.mean_energy)
        assert np.array_equal(got.stderr, want.stderr)


def test_draws_are_splitmix64_bit_for_bit():
    # the vectorized draws are the top 53 bits of the scalar SplitMix64 at
    # counter 3 * index + lane, whose first output from state 0 is the
    # published 0xE220A8397B1DCDAF
    assert splitmix64(0, 0) == 0xE220A8397B1DCDAF
    first = cooling._draws(0, 0, np.zeros(1, dtype=np.int64))
    assert first.dtype == np.int64 and first[0] == 0xE220A8397B1DCDAF >> 11
    rng = np.random.default_rng(61)
    index = np.concatenate([np.arange(50), rng.integers(0, (1 << 63) // 3, 200)])
    for seed in (0, 7, -1, (1 << 64) - 1, 1 << 70):
        for lane in range(3):
            want = [splitmix64(seed, 3 * int(i) + lane) >> 11 for i in index]
            assert np.array_equal(cooling._draws(seed, lane, index), want)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.floats(0.0, 1.0), st.integers(0, 1 << 53).map(lambda k: k * 2.0**-53)))
@example(0.0)
@example(1.0)
@example(5e-324)
@example(2.0**-53)
@example(float(np.nextafter(1.0, 0.0)))
def test_an_integer_draw_is_below_p_iff_its_uniform_is(p):
    # k < ceil(p 2^53) iff k 2^-53 < p, for the k next to the bound and at the
    # ends of [0, 2^53); an array of p gives the scalar's bound per entry
    bound = int(cooling._below(p))
    k = np.array(sorted({min(max(bound + d, 0), (1 << 53) - 1) for d in range(-2, 3)}
                        | {0, (1 << 53) - 1}), dtype=np.int64)
    assert np.array_equal(k < cooling._below(p), k * 2.0**-53 < p)
    assert np.array_equal(cooling._below(np.array([p, 0.5, p])), [bound, 1 << 52, bound])


@pytest.mark.parametrize("q_init", [0.3, 0.5, 1.0])
def test_start_syndromes_are_the_oracles(q_init):
    # rows 10 to 69 of a run of 70 trajectories on the 3x2 torus
    lattice = ToricLattice.build(3, 2)
    params = CoolingParams(thetas=(np.pi,), n_steps=3, n_trajectories=70, q_init=q_init, seed=67)
    got = cooling._sample_bits(cooling._kinds(lattice), params, range(10, 70))
    assert np.array_equal(got, [start_syndromes(lattice, params, k) for k in range(10, 70)])
    assert cooling_draw(lattice, 67, 70, 69, 0, 1, 5, 0) == cooling._draws(
        67, 0, np.array([6 * 70 + 69 * 6 + 5]))[0] * 2.0**-53  # the last star's start uniform


def test_draw_counters_stay_below_2_63():
    # a run reads (steps + 1) * cells * trajectories * 3 counters; one that
    # reaches 2^63 is refused before any engine allocates, the largest below runs
    def rows(lattice, params, rows):
        return rows

    most = ((1 << 63) - 1) // (3 * 8)
    assert cooling._fan_out(rows, LATTICE, CoolingParams((np.pi,), 0, most), 1) == range(most)
    params = CoolingParams(thetas=(np.pi,), n_steps=0, n_trajectories=most + 1)
    with pytest.raises(CapExceededError, match="capped at 2\\^63"):
        cooling._fan_out(rows, LATTICE, params, 1)
    many = CoolingParams(thetas=(np.pi,), n_steps=1 << 40, n_trajectories=1 << 20)
    for run in (syndrome_mc_run, trajectory_run, equivalence_check):
        with pytest.raises(CapExceededError):
            run(LATTICE, many, 2)


@pytest.mark.parametrize("engine", [syndrome_mc_run, trajectory_run])
def test_energies_independent_of_workers_and_batches(monkeypatch, engine):
    # 150 trajectories: two workers take 75 each, the trajectory engine's
    # blocks start at 0, 64 and 128 serially and at 0, 64, 75 and 139 on two
    # workers, and Monte Carlo batches of 37 trajectories end inside them
    params = CoolingParams(thetas=(np.pi, 0.3), n_steps=6, n_trajectories=150, seed=71)
    serial = engine(LATTICE, params, workers=1)
    runs = [engine(LATTICE, params, workers=2)]
    monkeypatch.setattr(cooling, "BATCH_ROW_CELLS", 37 * 2 * 8)
    runs.append(engine(LATTICE, params, workers=1))
    for run in runs:
        for got, want in zip(run, serial):
            assert np.array_equal(got.energies, want.energies)


@pytest.mark.parametrize("thetas", [(), np.empty(0)])
def test_mc_scan_rejects_empty_thetas(thetas):
    with pytest.raises(ValueError, match="at least one theta"):
        CoolingParams(thetas=thetas, n_steps=2, n_trajectories=4)


def test_batched_sampler_uniform_over_even_patterns():
    # at q = 1/2 the parity repair maps the 16 patterns of a kind's four bits
    # uniformly onto the 8 even ones; a chi-square test with 7 degrees of
    # freedom per kind at 5e-4 each (false-alarm rate 1e-3 for the pair)
    params = CoolingParams(thetas=(np.pi,), n_steps=0, n_trajectories=8000, seed=17)
    bits = cooling._sample_bits(cooling._kinds(LATTICE), params, range(8000))
    assert bits.shape == (8000, 8)
    even = [c for c in range(16) if bin(c).count("1") % 2 == 0]
    limit = stats.chi2.ppf(1.0 - 5e-4, 7)
    for cols in (slice(0, 4), slice(4, 8)):
        codes = ((bits[:, cols] < 0) * np.array([1, 2, 4, 8])).sum(axis=1)
        counts = np.bincount(codes, minlength=16)
        assert counts.sum() == counts[even].sum() == 8000
        assert np.sum((counts[even] - 1000.0) ** 2 / 1000.0) < limit


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)])
def test_batched_sampler_ground_and_parity(shape):
    lattice = ToricLattice.build(*shape)
    n_p = lattice.n_plaquettes
    kinds = cooling._kinds(lattice)
    for q in (0.0, 0.3, 1.0):
        params = CoolingParams(thetas=(np.pi,), n_steps=0, n_trajectories=150, q_init=q, seed=5)
        bits = cooling._sample_bits(kinds, params, range(150))
        assert bits.shape == (150, 2 * n_p)
        assert np.all(bits == 1) or q
        for row in bits:
            assert _parity_ok(row, lattice)


@pytest.mark.parametrize("shape", [(5, 3), (8, 8)])
@pytest.mark.parametrize("theta", [np.pi, np.pi / 2, np.pi / 4])
@pytest.mark.parametrize("q_init", [0.3, 1.0])
def test_batched_mc_matches_scalar_oracle_wider(shape, theta, q_init):
    # a non-square and a larger torus, with longer chains of flips in a sweep
    test_batched_mc_matches_scalar_oracle(shape, theta, q_init)


def _eager_sweeps(monkeypatch, lattice, params, rows):
    """The Monte Carlo energies of ``rows``, then those with each sweep made
    by the eager visit loop of the oracle, every draw read."""
    solved = cooling._mc_energies(lattice, params, rows)
    (prob,) = [flip_probability(theta) for theta in params.thetas]
    monkeypatch.setattr(cooling, "_sweep", lambda bits, _tables, params, sweep, first:
                        sweep_loop_reference(lattice, bits, prob, params.seed,
                                             params.n_trajectories, sweep, first))
    return solved, cooling._mc_energies(lattice, params, rows)


@pytest.mark.parametrize("shape", [(16, 16), (2, 5), (5, 2)])
@pytest.mark.parametrize("theta", [np.pi, np.pi / 4])
@pytest.mark.parametrize("q_init", [0.5, 1.0])
def test_sweep_matches_position_loop(monkeypatch, shape, theta, q_init):
    # 40 trajectories of 130, from row 50; on the thin tori both x-edges or
    # both y-edges of a cell reach one neighbour
    lattice = ToricLattice.build(*shape)
    params = CoolingParams(thetas=(theta,), n_steps=4, n_trajectories=130,
                           q_init=q_init, seed=37)
    solved, eager = _eager_sweeps(monkeypatch, lattice, params, range(50, 90))
    assert np.array_equal(solved, eager)


@pytest.mark.parametrize("theta", [np.pi, np.pi / 4])
def test_lazy_sweep_matches_position_loop_on_64x64(monkeypatch, theta):
    # 8192 cells a row: long chains of flips, each draw read only where needed
    lattice = ToricLattice.build(64, 64)
    params = CoolingParams(thetas=(theta,), n_steps=2, n_trajectories=3, seed=59)
    solved, eager = _eager_sweeps(monkeypatch, lattice, params, range(3))
    assert np.array_equal(solved, eager)


@pytest.mark.parametrize("kind", ["plaquettes", "Star"])
def test_cooling_cycle_rejects_unknown_kind(kind):
    state = with_ancilla(toric_ground_state(LATTICE))
    with pytest.raises(ValueError, match="'plaquette' or 'star'"):
        cooling_cycle_trajectory(state, LATTICE.plaquettes[0], np.pi,
                                 np.random.default_rng(0), kind=kind)
