import numpy as np
import pytest

from rydsim.gates import (
    GateSpec,
    cnot_n,
    controlled_flip,
    controlled_string,
    faulty_gate,
    flip_probability,
    heisenberg_xx_step,
    heisenberg_yy_step,
    heisenberg_zz_step,
    hopping_step,
    plaquette_step,
    star_step,
    syndrome_map,
)
from rydsim.pauli import OperatorSum, PauliString
from rydsim.statevec import StateVector

from oracles import expm_hermitian, label_matrix, random_label


def op_matrix(apply_fn, n):
    """Dense matrix of a state-mutating gate function."""
    dim = 1 << n
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        state = StateVector.basis_state(n, col)
        apply_fn(state)
        mat[:, col] = state.amps
    return mat


def random_hermitian_sum(rng, n, n_terms=4):
    terms = [
        (rng.normal(), PauliString.from_label(random_label(rng, n)))
        for _ in range(n_terms)
    ]
    op = OperatorSum(terms, n)
    return (0.5 * (op + op.adjoint())).normalized()


# -- the many-target gate ------------------------------------------------

def test_cnot_n_flips_all_targets():
    state = StateVector.basis_state(4, "1000")  # control qubit 0 in |1>
    cnot_n(state, 0, (1, 2, 3))
    assert np.allclose(state.amps, StateVector.basis_state(4, "1111").amps)


def test_cnot_n_idle_control_does_nothing():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    full = np.zeros(16, dtype=complex)
    full[: 8] = amps  # control qubit 3 = |0> (top bit clear)
    state = StateVector(full, copy=True)
    cnot_n(state, 3, (0, 1, 2))
    assert np.allclose(state.amps, full)


def test_cnot_n_involution_and_conjugation_identity():
    g = op_matrix(lambda s: cnot_n(s, 0, (1, 2, 3)), 4)
    assert np.allclose(g @ g, np.eye(16))
    x_c = label_matrix("XIII")
    a_p = label_matrix("XXXX")
    assert np.allclose(g @ x_c @ g, a_p)


def test_cnot_n_geometry_errors():
    state = StateVector.basis_state(3, "110")
    start = state.amps.copy()
    bad = [(0, (0, 1), ValueError), (0, (), ValueError), (0, (1, 1), ValueError),
           (2, [1, 2], ValueError), (0, (1, 3), IndexError), (3, (0, 1), IndexError),
           (-1, (0,), IndexError)]
    # target strings are built once per argument tuple, but a call that raises
    # caches nothing: each raises again, also right after valid calls
    for _ in range(2):
        for control, targets, error in bad:
            cnot_n(cnot_n(state, 0, (1, 2)), 0, (1, 2))
            with pytest.raises(error):
                cnot_n(state, control, targets)
            assert np.array_equal(state.amps, start)


# -- plaquette / star steps ----------------------------------------------

@pytest.mark.parametrize("phi", [0.0, 0.37, 2.9, 11.0])
def test_plaquette_step_equals_four_body_exponential(phi):
    got = op_matrix(lambda s: plaquette_step(s, (0, 1, 2, 3), phi), 4)
    want = expm_hermitian(label_matrix("XXXX"), 1j * phi)
    assert np.linalg.norm(got - want) < 1e-10


def test_star_step_equals_four_body_exponential():
    rng = np.random.default_rng(1)
    for phi in [*rng.uniform(0, 2 * np.pi, 5), -0.8, -2.9, 11.0, -37.5]:
        got = op_matrix(lambda s: star_step(s, (0, 1, 2, 3), phi), 4)
        want = expm_hermitian(label_matrix("ZZZZ"), 1j * phi)
        assert np.linalg.norm(got - want) < 1e-10


def test_plaquette_star_steps_commute_on_overlap():
    # plaquette on (0,1,2,3) and star on (2,3,4,5): two shared qubits
    def pq(s):
        plaquette_step(s, (0, 1, 2, 3), 0.7)

    def st(s):
        star_step(s, (2, 3, 4, 5), 1.1)

    ab = op_matrix(lambda s: st(pq(s) or s) or s, 6)
    ba = op_matrix(lambda s: pq(st(s) or s) or s, 6)
    assert np.allclose(ab, ba, atol=1e-12)


def test_zero_angle_steps_are_identity():
    assert np.allclose(op_matrix(lambda s: plaquette_step(s, (0, 1, 2, 3), 0.0), 4),
                       np.eye(16))
    assert np.allclose(op_matrix(lambda s: star_step(s, (0, 1, 2, 3), 0.0), 4),
                       np.eye(16))


# -- faulty gate ----------------------------------------------------------

def test_faulty_gate_zero_generator_is_ideal():
    rng = np.random.default_rng(2)
    spec = GateSpec(0, (1, 2, 3), OperatorSum([], 3), 0.8)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
    got = state.copy()
    faulty_gate(got, spec)
    want = cnot_n(state.copy(), 0, (1, 2, 3))
    assert np.allclose(got.amps, want.amps)


def test_faulty_gate_zero_phase_is_ideal():
    rng = np.random.default_rng(3)
    q = random_hermitian_sum(rng, 3)
    spec = GateSpec(0, (1, 2, 3), q, 0.0)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
    got = faulty_gate(state.copy(), spec)
    want = cnot_n(state.copy(), 0, (1, 2, 3))
    assert np.allclose(got.amps, want.amps)


def test_faulty_gate_unitary_and_continuous():
    rng = np.random.default_rng(4)
    q = random_hermitian_sum(rng, 3)
    prev = None
    for phi in (0.1, 0.1 + 1e-6):
        mat = op_matrix(
            lambda s: faulty_gate(s, GateSpec(0, (1, 2, 3), q, phi)), 4
        )
        assert np.allclose(mat @ mat.conj().T, np.eye(16), atol=1e-10)
        prev = mat if prev is None else prev
    assert np.linalg.norm(mat - prev) < 1e-4  # continuity in phi


def test_faulty_gate_first_order_expansion_scaling():
    # residual of U' - (1 + 2 i phi Q |0><0|_c + i phi A_p) scales as phi^2
    rng = np.random.default_rng(5)
    a_p = label_matrix("XXXX")
    p0_control = 0.5 * (np.eye(16) + label_matrix("ZIII"))
    for _ in range(3):
        q3 = random_hermitian_sum(rng, 3)
        q_full = OperatorSum(
            [
                (
                    c,
                    PauliString.from_sites(
                        4,
                        {k + 1: s.letter(k) for k in range(3) if s.letter(k) != "I"},
                        s.phase,
                    ),
                )
                for c, s in q3.normalized()
            ],
            4,
        ).to_matrix()
        phis = np.logspace(-3, -1, 7)
        errs = []
        for phi in phis:
            spec = GateSpec(0, (1, 2, 3), q3, float(phi))
            g = op_matrix(lambda s: faulty_gate(s, spec), 4)
            u_x = np.cos(phi) * np.eye(16) + 1j * np.sin(phi) * label_matrix("XIII")
            u_prime = g @ u_x @ g
            first = np.eye(16) + 2j * phi * (q_full @ p0_control) + 1j * phi * a_p
            errs.append(np.linalg.norm(u_prime - first, 2))
        slope = np.polyfit(np.log(phis), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.1


def test_faulty_gate_requires_support_on_targets():
    q = OperatorSum.from_string(PauliString.single(4, 0, "X"))  # touches control
    with pytest.raises(ValueError):
        faulty_gate(StateVector.zero_state(4), GateSpec(0, (1, 2, 3), q, 0.1))



def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(0, (0, 1))
    with pytest.raises(ValueError):  # a spec without a generator is not faulty
        faulty_gate(StateVector.zero_state(3), GateSpec(0, (1, 2), None, 0.1))
    with pytest.raises(ValueError):  # any given generator must be Hermitian
        GateSpec(0, (1,), OperatorSum([(1j, PauliString.single(1, 0, "X"))]), 0.1)
    # the generator's qubit j is target j, so its size is the target count
    q4 = OperatorSum.from_string(PauliString.from_label("IXZY"))
    with pytest.raises(ValueError, match="acts on 4 qubits, the gate has 3 targets"):
        GateSpec(0, (1, 2, 3), q4, 0.1)


# -- Heisenberg steps ------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.456, np.pi, 4.4])
def test_xx_step_matrix(theta):
    got = op_matrix(lambda s: heisenberg_xx_step(s, 0, 1, theta), 2)
    want = expm_hermitian(label_matrix("XX"), 0.5j * theta)
    assert np.linalg.norm(got - want) < 1e-10


def test_yy_zz_steps_match_exponentials():
    rng = np.random.default_rng(6)
    for theta in rng.uniform(-np.pi, np.pi, 4):
        yy = op_matrix(lambda s: heisenberg_yy_step(s, 0, 1, theta), 2)
        zz = op_matrix(lambda s: heisenberg_zz_step(s, 0, 1, theta), 2)
        assert np.linalg.norm(yy - expm_hermitian(label_matrix("YY"), 0.5j * theta)) < 1e-10
        assert np.linalg.norm(zz - expm_hermitian(label_matrix("ZZ"), 0.5j * theta)) < 1e-10


def test_xx_step_pi_reduces_to_two_qubit_gate():
    # at theta = pi the controlled factor is the two-qubit controlled flip,
    # up to the phase convention: compare against -i * Z_i-conjugated CNOT
    got = op_matrix(lambda s: heisenberg_xx_step(s, 0, 1, np.pi), 2)
    want = expm_hermitian(label_matrix("XX"), 0.5j * np.pi)  # = i XX
    assert np.linalg.norm(got - want) < 1e-10
    assert np.allclose(got, 1j * label_matrix("XX"), atol=1e-10)


def test_xx_step_rejects_same_qubit():
    with pytest.raises(ValueError):
        heisenberg_xx_step(StateVector.zero_state(2), 1, 1, 0.1)


def test_hopping_step_matrices():
    rng = np.random.default_rng(7)
    for phi in [*rng.uniform(-2, 2, 4), -0.6, -3.1, 11.0, -37.5]:
        xxz = op_matrix(lambda s: hopping_step(s, 0, 1, 2, phi, "x"), 3)
        yyz = op_matrix(lambda s: hopping_step(s, 0, 1, 2, phi, "y"), 3)
        assert np.linalg.norm(xxz - expm_hermitian(label_matrix("XXZ"), 1j * phi)) < 1e-10
        assert np.linalg.norm(yyz - expm_hermitian(label_matrix("YYZ"), 1j * phi)) < 1e-10


# -- syndrome map and controlled flips -------------------------------------

def _plaquette_eigenstate(sign):
    # (|0000> + sign |1111>)/sqrt2 as a 5-qubit state with ancilla |0> on top
    amps = np.zeros(32, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2)
    amps[0b1111] = sign / np.sqrt(2)
    return StateVector(amps, copy=False)


def test_syndrome_map_truth_table():
    for sign, expect_anc_one in ((+1, 0.0), (-1, 1.0)):
        state = _plaquette_eigenstate(sign)
        syndrome_map(state, 4, PauliString.from_label("XXXXI"))
        anc_one = float(np.sum(np.abs(state.amps[16:]) ** 2))
        assert anc_one == pytest.approx(expect_anc_one, abs=1e-12)


def test_syndrome_map_is_involution():
    mat = op_matrix(lambda s: syndrome_map(s, 4, PauliString.from_label("XXXXI")), 5)
    assert np.allclose(mat @ mat, np.eye(32), atol=1e-12)


def test_syndrome_map_star_variant():
    state = StateVector.zero_state(5)  # B_s = +1 eigenstate, ancilla |0>
    syndrome_map(state, 4, PauliString.from_sites(5, {k: "Z" for k in range(4)}))
    assert float(np.sum(np.abs(state.amps[16:]) ** 2)) == pytest.approx(0.0)
    state = StateVector.basis_state(5, "10000")  # one Z flipped: B_s = -1
    syndrome_map(state, 4, PauliString.from_sites(5, {k: "Z" for k in range(4)}))
    assert float(np.sum(np.abs(state.amps[16:]) ** 2)) == pytest.approx(1.0)


def test_controlled_flip_zero_angle_identity():
    mat = op_matrix(lambda s: controlled_flip(s, 0, 1, 0.0), 2)
    assert np.allclose(mat, np.eye(4))


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, np.pi])
def test_full_cycle_flip_probability(theta):
    # S U S then ancilla readout flips A_p with probability sin^2(theta/2)
    state = _plaquette_eigenstate(-1)
    syndrome_map(state, 4, PauliString.from_label("XXXXI"))
    controlled_flip(state, 4, 0, theta, axis="z")
    syndrome_map(state, 4, PauliString.from_label("XXXXI"))
    anc_one = float(np.sum(np.abs(state.amps[16:]) ** 2))
    assert anc_one == pytest.approx(flip_probability(theta), abs=1e-12)


def test_flip_probability_values():
    assert flip_probability(np.pi) == pytest.approx(1.0)
    assert flip_probability(0.02) == pytest.approx(1e-4, rel=1e-3)


# -- kron-oracle pins of the Pauli-structured gates -------------------------

def _controlled(control, n, on_one):
    """|0><0|_c (x) 1 + |1><1|_c (x) on_one, built from oracle labels."""
    z_c = label_matrix("".join("Z" if q == control else "I" for q in range(n)))
    eye = np.eye(1 << n)
    return 0.5 * (eye + z_c) + 0.5 * (eye - z_c) @ on_one


@pytest.mark.parametrize("phase", [1, -1])
def test_controlled_string_matches_kron_oracle(phase):
    rng = np.random.default_rng(8)
    n, control = 5, 2  # control on a middle qubit
    seen_y = 0
    while seen_y < 6:
        rest = random_label(rng, n - 1)
        if "Y" not in rest:
            continue
        seen_y += 1
        label = rest[:control] + "I" + rest[control:]
        p = PauliString.from_label(label, phase)
        got = op_matrix(lambda s: controlled_string(s, control, p), n)
        want = _controlled(control, n, phase * label_matrix(label))
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize(
    "control,targets", [(0, (1, 3, 4)), (4, (0, 2, 3)), (2, (0, 4))]
)
def test_cnot_n_matches_kron_oracle(control, targets):
    n = 5
    x_t = label_matrix("".join("X" if q in targets else "I" for q in range(n)))
    got = op_matrix(lambda s: cnot_n(s, control, targets), n)
    assert np.array_equal(got, _controlled(control, n, x_t))


@pytest.mark.parametrize("axis", ["z", "x"])
@pytest.mark.parametrize("control,target", [(0, 2), (2, 1)])
def test_controlled_flip_matches_kron_oracle(axis, control, target):
    n = 3
    sigma = label_matrix("".join(axis.upper() if q == target else "I" for q in range(n)))
    for theta in (0.3, 1.9, np.pi):
        got = op_matrix(lambda s: controlled_flip(s, control, target, theta, axis), n)
        want = _controlled(control, n, expm_hermitian(sigma, 0.5j * theta))
        assert np.allclose(got, want, atol=1e-12)
