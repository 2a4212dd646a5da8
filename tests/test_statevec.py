import numpy as np
import pytest

from rydsim.errors import DimensionMismatchError
from rydsim.models import build_toric, toric_ground_state
from rydsim.pauli import COEFF_EPS, OperatorSum, PauliString, to_matrix
from rydsim.statevec import (
    DensityMatrix,
    StateVector,
    density_energies,
    measure_projector,
)

from oracles import (ScriptedRng, expm_hermitian, label_matrix, propagator, random_label,
                     sum_matrix)


def random_string(rng, n, hermitian=False):
    phase = int(rng.integers(0, 4))
    if hermitian:
        phase = 2 * (phase % 2)
    return PauliString(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)), phase
    )


def test_apply_x_on_vacuum():
    state = StateVector.zero_state(4)
    state.apply_string(PauliString.single(4, 0, "X"))
    assert np.array_equal(state.amps, StateVector.basis_state(4, "1000").amps)


@pytest.mark.parametrize("bits", ["0a1", "012", "1 0", "00"])
def test_basis_state_rejects_a_string_not_of_n_bits(bits):
    with pytest.raises(ValueError, match="characters 0 and 1"):
        StateVector.basis_state(3, bits)
    assert StateVector.basis_state(3, "001").amps[4] == 1.0  # qubit 2 set: index 4


def test_apply_string_involution():
    rng = np.random.default_rng(0)
    a_p = PauliString.from_label("XXXX")
    state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
    ref = state.copy()
    state.apply_string(a_p).apply_string(a_p)
    assert np.allclose(state.amps, ref.amps)


def test_apply_string_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        state = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
        p = random_string(rng, n)
        want = p.phase * label_matrix(p.to_label()) @ state.amps
        got = state.apply_string(p).amps
        assert np.allclose(got, want, atol=1e-13)


def test_exp_pauli_zero_angle_is_identity():
    rng = np.random.default_rng(2)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 8))).normalize()
    ref = state.copy()
    state.apply_exp_pauli(PauliString.from_label("XZY", -1), 0.0)
    assert np.allclose(state.amps, ref.amps)


def test_exp_pauli_quarter_turn():
    # exp(i pi X / 2) = i X
    state = StateVector.zero_state(1)
    state.apply_exp_pauli(PauliString.from_label("X"), np.pi / 2)
    assert np.allclose(state.amps, [0.0, 1j])


def test_exp_pauli_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        p = random_string(rng, n, hermitian=True)
        theta = rng.uniform(-3, 3)
        state = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
        want = expm_hermitian(p.to_matrix(), 1j * theta) @ state.amps
        got = state.apply_exp_pauli(p, theta).amps
        assert np.allclose(got, want, atol=1e-12)


def test_exp_pauli_rejects_non_hermitian():
    state = StateVector.zero_state(2)
    with pytest.raises(ValueError):
        state.apply_exp_pauli(PauliString.from_label("XZ", 1j), 0.3)


def test_apply_operator_matches_kron_embedding():
    rng = np.random.default_rng(4)
    h2 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 8))).normalize()
    via_op = state.copy().apply_operator(h2, (1,))
    # embed by hand: qubit 1 is the middle kron slot
    full = np.kron(np.eye(2), np.kron(h2, np.eye(2)))
    assert np.allclose(via_op.amps, full @ state.amps)


def test_apply_operator_qubit_order_convention():
    rng = np.random.default_rng(5)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
    zx = label_matrix("ZX")  # qubits[0] = Z on bit 0, qubits[1] = X on bit 1
    got = state.copy().apply_operator(zx, (3, 1))
    want = state.copy().apply_string(PauliString.from_sites(4, {3: "Z", 1: "X"}))
    assert np.allclose(got.amps, want.amps)


def test_apply_operator_reads_qubit_j_as_bit_j():
    # the matrix of an n-qubit sum applies unchanged on range(n)
    rng = np.random.default_rng(8)
    for n in (1, 3, 4):
        op = OperatorSum([(complex(*rng.normal(size=2)), random_string(rng, n))
                          for _ in range(5)], n)
        state = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n)))
        got = state.copy().apply_operator(op.to_matrix(), range(n))
        assert np.allclose(got.amps, op.to_matrix() @ state.amps, atol=1e-12)


def test_norm_preserved_over_long_random_chains():
    rng = np.random.default_rng(6)
    n = 4
    state = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
    for _ in range(10_000):
        kind = rng.integers(3)
        if kind == 0:
            state.apply_string(random_string(rng, n))
        elif kind == 1:
            state.apply_exp_pauli(random_string(rng, n, hermitian=True),
                                  rng.uniform(-3, 3))
        else:
            theta = rng.uniform(0, np.pi)
            u = np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                dtype=complex,
            )
            state.apply_operator(u, (int(rng.integers(n)),))
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_linearity_of_apply():
    rng = np.random.default_rng(7)
    n = 4
    a = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
    b = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
    alpha, beta = 0.3 - 0.1j, 0.7 + 0.2j
    p = random_string(rng, n)
    mixed = StateVector(alpha * a.amps + beta * b.amps, copy=False)
    lhs = mixed.apply_string(p).amps
    rhs = alpha * a.copy().apply_string(p).amps + beta * b.copy().apply_string(p).amps
    assert np.allclose(lhs, rhs, atol=1e-13)


# -- expectation values --------------------------------------------------

def test_expectation_identity():
    rng = np.random.default_rng(8)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 8))).normalize()
    assert state.expectation(OperatorSum.identity(3)) == pytest.approx(1.0)


def test_expectation_toric_ground_state():
    h, lattice = build_toric(2, 2)
    gs = toric_ground_state(lattice)
    assert gs.expectation(h) == pytest.approx(-8.0, abs=1e-12)


def test_computational_state_star_full_plaquette_blind():
    # |0...0>: every B_s gives +1, every A_p averages to zero
    h, lattice = build_toric(2, 2)
    state = StateVector.zero_state(8)
    for s in range(lattice.n_stars):
        assert state.expectation_string(lattice.star_string(s)).real == pytest.approx(1.0)
    for p in range(lattice.n_plaquettes):
        assert abs(state.expectation_string(lattice.plaquette_string(p))) < 1e-14
    b_sum = OperatorSum(
        [(-1.0, lattice.star_string(s)) for s in range(lattice.n_stars)], 8
    )
    assert state.expectation(b_sum) == pytest.approx(-4.0)


def test_expectation_bounded_by_coefficient_norm():
    rng = np.random.default_rng(9)
    n = 3
    op = OperatorSum([(rng.normal(), random_string(rng, n, hermitian=True))
                      for _ in range(5)], n)
    op = (0.5 * (op + op.adjoint())).normalized()
    bound = sum(abs(c) for c, _ in op.normalized())
    for _ in range(20):
        state = StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize()
        assert abs(state.expectation(op)) <= bound + 1e-12


def _hermitian_sum_terms(rng, n):
    """(coeff, label) pairs of a Hermitian sum on n qubits: random words, a
    variant of the first with the same X mask (I <-> Z and X <-> Y on each
    site), one with a Y on qubit 0 and two diagonal words, all with real
    coefficients, and the first word again, which merges into one term."""
    words = [random_label(rng, n) for _ in range(4)]
    words.append(words[0].translate(str.maketrans("IZXY", "ZIYX")))
    words.append("Y" + random_label(rng, n - 1))
    words += ["".join(rng.choice(list("IZ")) for _ in range(n)) for _ in range(2)]
    words.append(words[0])
    return [(float(rng.normal()), word) for word in words]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_sum_reader_matches_the_kron_oracle(n):
    # <psi|H psi>, tr(H rho) and the dense H all read the one per-X-mask
    # plan; each is checked against the kron-built matrix, not against the
    # others, and a sum whose coefficients all drop reads exactly 0
    rng = np.random.default_rng(40 + n)
    states = [StateVector((1, 1j) @ rng.normal(size=(2, 1 << n))).normalize() for _ in range(2)]
    rho = DensityMatrix(0.6 * np.outer(states[0].amps, states[0].amps.conj())
                        + 0.4 * np.outer(states[1].amps, states[1].amps.conj()))
    for _ in range(3):
        terms = _hermitian_sum_terms(rng, n)
        h = OperatorSum([(c, PauliString.from_label(word)) for c, word in terms])
        want = sum_matrix(terms, n)
        assert np.max(np.abs(to_matrix(h) - want)) <= 1e-12
        psi = states[0].amps
        assert abs(states[0].expectation(h) - np.vdot(psi, want @ psi).real) <= 1e-12
        assert abs(rho.expectation(h) - np.trace(want @ rho.matrix).real) <= 1e-12
    dropped = OperatorSum([(0.5 * COEFF_EPS, PauliString.from_label("X" * n)),
                           (-0.5 * COEFF_EPS, PauliString.from_label("Z" * n))])
    assert states[0].expectation(dropped) == 0.0 and rho.expectation(dropped) == 0.0
    assert not to_matrix(dropped).any()


def test_expectation_rejects_non_hermitian():
    state = StateVector.zero_state(2)
    op = OperatorSum([(1j, PauliString.from_label("XI"))])
    with pytest.raises(ValueError):
        state.expectation(op)


# -- measurement ---------------------------------------------------------

def test_measure_deterministic_eigenstate():
    rng = np.random.default_rng(10)
    state = StateVector.zero_state(1)
    outcome, collapsed, prob = measure_projector(
        state, PauliString.from_label("Z"), rng
    )
    assert outcome == 1 and prob == pytest.approx(1.0)
    assert abs(collapsed.amps[0]) == pytest.approx(1.0)


def test_measure_plaquette_on_basis_state_half_half():
    rng = np.random.default_rng(11)
    a_p = PauliString.from_label("XXXX")
    outcomes = []
    for _ in range(400):
        state = StateVector.zero_state(4)
        outcome, collapsed, prob = measure_projector(state, a_p, rng)
        assert prob == pytest.approx(0.5)
        # repeated measurement reproduces the outcome with certainty
        again, _, p2 = measure_projector(collapsed, a_p, rng)
        assert again == outcome and p2 == pytest.approx(1.0)
        outcomes.append(outcome)
    mean = np.mean(outcomes)
    assert abs(mean) < 3.0 / np.sqrt(len(outcomes))


def test_measure_born_statistics_binomial():
    # 10^5 samples of Z on cos|0> + sin|1>, checked at three sigma
    rng = np.random.default_rng(12)
    angle = 0.73
    p_plus = np.cos(angle) ** 2
    amps = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    hits = 0
    n_samples = 100_000
    for _ in range(n_samples):
        state = StateVector(amps, copy=True)
        outcome, _, _ = measure_projector(state, PauliString.from_label("Z"), rng)
        hits += outcome == 1
    sigma = np.sqrt(n_samples * p_plus * (1 - p_plus))
    assert abs(hits - n_samples * p_plus) < 3.0 * sigma


def test_measure_keeps_the_norm_on_an_unlikely_outcome():
    # a norm^2 of 1 + 2e-12 measured into an outcome of probability 1e-6:
    # divided by sqrt(p), the collapsed norm^2 reads 1 + 1e-6
    scale = np.sqrt(1.0 + 2e-12)
    amps = scale * np.array([np.sqrt(1.0 - 1e-6), np.sqrt(1e-6), 0.0, 0.0], dtype=complex)
    state = StateVector(amps)
    outcome, collapsed, prob = measure_projector(state, PauliString.from_label("ZI"),
                                                 ScriptedRng(None, 1.0 - 1e-7))
    assert outcome == -1 and prob == pytest.approx(1e-6, rel=1e-5)
    assert abs(np.vdot(collapsed.amps, collapsed.amps).real - 1.0) <= 1e-12
    assert np.allclose(collapsed.amps, [0.0, 1.0, 0.0, 0.0], atol=1e-15)


# -- exact propagator ----------------------------------------------------

def test_propagator_zero_hamiltonian():
    h = OperatorSum([], 3)
    assert np.allclose(propagator(h, 2.7), np.eye(8))


def test_propagator_single_string_closed_form():
    rng = np.random.default_rng(13)
    a_p = PauliString.from_label("XXXX")
    h = OperatorSum.from_string(a_p, 1.0)
    t = 0.83
    u = propagator(h, t)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
    via_gate = state.copy().apply_exp_pauli(a_p, -t)
    assert np.allclose(u @ state.amps, via_gate.amps, atol=1e-12)


def test_propagator_unitary_and_inverse():
    rng = np.random.default_rng(14)
    terms = [(rng.normal(), random_string(rng, 3, hermitian=True)) for _ in range(5)]
    h = OperatorSum(terms, 3)
    h = (0.5 * (h + h.adjoint())).normalized()
    u = propagator(h, 1.3)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    assert np.allclose(u @ propagator(h, -1.3), np.eye(8), atol=1e-9)


# -- density matrices ----------------------------------------------------

def test_density_matrix_validation():
    good = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert good.trace() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.9, 0.3]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


def _defect(kind, size):
    """A 4 x 4 matrix that is a state but for one defect of ``size``: an
    anti-Hermitian part (max |rho - rho+| = size), a trace of 1 + size, or
    an eigenvalue of -size."""
    if kind == "eigenvalue":
        return np.diag([0.5 + size, 0.5, 0.0, -size]).astype(complex)
    rho = np.eye(4, dtype=complex) / 4.0
    if kind == "hermitian":
        rho[0, 1], rho[1, 0] = size / 2, -size / 2
    else:
        rho[0, 0] += size
    return rho


@pytest.mark.parametrize("kind, tol", [("hermitian", 1e-10), ("trace", 1e-8),
                                       ("eigenvalue", 1e-8)])
def test_stacked_validation_raises_what_one_state_raises(kind, tol):
    # 2x the tolerance fails, in a stack as alone, with the same message;
    # 0.9x passes
    rng = np.random.default_rng(5)
    good = [rho / np.trace(rho).real for rho in (a @ a.conj().T for a in (
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(4)))]
    bad = _defect(kind, 2 * tol)
    with pytest.raises(ValueError) as alone:
        DensityMatrix(bad)
    with pytest.raises(ValueError) as stacked:
        DensityMatrix.validated(np.stack(good[:2] + [bad] + good[2:]))
    assert str(stacked.value) == str(alone.value)
    inside = _defect(kind, 0.9 * tol)
    states = DensityMatrix.validated(np.stack(good[:2] + [inside] + good[2:]))
    assert np.array_equal(states[2].matrix, inside) and len(states) == 5


def test_density_energies_of_a_stack_are_each_states_expectation():
    rng = np.random.default_rng(6)
    h = OperatorSum([(rng.normal(), random_string(rng, 3, hermitian=True)) for _ in range(6)], 3)
    states = [DensityMatrix(rho / np.trace(rho).real) for rho in (a @ a.conj().T for a in (
        rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)) for _ in range(5)))]
    assert density_energies(states, h).tolist() == [rho.expectation(h) for rho in states]


def test_an_empty_array_is_no_state():
    # zero amplitudes, or a 0 x 0 matrix, are no register of -1 qubits
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.zeros(0))
    with pytest.raises(ValueError, match="2\\^n rows"):
        DensityMatrix(np.zeros((0, 0)), validate=False)


def test_density_matrix_from_state_expectation():
    rng = np.random.default_rng(15)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 8))).normalize()
    rho = DensityMatrix(np.outer(state.amps, state.amps.conj()))
    op = OperatorSum([(0.7, PauliString.from_label("XZI"))])
    op = (0.5 * (op + op.adjoint())).normalized()
    assert rho.expectation(op) == pytest.approx(state.expectation(op), abs=1e-12)


def test_dimension_mismatch():
    state = StateVector.zero_state(2)
    with pytest.raises(DimensionMismatchError):
        state.apply_string(PauliString.identity(3))


@pytest.mark.parametrize("phase", [1, 1j, -1, -1j])
def test_apply_string_every_phase_matches_kron_oracle(phase):
    rng = np.random.default_rng(13)
    for label in ("XYZI", "YIZX", "ZZYY", "IYXZ"):
        p = PauliString.from_label(label, phase)
        state = StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize()
        want = phase * label_matrix(label) @ state.amps
        got = state.apply_string(p).amps
        assert np.allclose(got, want, atol=1e-13)


def test_density_matrix_expectation_matches_dense_oracle():
    # tr(H rho) from the Pauli-action gather against the kron-built H; the
    # repeated label merges into one term
    rng = np.random.default_rng(19)
    states = [StateVector((1, 1j) @ rng.normal(size=(2, 16))).normalize() for _ in range(3)]
    rho = DensityMatrix(sum(w * np.outer(s.amps, s.amps.conj())
                            for w, s in zip((0.5, 0.3, 0.2), states)))
    labels = [random_label(rng, 4) for _ in range(6)] + ["XYZI", "XYZI"]
    terms = [(float(rng.normal()), label) for label in labels]
    h = OperatorSum([(c, PauliString.from_label(label)) for c, label in terms])
    want = np.trace(sum_matrix(terms, 4) @ rho.matrix).real
    assert rho.expectation(h) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("label", ["YXZ", "IIIIZ"])
def test_every_expectation_rejects_an_operator_of_another_size(label):
    # a smaller operator is not padded with identities, on either backend
    op = OperatorSum([(0.8, PauliString.from_label(label))])
    with pytest.raises(DimensionMismatchError):
        StateVector.zero_state(4).expectation(op)
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(16) / 16.0).expectation(op)
