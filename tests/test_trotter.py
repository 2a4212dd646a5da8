import numpy as np
import pytest

from rydsim.models import build_heisenberg, build_toric, grid_adjacency
from rydsim.pauli import OperatorSum, PauliString
from rydsim.statevec import StateVector
from rydsim.trotter import Circuit, Gate, run, trotterize

from oracles import circuit_matrix, expm_hermitian, label_matrix, propagator


def heisenberg_chain(n=4):
    return build_heisenberg(grid_adjacency(n, 1), 1.0, 0.8, 0.6, 0.3, n_qubits=n)


def test_empty_circuit_returns_input():
    rng = np.random.default_rng(0)
    state = StateVector((1, 1j) @ rng.normal(size=(2, 8))).normalize()
    out = run(Circuit(3, ()), state)
    assert np.allclose(out.amps, state.amps)
    assert out is not state  # run never mutates the input


def test_single_term_exact_for_any_tau():
    p = PauliString.from_label("XZY")
    h = OperatorSum.from_string(p, 0.4)
    for tau in (0.1, 2.0, 9.0):
        circuit = trotterize(h, tau)
        assert len(circuit.gates) == 1
        got = circuit_matrix(circuit)
        want = expm_hermitian(h.to_matrix(), -1j * tau)
        assert np.linalg.norm(got - want) < 1e-12


def test_toric_evolution_is_exact():
    h, _ = build_toric(2, 2)
    rng = np.random.default_rng(1)
    for tau in (0.1, 1.0, 10.0):
        circuit = trotterize(h, tau)
        u_exact = propagator(h, tau)
        for _ in range(3):
            state = StateVector((1, 1j) @ rng.normal(size=(2, 256))).normalize()
            digital = run(circuit, state)
            assert np.linalg.norm(digital.amps - u_exact @ state.amps) < 1e-10


def words(circuit):
    """Each gate's sorted letters, in circuit order."""
    return ["".join(sorted(g.string.letter(q) for q in g.string.support()))
            for g in circuit.gates]


def test_toric_circuit_uses_gate_primitives():
    # four plaquette steps, then four star steps, each at phi = -tau * coeff
    h, _ = build_toric(2, 2)
    circuit = trotterize(h, 0.3)
    assert words(circuit) == ["XXXX"] * 4 + ["ZZZZ"] * 4
    coeffs = {s: c.real for c, s in h.normalized()}
    assert all(g.phi == -0.3 * coeffs[g.string] for g in circuit.gates)


def act_calls(monkeypatch, circuit, state):
    """``PauliString.act`` calls made by one run of the circuit."""
    calls = []
    act = PauliString.act
    monkeypatch.setattr(PauliString, "act",
                        lambda self, *args, **kw: calls.append(self) or act(self, *args, **kw))
    run(circuit, state)
    monkeypatch.undo()
    return len(calls)


def test_kernel_budget_of_one_step(monkeypatch):
    # XX bond 3 (gate, X rotation, gate), YY and ZZ 3 + 4 frame turns, field 1
    h = build_heisenberg(grid_adjacency(3, 2), 1.0, 0.8, 0.6, 0.3, n_qubits=6)
    assert act_calls(monkeypatch, trotterize(h, 0.1), StateVector.zero_state(6)) == 125
    # plaquette 3, star 3 + 8 frame turns
    toric, _ = build_toric(2, 2)
    assert act_calls(monkeypatch, trotterize(toric, 0.3), StateVector.zero_state(8)) == 56


def test_compiled_term_order():
    # blocks XX, YY, ZZ, then the field; bonds ascending inside each
    edges = sorted(grid_adjacency(3, 2))
    h = build_heisenberg(grid_adjacency(3, 2), 1.0, 0.8, 0.6, 0.3, n_qubits=6)
    circuit = trotterize(h, 0.1)
    assert words(circuit) == ["XX"] * 7 + ["YY"] * 7 + ["ZZ"] * 7 + ["Z"] * 6
    qubits = [g.string.support() for g in circuit.gates]
    assert qubits == [*edges * 3, *((q,) for q in range(6))]
    assert trotterize(h, 0.2, order=2).gates == circuit.gates + circuit.gates[::-1]


def test_commuting_groups_tau_exact_second_order():
    h, _ = build_toric(2, 2)
    step = circuit_matrix(trotterize(h, 0.7, order=2))
    got = step @ step
    want = propagator(h, 1.4)
    assert np.linalg.norm(got - want, 2) < 1e-10


@pytest.mark.parametrize("order,target,tol", [(1, 2.0, 0.2), (2, 3.0, 0.3)])
def test_per_step_error_exponent(order, target, tol):
    h = heisenberg_chain(4)
    taus = [0.2, 0.1, 0.05, 0.025]
    errors = []
    for tau in taus:
        got = circuit_matrix(trotterize(h, tau, order=order))
        errors.append(np.linalg.norm(got - propagator(h, tau), 2))
    slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
    assert abs(slope - target) < tol


def test_global_error_first_order_in_tau():
    h = heisenberg_chain(3)
    total_time = 1.0
    errs = []
    taus = [0.1, 0.05, 0.025]
    for tau in taus:
        n_steps = int(round(total_time / tau))
        got = np.linalg.matrix_power(circuit_matrix(trotterize(h, tau, order=1)), n_steps)
        errs.append(np.linalg.norm(got - propagator(h, total_time), 2))
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_order2_beats_order1():
    h = heisenberg_chain(4)
    tau = 0.1
    e1 = np.linalg.norm(
        circuit_matrix(trotterize(h, tau, 1)) - propagator(h, tau), 2
    )
    e2 = np.linalg.norm(
        circuit_matrix(trotterize(h, tau, 2)) - propagator(h, tau), 2
    )
    assert e2 < e1 / 5


def test_total_z_approximately_conserved_when_jx_equals_jy():
    h = build_heisenberg(grid_adjacency(4, 1), 0.9, 0.9, 0.5, 0.3, n_qubits=4)
    n = 4
    total_z = OperatorSum([(1.0, PauliString.single(n, q, "Z")) for q in range(n)], n)
    # symbolic symmetry of the Hamiltonian itself
    assert len(((h @ total_z) - (total_z @ h)).normalized()) == 0
    circuit = trotterize(h, 0.02)
    state = StateVector.basis_state(n, "1010")
    start = state.expectation(total_z)
    for _ in range(50):
        state = run(circuit, state)
    assert abs(state.expectation(total_z) - start) < 5e-3


def test_determinism_byte_for_byte():
    import pickle

    h = heisenberg_chain(4)
    a = trotterize(h, 0.1, order=2)
    b = trotterize(h, 0.1, order=2)
    assert a == b
    assert pickle.dumps(a) == pickle.dumps(b)


def test_non_hermitian_term_rejected():
    h = OperatorSum([(1j, PauliString.from_label("XX"))])
    with pytest.raises(ValueError, match="trotterize requires a Hermitian operator sum"):
        trotterize(h, 0.1)


@pytest.mark.parametrize("imag,hermitian", [(1e-9, False), (1e-11, True)])
def test_trotterize_refuses_what_is_hermitian_refuses(imag, hermitian):
    # one realness rule: a sum with one non-real coefficient is refused
    # exactly when OperatorSum.is_hermitian() rejects it
    h = heisenberg_chain(4) + OperatorSum([(0.5 + 1j * imag, PauliString.from_label("ZIIZ"))])
    assert h.is_hermitian() == hermitian
    if hermitian:
        assert len(trotterize(h, 0.1).gates) == len(h)
    else:
        with pytest.raises(ValueError, match="trotterize requires a Hermitian operator sum"):
            trotterize(h, 0.1)


# -- hopping compilation ----------------------------------------------------

def hopping_circuit(phi):
    """exp(i phi X0 X1 Z2) exp(i phi Y0 Y1 Z2), the gates trotterize emits."""
    return Circuit(3, (Gate(PauliString.from_label("XXZ"), phi),
                       Gate(PauliString.from_label("YYZ"), phi)))


def test_compile_hopping_zero_phase_identity():
    circuit = hopping_circuit(0.0)
    assert np.allclose(circuit_matrix(circuit), np.eye(8))


def test_compile_hopping_matrix():
    phi = 0.37
    circuit = hopping_circuit(phi)
    want = expm_hermitian(label_matrix("XXZ"), 1j * phi) @ expm_hermitian(
        label_matrix("YYZ"), 1j * phi
    )
    assert np.linalg.norm(circuit_matrix(circuit) - want, 2) < 1e-10


def test_hopping_factors_commute():
    xxz = PauliString.from_label("XXZ")
    yyz = PauliString.from_label("YYZ")
    assert xxz.commutes(yyz)
    # so the two emitted gates may be reordered freely
    phi = 0.8
    fwd = hopping_circuit(phi)
    rev = Circuit(3, fwd.gates[::-1])
    assert np.allclose(circuit_matrix(fwd), circuit_matrix(rev), atol=1e-12)


def test_hubbard_local_terms_all_compile():
    from rydsim.models import HubbardSpec, build_hubbard_local

    h = build_hubbard_local(HubbardSpec(2, 2, t_hop=1.0, v_aux=0.8))
    circuit = trotterize(h, 0.05)
    assert {"XXZ", "YYZ"} <= set(words(circuit))
    got = circuit_matrix(circuit)
    assert np.allclose(got @ got.conj().T, np.eye(1 << h.n_qubits), atol=1e-10)
