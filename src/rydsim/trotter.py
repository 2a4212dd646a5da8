"""Suzuki-Trotter compilation of operator sums into gate-level circuits.

Each Hamiltonian term exp(-i tau c P) is one gate exp(i phi P) with
phi = -tau c, which :func:`rydsim.gates.pauli_step` realizes as the
mesoscopic core in per-site quarter-turn frames (a one-site term is one
rotation).  Gates inside a step are emitted in a fixed deterministic order
and run sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gates import pauli_step
from .pauli import OperatorSum, PauliString
from .statevec import StateVector

#: a step's term order by sorted letters: plaquettes, stars, the XX, YY and
#: ZZ bonds, the two hopping words, then every other word
_ORDER = ("XXXX", "ZZZZ", "XX", "YY", "ZZ", "XXZ", "YYZ")


@dataclass(frozen=True)
class Gate:
    """exp(i phi P) for one Hermitian Pauli string P."""

    string: PauliString
    phi: float


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]


def _order(gate: Gate) -> tuple:
    """Rank of the gate's sorted letters in :data:`_ORDER`, then its qubits:
    ascending, but a ranked word's Z sites (a hopping string site) last."""
    s = gate.string
    letters = "".join(sorted(s.letter(q) for q in s.support()))
    rank = _ORDER.index(letters) if letters in _ORDER else len(_ORDER)
    return rank, tuple(sorted(s.support(),
                              key=lambda q: rank < len(_ORDER) and s.letter(q) == "Z"))


def trotterize(h: OperatorSum, tau: float, order: int = 1) -> Circuit:
    """Compile one step of exp(-i H tau).

    Order 1 emits the product of per-term exponentials; order 2 emits the
    symmetrized palindrome of half-steps.  Exact whenever all terms
    commute.  Deterministic: identical inputs give identical circuits.
    ``ValueError`` unless ``h`` is Hermitian (:meth:`OperatorSum.is_hermitian`).
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    if not h.is_hermitian():
        raise ValueError("trotterize requires a Hermitian operator sum")
    part = tau if order == 1 else tau / 2.0
    # a global phase is not observable; identity terms are dropped
    step = sorted((Gate(s, -part * c.real) for c, s in h if not s.is_identity()), key=_order)
    return Circuit(h.n_qubits, tuple(step if order == 1 else step + step[::-1]))


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit to a copy of the initial state."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("circuit and state sizes differ")
    state = initial.copy()
    for gate in circuit.gates:
        pauli_step(state, gate.string, gate.phi)
    return state
