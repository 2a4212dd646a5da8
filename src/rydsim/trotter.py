"""Suzuki-Trotter compilation of operator sums into gate-level circuits.

Each Hamiltonian term exp(-i tau c P) is mapped to the gate primitive that
realizes it: four-body X/Z terms become plaquette/star steps (gate-framed
control rotations), two-body XX/YY/ZZ terms become Heisenberg steps,
three-body hopping terms become the Hadamard-framed gate sequence, and
anything else falls back to a generic Pauli exponential.  Gates inside a
step are emitted in a fixed deterministic order and run sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gates as _g
from .errors import UnmappedTermError
from .pauli import OperatorSum, PauliString
from .statevec import StateVector

_KIND_RANK = {
    "plaquette": 0,
    "star": 1,
    "xx": 2,
    "yy": 3,
    "zz": 4,
    "hop_xxz": 5,
    "hop_yyz": 6,
    "exp_pauli": 7,
}


@dataclass(frozen=True)
class Gate:
    """One gate application; ``param`` is the primitive's own angle."""

    kind: str
    qubits: tuple[int, ...]
    param: float
    string: PauliString | None = None


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]


def _term_to_gate(coeff: complex, string: PauliString, tau: float) -> Gate:
    """Gate realizing exp(-i tau coeff P) for one normalized term."""
    if abs(coeff.imag) > 1e-12 * (1.0 + abs(coeff)):
        raise UnmappedTermError(
            f"term {string.to_label()} has non-real coefficient {coeff}"
        )
    c = coeff.real
    support = string.support()
    letters = "".join(string.letter(q) for q in support)
    if letters == "XXXX":
        return Gate("plaquette", support, -tau * c)
    if letters == "ZZZZ":
        return Gate("star", support, -tau * c)
    if letters in ("XX", "YY", "ZZ"):
        return Gate(letters.lower(), support, -2.0 * tau * c)
    if len(letters) == 3 and sorted(letters) in (["X", "X", "Z"], ["Y", "Y", "Z"]):
        z_site = support[letters.index("Z")]
        hop = tuple(q for q in support if q != z_site)
        kind = "hop_xxz" if "X" in letters else "hop_yyz"
        return Gate(kind, (*hop, z_site), -tau * c)
    return Gate("exp_pauli", support, -tau * c, string=string)


def trotterize(h: OperatorSum, tau: float, order: int = 1) -> Circuit:
    """Compile one step of exp(-i H tau).

    Order 1 emits the product of per-term exponentials; order 2 emits the
    symmetrized palindrome of half-steps.  Exact whenever all terms
    commute.  Deterministic: identical inputs give identical circuits.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    terms = [
        (c, s) for c, s in h.normalized() if not s.is_identity()
    ]  # a global phase is not observable; identity terms are dropped
    if order == 1:
        step = [_term_to_gate(c, s, tau) for c, s in terms]
        step.sort(key=lambda g: (_KIND_RANK[g.kind], g.qubits))
    else:
        half = [_term_to_gate(c, s, tau / 2.0) for c, s in terms]
        half.sort(key=lambda g: (_KIND_RANK[g.kind], g.qubits))
        step = half + half[::-1]
    return Circuit(h.n_qubits, tuple(step))


_DISPATCH = {
    "plaquette": lambda st, g: _g.plaquette_step(st, g.qubits, g.param),
    "star": lambda st, g: _g.star_step(st, g.qubits, g.param),
    "xx": lambda st, g: _g.heisenberg_xx_step(st, *g.qubits, g.param),
    "yy": lambda st, g: _g.heisenberg_yy_step(st, *g.qubits, g.param),
    "zz": lambda st, g: _g.heisenberg_zz_step(st, *g.qubits, g.param),
    "hop_xxz": lambda st, g: _g.hopping_step(st, *g.qubits, g.param, basis="x"),
    "hop_yyz": lambda st, g: _g.hopping_step(st, *g.qubits, g.param, basis="y"),
    "exp_pauli": lambda st, g: st.apply_exp_pauli(g.string, g.param),
}


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit to a copy of the initial state."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("circuit and state sizes differ")
    state = initial.copy()
    for gate in circuit.gates:
        _DISPATCH[gate.kind](state, gate)
    return state
