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

#: by the sorted letters of a term: its gate kind, the kind's rank in a
#: step, the gate angle per unit of -tau * coefficient, and the gate call.
#: A term of any other letters is a generic Pauli exponential (key None).
_KINDS = {
    "XXXX": ("plaquette", 0, 1.0, lambda st, g: _g.plaquette_step(st, g.qubits, g.param)),
    "ZZZZ": ("star", 1, 1.0, lambda st, g: _g.star_step(st, g.qubits, g.param)),
    "XX": ("xx", 2, 2.0, lambda st, g: _g.heisenberg_xx_step(st, *g.qubits, g.param)),
    "YY": ("yy", 3, 2.0, lambda st, g: _g.heisenberg_yy_step(st, *g.qubits, g.param)),
    "ZZ": ("zz", 4, 2.0, lambda st, g: _g.heisenberg_zz_step(st, *g.qubits, g.param)),
    "XXZ": ("hop_xxz", 5, 1.0, lambda st, g: _g.hopping_step(st, *g.qubits, g.param, "x")),
    "YYZ": ("hop_yyz", 6, 1.0, lambda st, g: _g.hopping_step(st, *g.qubits, g.param, "y")),
    None: ("exp_pauli", 7, 1.0, lambda st, g: st.apply_exp_pauli(g.string, g.param)),
}
_BY_KIND = {row[0]: row for row in _KINDS.values()}


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
    support = string.support()
    letters = "".join(sorted(string.letter(q) for q in support))
    kind, _, scale, _ = _KINDS.get(letters, _KINDS[None])
    if kind == "exp_pauli":
        return Gate(kind, support, -scale * tau * coeff.real, string=string)
    # a hopping term's string site goes last; no other kind mixes letters
    qubits = tuple(sorted(support, key=lambda q: string.letter(q) == "Z"))
    return Gate(kind, qubits, -scale * tau * coeff.real)


def trotterize(h: OperatorSum, tau: float, order: int = 1) -> Circuit:
    """Compile one step of exp(-i H tau).

    Order 1 emits the product of per-term exponentials; order 2 emits the
    symmetrized palindrome of half-steps.  Exact whenever all terms
    commute.  Deterministic: identical inputs give identical circuits.
    """
    if order not in (1, 2):
        raise ValueError("only orders 1 and 2 are supported")
    part = tau if order == 1 else tau / 2.0
    # a global phase is not observable; identity terms are dropped
    step = sorted((_term_to_gate(c, s, part) for c, s in h.normalized() if not s.is_identity()),
                  key=lambda g: (_BY_KIND[g.kind][1], g.qubits))
    return Circuit(h.n_qubits, tuple(step if order == 1 else step + step[::-1]))


def run(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply the circuit to a copy of the initial state."""
    if initial.n_qubits != circuit.n_qubits:
        raise ValueError("circuit and state sizes differ")
    state = initial.copy()
    for gate in circuit.gates:
        _BY_KIND[gate.kind][3](state, gate)
    return state
