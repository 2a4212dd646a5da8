"""Circuit-level mesoscopic Rydberg gate and the composite sequences built
from it: the many-target controlled flip, the plaquette/star phase steps,
the two-qubit Heisenberg step, the syndrome map and the controlled pump
flips used by the cooling protocol, plus the coherent gate-error model,
whose generator is given on the gate's targets (its qubit j on target j).

Every many-body phase step is one core, G . exp(i phi X_c) . G, which gives
exp(i phi X...X); other axes come from quarter-turn frames exp(i pi/4 P)
around it (Z takes X to Y, Y takes X to -Z), with no Hadamard.

Rotation conventions: ``rot(state, q, letter, phi)`` applies exp(i phi P_q)
for the Pauli letter P; ``controlled_flip`` applies exp(i theta P/2) on the
|1> branch of the control, so a full cooling cycle flips a violated
stabilizer with probability sin^2(theta/2).  All gate functions mutate the
state in place and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import OperatorSum, PauliString
from .statevec import StateVector


@dataclass(frozen=True)
class GateSpec:
    """Geometry and error model of one mesoscopic gate application.

    A spec with a ``fault_generator`` is faulty.  The generator is Hermitian
    and acts on the targets only: it is given on ``len(targets)`` qubits,
    its qubit j being ``targets[j]``.
    """

    control: int
    targets: tuple[int, ...]
    fault_generator: OperatorSum | None = None
    fault_phase: float = 0.0

    def __post_init__(self):
        targets = tuple(self.targets)
        object.__setattr__(self, "targets", targets)
        if not targets:
            raise ValueError("gate needs at least one target")
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target qubit")
        if self.control in targets:
            raise ValueError("control qubit cannot also be a target")
        q = self.fault_generator
        if q is not None and q.n_qubits != len(targets):
            raise ValueError(f"fault generator acts on {q.n_qubits} qubits, "
                             f"the gate has {len(targets)} targets")
        if q is not None and not q.is_hermitian():
            raise ValueError("fault generator must be Hermitian")


@lru_cache(maxsize=1024, typed=True)
def _x_targets(n_qubits: int, control: int, targets: tuple) -> PauliString:
    """:func:`cnot_n`'s X string on the targets, its geometry checked; built
    once per argument tuple, and a call that raises caches nothing."""
    GateSpec(control, targets)  # geometry validation
    for q in (control, *targets):
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range")
    return PauliString(n_qubits, sum(1 << q for q in targets), 0)


def cnot_n(state: StateVector, control: int, targets) -> StateVector:
    """Controlled-NOT^N: X on every target when the control is |1>."""
    state.amps = _x_targets(state.n_qubits, control, tuple(targets)).act(state.amps, control)
    return state


def faulty_gate(state: StateVector, spec: GateSpec) -> StateVector:
    """Mesoscopic gate with a coherent error on the |0> branch.

    Applies ``|0><0|_c (x) exp(i phi Q) + |1><1|_c (x) X^N``: the dense
    exp(i phi Q) on the targets for the control-0 half, :func:`cnot_n` for
    the rest.  Reduces to the ideal gate when the generator vanishes or the
    phase is zero.
    """
    if spec.fault_generator is None:
        raise ValueError("faulty_gate requires a spec with a fault generator")
    w, v = np.linalg.eigh(spec.fault_generator.to_matrix())
    u0 = (v * np.exp(1j * spec.fault_phase * w)) @ v.conj().T
    zero = state.copy().apply_operator(u0, spec.targets)
    cnot_n(state, spec.control, spec.targets)
    half = (-1, 2, 1 << spec.control)  # [:, 0] is the control-0 half
    state.amps.reshape(half)[:, 0] = zero.amps.reshape(half)[:, 0]
    return state


def rot(state: StateVector, qubit: int, letter: str, phi: float) -> StateVector:
    """exp(i phi P_q) for the Pauli letter P; the single-qubit rotation
    sandwiched between gates."""
    return state.apply_exp_pauli(PauliString.single(state.n_qubits, qubit, letter), phi)


def _quarter_frame(state: StateVector, letter: str, qubits, step, *args) -> StateVector:
    """``step(state, *args)`` conjugated by exp(i pi/4 P) on each qubit.

    A Z quarter turn takes X to Y and a Y quarter turn takes X to -Z, so
    the frame carries an X-based sequence over to the other axis.
    """
    for q in qubits:
        rot(state, q, letter, math.pi / 4.0)
    step(state, *args)
    for q in qubits:
        rot(state, q, letter, -math.pi / 4.0)
    return state


def _core(state: StateVector, qubits: tuple, phi: float) -> StateVector:
    """exp(i phi X...X) on ``qubits`` as G . exp(i phi X_c) . G, with G the
    gate from the first qubit c to the rest: the core of every many-body step."""
    control, targets = qubits[0], qubits[1:]
    cnot_n(state, control, targets)
    rot(state, control, "X", phi)
    cnot_n(state, control, targets)
    return state


def _four(qubits, what: str) -> tuple:
    qubits = tuple(qubits)
    if len(qubits) != 4 or len(set(qubits)) != 4:
        raise ValueError(f"{what} must list four distinct qubits")
    return qubits


def plaquette_step(state: StateVector, plaquette, phi: float) -> StateVector:
    """exp(i phi XXXX) on four spins, exactly, by the core with the first
    listed spin as the control."""
    return _core(state, _four(plaquette, "plaquette"), phi)


def star_step(state: StateVector, star, phi: float) -> StateVector:
    """exp(i phi ZZZZ): the core in Y quarter-turn frames, which carry XXXX
    to (-Z)^4 = ZZZZ."""
    star = _four(star, "star")
    return _quarter_frame(state, "Y", star, _core, star, phi)


def _controlled_exp(state: StateVector, control: int, p: PauliString,
                    phi: float) -> StateVector:
    """exp(i phi P) on the |1> branch of the control, for a Hermitian P:
    cos(phi) psi + i sin(phi) P psi on that half, psi on the other."""
    image = p.act(state.amps, control)
    half = (-1, 2, 1 << control)  # [:, 1] is the control-1 half
    amps = state.amps.copy()
    one = amps.reshape(half)[:, 1]
    one *= math.cos(phi)
    one += (1j * math.sin(phi)) * image.reshape(half)[:, 1]
    state.amps = amps
    return state


def heisenberg_xx_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta X_i X_j / 2) from rotations and a controlled partial flip.

    Sequence (right to left): Ry_i(pi/2), controlled partial flip of atom j
    on the |1> branch of atom i, X rotation on j, inverse Ry on i.
    """
    if i == j:
        raise ValueError("Heisenberg step needs two distinct qubits")
    rot(state, i, "Y", math.pi / 4.0)
    # |0><0| (x) 1 + |1><1| (x) exp(-i theta X_j): full flip at theta = pi
    _controlled_exp(state, i, PauliString.single(state.n_qubits, j, "X"), -theta)
    rot(state, j, "X", theta / 2.0)
    rot(state, i, "Y", -math.pi / 4.0)
    return state


def heisenberg_yy_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta Y_i Y_j / 2); Z-rotation conjugation of the XX step."""
    return _quarter_frame(state, "Z", (i, j), heisenberg_xx_step, i, j, theta)


def heisenberg_zz_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta Z_i Z_j / 2); Y-rotation conjugation of the XX step."""
    return _quarter_frame(state, "Y", (i, j), heisenberg_xx_step, i, j, theta)


def hopping_step(
    state: StateVector, i: int, j: int, string_site: int, phi: float, basis: str = "x"
) -> StateVector:
    """exp(i phi X_i X_j Z_k) (basis "x") or exp(i phi Y_i Y_j Z_k) ("y").

    Realized as the core on (i, j, k) at -phi with the string site k in a
    Y quarter-turn frame, which takes X_k to -Z_k; the "y" variant
    conjugates the hop sites with Z quarter turns around that sequence.
    """
    if len({i, j, string_site}) != 3:
        raise ValueError("hopping step needs three distinct qubits")
    if basis not in ("x", "y"):
        raise ValueError("basis must be 'x' or 'y'")
    if basis == "y":
        return _quarter_frame(state, "Z", (i, j), hopping_step, i, j, string_site, phi)
    return _quarter_frame(state, "Y", (string_site,), _core, (i, j, string_site), -phi)


def controlled_string(state: StateVector, control: int, p: PauliString) -> StateVector:
    """|0><0|_c (x) 1 + |1><1|_c (x) P for a Hermitian string P.

    A pure-X string is exactly the mesoscopic gate; every string takes the
    same gather through the Pauli-action kernel.
    """
    if not p.is_hermitian():
        raise ValueError("controlled string must be Hermitian")
    state.amps = p.act(state.amps, control)
    return state


def syndrome_map(state: StateVector, control: int, stabilizer: PauliString) -> StateVector:
    """Map a +-1 stabilizer eigenvalue onto the control atom.

    Ry_c(pi/2)^-1 . (controlled stabilizer) . Ry_c(pi/2): eigenvalue +1
    leaves the control in |0>, eigenvalue -1 flips it to |1>.  Involutive.
    """
    rot(state, control, "Y", -math.pi / 4.0)
    controlled_string(state, control, stabilizer)
    rot(state, control, "Y", math.pi / 4.0)
    return state


def controlled_flip(
    state: StateVector, control: int, target: int, theta: float, axis: str = "z"
) -> StateVector:
    """exp(i theta sigma^axis_target / 2) on the |1> branch of the control."""
    if control == target:
        raise ValueError("control and target must differ")
    if axis not in ("z", "x"):
        raise ValueError("axis must be 'z' or 'x'")
    sigma = PauliString.single(state.n_qubits, target, axis.upper())
    return _controlled_exp(state, control, sigma, theta / 2.0)


def flip_probability(theta: float) -> float:
    """Probability that one cooling cycle flips a violated stabilizer.

    sin^2(theta/2): unity at theta = pi, theta^2/4 for small angles.
    """
    return math.sin(theta / 2.0) ** 2
