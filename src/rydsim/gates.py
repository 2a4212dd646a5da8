"""Circuit-level mesoscopic Rydberg gate and the composite sequences built
from it: the many-target controlled flip, the plaquette/star phase steps,
the two-qubit Heisenberg step, the syndrome map and the controlled pump
flips used by the cooling protocol, plus the coherent gate-error model,
whose generator is given on the gate's targets (its qubit j on target j).

Rotation conventions: ``rot(state, q, letter, phi)`` applies exp(i phi P_q)
for the Pauli letter P; ``controlled_flip`` applies exp(i theta P/2) on the
|1> branch of the control, so a full cooling cycle flips a violated
stabilizer with probability sin^2(theta/2).  All gate functions mutate the
state in place and return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def cnot_n(state: StateVector, control: int, targets) -> StateVector:
    """Controlled-NOT^N: X on every target when the control is |1>."""
    targets = tuple(targets)
    GateSpec(control, targets)  # geometry validation
    n = state.n_qubits
    for q in (control, *targets):
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range")
    x_targets = PauliString(n, sum(1 << q for q in targets), 0)
    state.amps = x_targets.act(state.amps, control)
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

    A Z quarter turn takes X to Y and a Y quarter turn takes X to Z, so
    the frame carries an X-based sequence over to the other axis.
    """
    for q in qubits:
        rot(state, q, letter, math.pi / 4.0)
    step(state, *args)
    for q in qubits:
        rot(state, q, letter, -math.pi / 4.0)
    return state


def hadamard(state: StateVector, qubit: int) -> StateVector:
    """(X_q + Z_q)/sqrt2."""
    x = PauliString.single(state.n_qubits, qubit, "X")
    z = PauliString.single(state.n_qubits, qubit, "Z")
    state.amps = (x.act(state.amps) + z.act(state.amps)) * math.sqrt(0.5)
    return state


def plaquette_step(state: StateVector, plaquette, phi: float) -> StateVector:
    """exp(i phi XXXX) on four spins, as gate-conjugated control rotation.

    The first listed spin takes the role of the control; the sequence
    G . exp(i phi X_c) . G realizes the four-body phase exactly.
    """
    plaquette = tuple(plaquette)
    if len(plaquette) != 4 or len(set(plaquette)) != 4:
        raise ValueError("plaquette must list four distinct qubits")
    control, targets = plaquette[0], plaquette[1:]
    cnot_n(state, control, targets)
    rot(state, control, "X", phi)
    cnot_n(state, control, targets)
    return state


def star_step(state: StateVector, star, phi: float) -> StateVector:
    """exp(i phi ZZZZ), via Hadamard conjugation of the plaquette step."""
    star = tuple(star)
    if len(star) != 4 or len(set(star)) != 4:
        raise ValueError("star must list four distinct qubits")
    for q in star:
        hadamard(state, q)
    plaquette_step(state, star, phi)
    for q in star:
        hadamard(state, q)
    return state


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

    Realized as U^H_k G U^x_c(phi) G U^H_k with the first hop site as the
    control of the three-atom gate; the "y" variant conjugates the hop
    sites with Z quarter turns around the "x" sequence.
    """
    if len({i, j, string_site}) != 3:
        raise ValueError("hopping step needs three distinct qubits")
    if basis not in ("x", "y"):
        raise ValueError("basis must be 'x' or 'y'")
    if basis == "y":
        return _quarter_frame(state, "Z", (i, j), hopping_step, i, j, string_site, phi)
    hadamard(state, string_site)
    cnot_n(state, i, (j, string_site))
    rot(state, i, "X", phi)
    cnot_n(state, i, (j, string_site))
    hadamard(state, string_site)
    return state


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
