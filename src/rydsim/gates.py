"""Circuit-level mesoscopic Rydberg gate and the composite sequences built
from it: the Pauli-string step that realizes every Trotter term, the
syndrome map and controlled pump flips of the cooling protocol, and the
coherent gate-error model, whose generator is given on the gate's targets
(its qubit j on target j).

:func:`pauli_step` is the one many-body step: the core G . exp(i phi X_c) . G,
which gives exp(i phi X...X), in per-site quarter-turn frames exp(i pi/4 F)
(a Z turn takes X to Y, a Y turn takes X to -Z), with no Hadamard.

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


@lru_cache(maxsize=1024, typed=True)
def _frames(p: PauliString) -> tuple:
    """:func:`pauli_step`'s plan for the string P: its support, the
    quarter-turn frame ``(qubit, letter)`` of every Y site (a Z turn) and Z
    site (a Y turn), and the sign (-1)^(#Z + phase/2) by which those frames
    carry X...X to P.  Built once per string; a call that raises caches
    nothing."""
    if not p.is_hermitian():
        raise ValueError("pauli_step requires a Hermitian string (phase +-1)")
    support = p.support()
    frames = tuple((q, "Z" if p.letter(q) == "Y" else "Y")
                   for q in support if p.letter(q) != "X")
    flips = (p.z_mask & ~p.x_mask).bit_count() + p.phase_exp // 2
    return support, frames, -1.0 if flips % 2 else 1.0


def pauli_step(state: StateVector, p: PauliString, phi: float) -> StateVector:
    """exp(i phi P) for a Hermitian Pauli string P: on two or more sites the
    core, with the first support site as the gate's control, inside the
    frames and at the sign of :func:`_frames`; on one site one rotation."""
    support, frames, sign = _frames(p)
    if len(support) < 2:
        return state.apply_exp_pauli(p, phi)
    for q, letter in frames:
        rot(state, q, letter, math.pi / 4.0)
    control, targets = support[0], support[1:]
    cnot_n(state, control, targets)
    rot(state, control, "X", sign * phi)
    cnot_n(state, control, targets)
    for q, letter in frames:
        rot(state, q, letter, -math.pi / 4.0)
    return state


def plaquette_step(state: StateVector, plaquette, phi: float) -> StateVector:
    """exp(i phi XXXX) on four distinct spins."""
    sites = dict.fromkeys(plaquette, "X")
    if len(sites) != 4 or len(plaquette) != 4:
        raise ValueError("plaquette must list four distinct qubits")
    return pauli_step(state, PauliString.from_sites(state.n_qubits, sites), phi)


def star_step(state: StateVector, star, phi: float) -> StateVector:
    """exp(i phi ZZZZ) on four distinct spins."""
    sites = dict.fromkeys(star, "Z")
    if len(sites) != 4 or len(star) != 4:
        raise ValueError("star must list four distinct qubits")
    return pauli_step(state, PauliString.from_sites(state.n_qubits, sites), phi)


def heisenberg_xx_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta X_i X_j / 2)."""
    if i == j:
        raise ValueError("Heisenberg step needs two distinct qubits")
    xx = PauliString.from_sites(state.n_qubits, {i: "X", j: "X"})
    return pauli_step(state, xx, theta / 2.0)


def heisenberg_yy_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta Y_i Y_j / 2)."""
    if i == j:
        raise ValueError("Heisenberg step needs two distinct qubits")
    yy = PauliString.from_sites(state.n_qubits, {i: "Y", j: "Y"})
    return pauli_step(state, yy, theta / 2.0)


def heisenberg_zz_step(state: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(i theta Z_i Z_j / 2)."""
    if i == j:
        raise ValueError("Heisenberg step needs two distinct qubits")
    zz = PauliString.from_sites(state.n_qubits, {i: "Z", j: "Z"})
    return pauli_step(state, zz, theta / 2.0)


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
    """exp(i theta sigma^axis_target / 2) on the |1> branch of the control:
    exp(i theta sigma/4) . exp(-i theta Z_c sigma/4), as |1><1|_c = (1 - Z_c)/2."""
    if control == target:
        raise ValueError("control and target must differ")
    if axis not in ("z", "x"):
        raise ValueError("axis must be 'z' or 'x'")
    sigma = axis.upper()
    pauli_step(state, PauliString.single(state.n_qubits, target, sigma), theta / 4.0)
    return pauli_step(state, PauliString.from_sites(state.n_qubits, {control: "Z", target: sigma}),
                      -theta / 4.0)


def flip_probability(theta: float) -> float:
    """Probability that one cooling cycle flips a violated stabilizer.

    sin^2(theta/2): unity at theta = pi, theta^2/4 for small angles.
    """
    return math.sin(theta / 2.0) ** 2
