"""Dense state-vector backend and density-matrix support.

States are complex amplitude arrays over 2^n basis indices with qubit k on
bit k of the index; a dense operator on listed qubits reads ``qubits[j]``
as bit j of its own index.  Operations mutate the state buffer in place
and return the instance; use :meth:`StateVector.copy` to branch.  Every stochastic
operation takes an explicit ``numpy.random.Generator`` so identical seeds
give identical trajectories.  Both backends read an operator sum through its
:func:`~rydsim.pauli.sum_action` plan, in :func:`row_energies` and :func:`density_energies`.

Units: hbar = 1 and the toric coupling E0 = 1, so times are in hbar/E0.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .pauli import OperatorSum, PauliString, sum_action

#: state-vector register cap: an energy plan holds 24 * 2^n bytes per X-mask group
STATE_QUBIT_CAP = 20


class StateVector:
    """Normalized dense amplitude vector over 2^n basis states."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, amplitudes, copy: bool = True):
        amps = (np.array(amplitudes, dtype=complex) if copy
                else np.asarray(amplitudes, dtype=complex))
        if amps.ndim != 1 or not amps.size or amps.size & (amps.size - 1):
            raise ValueError("amplitude array length must be a power of two")
        self.n_qubits = int(amps.size.bit_length() - 1)
        self.amps = amps

    # -- constructors -------------------------------------------------

    @classmethod
    def zero_state(cls, n_qubits: int) -> "StateVector":
        return cls.basis_state(n_qubits, 0)

    @classmethod
    def basis_state(cls, n_qubits: int, bits) -> "StateVector":
        """|bits>.  Accepts an integer index or a string read as qubit 0, 1, ....
        ``CapExceededError`` past :data:`STATE_QUBIT_CAP` qubits, before any allocation."""
        if n_qubits > STATE_QUBIT_CAP:
            raise CapExceededError(f"state vector for {n_qubits} qubits exceeds the "
                                   f"{STATE_QUBIT_CAP}-qubit cap")
        if isinstance(bits, str):
            if len(bits) != n_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"need a string of {n_qubits} characters 0 and 1, got {bits!r}")
            index = sum(1 << k for k, b in enumerate(bits) if b == "1")
        else:
            index = int(bits)
        if not 0 <= index < (1 << n_qubits):
            raise ValueError(f"basis index {index} out of range")
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps, copy=False)

    # -- inspection ---------------------------------------------------

    def copy(self) -> "StateVector":
        return StateVector(self.amps, copy=True)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        self.amps /= n
        return self

    # -- operations ---------------------------------------------------

    def apply_string(self, p: PauliString) -> "StateVector":
        """|psi> -> P|psi> (norm preserving; involutive up to phase^2)."""
        _check(p.n_qubits, self.n_qubits)
        self.amps = p.act(self.amps)
        return self

    def apply_exp_pauli(self, p: PauliString, theta: float) -> "StateVector":
        """|psi> -> exp(i theta P)|psi> = (cos(theta) + i sin(theta) P)|psi>.

        Requires a Hermitian string (phase +-1), for which P^2 = 1.
        """
        _check(p.n_qubits, self.n_qubits)
        if not p.is_hermitian():
            raise ValueError("exp_pauli requires a Hermitian string (phase +-1)")
        image = p.act(self.amps)
        self.amps = np.cos(theta) * self.amps + (1j * np.sin(theta)) * image
        return self

    def apply_operator(self, matrix: np.ndarray, qubits) -> "StateVector":
        """Apply a dense 2^k x 2^k operator to the listed qubits.

        ``qubits[j]`` is bit j of the matrix index, so the matrix of a
        k-qubit operator sum applies as is, qubit j on ``qubits[j]``.
        """
        qubits = list(qubits)
        k = len(qubits)
        if len(set(qubits)) != k:
            raise ValueError("duplicate qubit in operator application")
        for q in qubits:
            if not 0 <= q < self.n_qubits:
                raise IndexError(f"qubit {q} out of range")
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError("operator matrix shape does not match qubit count")
        n = self.n_qubits
        psi = self.amps.reshape((2,) * n)
        axes = [n - 1 - q for q in reversed(qubits)]  # most significant first
        moved = np.moveaxis(psi, axes, range(k))
        shape = moved.shape
        block = moved.reshape(1 << k, -1)
        block = matrix @ block
        moved = block.reshape(shape)
        psi = np.moveaxis(moved, range(k), axes)
        self.amps = np.ascontiguousarray(psi).reshape(1 << n)
        return self

    def expectation_string(self, p: PauliString) -> complex:
        _check(p.n_qubits, self.n_qubits)
        return complex(np.vdot(self.amps, p.act(self.amps)))

    def expectation(self, h: OperatorSum) -> float:
        """<psi|H|psi> for Hermitian H: the row kernel :func:`row_energies` on one row."""
        psi, plan = self.amps[None], _plan(h, self.n_qubits)
        return float(row_energies(psi, plan, np.empty_like(psi), np.empty_like(psi))[0])

    def __repr__(self):
        return f"StateVector(n={self.n_qubits}, norm={self.norm():.6f})"


def _check(n: int, n_qubits: int):
    if n != n_qubits:
        raise ValueError(f"operator on {n} qubits applied to a {n_qubits}-qubit state")


def _plan(h: OperatorSum, n_qubits: int) -> list:
    """:func:`sum_action` of a Hermitian ``h``, read on ``n_qubits`` qubits."""
    _check(h.n_qubits, n_qubits)
    if not h.is_hermitian():
        raise ValueError("expectation requires a Hermitian operator sum")
    return sum_action(h)


def row_energies(psi: np.ndarray, plan, acc: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Re <psi|H psi> of each row of ``psi``, H given by its :func:`sum_action`
    plan: H psi accumulates in ``acc``, and ``buf`` takes each group's term."""
    acc.fill(0.0)
    for idx, factor in plan:
        term = psi if idx is None else psi.take(idx, axis=1, out=buf, mode="clip")
        acc += np.multiply(term, factor, out=buf)
    return np.multiply(psi.view(float), acc.view(float), out=buf.view(float)).sum(axis=1)


def measure_projector(state: StateVector, p: PauliString, rng: np.random.Generator):
    """Projective +-1 measurement of a Hermitian Pauli string.

    Samples the outcome with Born probabilities and collapses the state in
    place, divided by its own norm: divided by the square root of the
    outcome's probability, a state's norm error would grow by the inverse
    of that probability.  Returns ``(outcome, state, probability)`` where
    probability is that of the sampled outcome; a branch of zero weight is
    never selected.
    """
    if not p.is_hermitian():
        raise ValueError("measurement requires a Hermitian string")
    image = p.act(state.amps)
    p_plus = min(1.0, max(0.0, 0.5 * (1.0 + float(np.vdot(state.amps, image).real))))
    outcome = 1 if rng.random() < p_plus else -1
    collapsed = state.amps + outcome * image
    state.amps = collapsed / np.linalg.norm(collapsed)
    return outcome, state, p_plus if outcome == 1 else 1.0 - p_plus


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite 2^n x 2^n operator; a real
    matrix is kept float64, a complex one complex128."""

    __slots__ = ("n_qubits", "matrix")

    HERMITICITY_TOL = 1e-10
    TRACE_TOL = 1e-8
    POSITIVITY_TOL = -1e-8

    def __init__(self, matrix, validate: bool = True, copy: bool = True):
        dtype = complex if np.iscomplexobj(matrix) else float
        mat = np.array(matrix, dtype=dtype) if copy else np.asarray(matrix, dtype=dtype)
        dim = mat.shape[0]
        if mat.ndim != 2 or mat.shape != (dim, dim) or not dim or dim & (dim - 1):
            raise ValueError("density matrix must be square with 2^n rows")
        self.n_qubits = int(dim.bit_length() - 1)
        self.matrix = mat
        if validate:
            self.validate()

    def validate(self):
        self._check(self.matrix[None])

    @classmethod
    def validated(cls, stack: np.ndarray) -> list:
        """One state per matrix of a ``(states, 2^n, 2^n)`` stack, checked at once."""
        cls._check(stack)
        return [cls(m, validate=False, copy=False) for m in stack]

    @classmethod
    def _check(cls, stack: np.ndarray):
        """Each check over the stack at once; ``ValueError`` at the first matrix
        that fails one: Hermitian, then unit trace, then positive semidefinite."""
        skews = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()
        traces = np.trace(stack, axis1=1, axis2=2).real.tolist()
        for skew, trace, low in zip(skews, traces, np.linalg.eigvalsh(stack)[:, 0].tolist()):
            if skew > cls.HERMITICITY_TOL:
                raise ValueError("density matrix is not Hermitian")
            if abs(trace - 1.0) > cls.TRACE_TOL:
                raise ValueError(f"density matrix trace {trace} != 1")
            if low < cls.POSITIVITY_TOL:
                raise ValueError("density matrix has a significantly negative eigenvalue")

    def expectation(self, h: OperatorSum) -> float:
        """tr(H rho): :func:`density_energies` of this one state."""
        return float(density_energies([self], h)[0])

    def __repr__(self):
        return f"DensityMatrix(n={self.n_qubits}, trace={np.trace(self.matrix).real:.6f})"


def density_energies(states, h: OperatorSum) -> np.ndarray:
    """tr(H rho) = sum_k f_k rho[idx_k, k] of each of ``states``, H[k, idx_k] = f_k: per X-mask
    group of one plan, a ``np.dot`` per state on its gather in C order (a stride moves the sum)."""
    stack, rows = np.stack([rho.matrix for rho in states]), np.arange(1 << states[0].n_qubits)
    return sum((np.array([np.dot(f, g) for g in stack[:, rows if ix is None else ix, rows].copy()])
                for ix, f in _plan(h, states[0].n_qubits)), np.zeros(len(states))).real
