"""Exact algebra of Pauli strings and their weighted sums.

A Pauli string is ``phase * (P_{n-1} x ... x P_1 x P_0)`` with each factor in
{I, X, Y, Z}.  Site content is stored as two bitmasks: bit k of ``x_mask`` /
``z_mask`` is set when the qubit-k factor contains an X / Z component, and
both bits set means Y.  The phase is stored exactly as a power of the
imaginary unit, so every group identity (products, commutators, adjoints)
is computed on integers and holds bit-exactly.  Floating point enters only
through the coefficients of :class:`OperatorSum`.

Conventions used throughout the package:

* qubit k corresponds to bit k of a computational basis index,
* string labels such as ``"IXYZ"`` read left to right as qubit 0, 1, 2, ...
* dense matrices are ``kron(P_{n-1}, ..., P_1, P_0)``, which makes the two
  conventions consistent.

:func:`pauli_action` turns a string into an action on basis amplitudes,
for state-vector operations and gates; :func:`sum_action` turns a sum into
one such action per X mask, for every expectation and dense realization.
Both keep their tables in one cache under :data:`ACTION_CACHE_BYTES`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DimensionMismatchError

_LETTERS = "IXZY"  # by site code x_bit | z_bit << 1
_CODE_LETTER = np.frombuffer(_LETTERS.encode(), np.uint8)
_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_LABELS = ("+", "+i", "-", "-i")

#: dense realizations are capped at this many qubits (4096-dimensional)
MATRIX_QUBIT_CAP = 12

#: coefficients below this magnitude are dropped when a sum is built
COEFF_EPS = 1e-12

#: bytes of tables kept, 24 * 2^n per string or X-mask group (16 * 2^n diagonal)
ACTION_CACHE_BYTES = 64 << 20


def _phase_to_exp(phase) -> int:
    """Map a unit phase value {1, i, -1, -i} to its exponent of i."""
    value = complex(phase)
    for k, ref in enumerate(_PHASE_VALUES):
        if value == ref:
            return k
    raise ValueError(f"phase must be one of 1, i, -1, -i, got {phase!r}")


@dataclass(frozen=True)
class PauliString:
    """A signed/phased tensor product of single-site Pauli operators.

    The represented operator is ``i**phase_exp * C(x_mask, z_mask)`` where C
    is the phase-free convention with Y at every site that has both mask
    bits set.  Instances are immutable and hashable.
    """

    n_qubits: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits outside the qubit register")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def from_label(cls, label: str, phase=1) -> "PauliString":
        """Build from a word like ``"IXYZ"`` (leftmost letter = qubit 0)."""
        return cls.from_sites(len(label), dict(enumerate(label)), phase)

    @classmethod
    def from_sites(cls, n_qubits: int, sites, phase=1) -> "PauliString":
        """Build from a ``{qubit: letter}`` mapping; unlisted qubits are I."""
        x = z = 0
        for q, letter in dict(sites).items():
            if not 0 <= q < n_qubits:
                raise IndexError(f"qubit {q} outside register of {n_qubits}")
            code = _LETTERS.find(letter.upper()) if len(letter) == 1 else -1
            if code < 0:
                raise ValueError(f"invalid Pauli letter {letter!r}")
            x |= (code & 1) << q
            z |= (code >> 1) << q
        return cls(n_qubits, x, z, _phase_to_exp(phase))

    @classmethod
    @lru_cache(maxsize=1024, typed=True)
    def single(cls, n_qubits: int, qubit: int, letter: str, phase=1) -> "PauliString":
        """One letter on one qubit, built once per argument tuple."""
        return cls.from_sites(n_qubits, {qubit: letter}, phase)

    # -- inspection ---------------------------------------------------

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_exp]

    def letter(self, qubit: int) -> str:
        return _LETTERS[(self.x_mask >> qubit) & 1 | ((self.z_mask >> qubit) & 1) << 1]

    def to_label(self) -> str:
        size = (self.n_qubits + 7) // 8  # little-endian bytes: bit k is site k
        x, z = (np.unpackbits(np.frombuffer(mask.to_bytes(size, "little"), np.uint8),
                              count=self.n_qubits, bitorder="little")
                for mask in (self.x_mask, self.z_mask))
        return _CODE_LETTER[x | z << 1].tobytes().decode()

    def support(self) -> tuple[int, ...]:
        mask = self.x_mask | self.z_mask
        return tuple(k for k in range(self.n_qubits) if (mask >> k) & 1)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0 and self.phase_exp == 0

    def is_hermitian(self) -> bool:
        return self.phase_exp % 2 == 0

    # -- algebra ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PauliString):
            return NotImplemented
        return pauli_mul(self, other)

    def commutes(self, other: "PauliString") -> bool:
        return commutes(self, other)

    def act(self, amps: np.ndarray, control: int | None = None) -> np.ndarray:
        """P|psi> as a fresh array, over the last axis of ``amps``.

        The register size is read from ``amps`` (identity on any qubit past
        the string's own).  With a control qubit: P on its |1> half, the
        identity on its |0> half.
        """
        n = amps.shape[-1].bit_length() - 1
        idx, factor = pauli_action(n, self.x_mask, self.z_mask, self.phase_exp, control)
        return factor * amps.take(idx, axis=-1)

    def to_matrix(self) -> np.ndarray:
        return to_matrix(OperatorSum.from_string(self))

    def __repr__(self):
        return f"PauliString({_PHASE_LABELS[self.phase_exp]}{self.to_label()})"


_actions: OrderedDict = OrderedDict()  # string and sum tables, least recently used first
_action_bytes = 0


def _cached(build, *key):
    """``build(*key)``, kept until the kept tables exceed :data:`ACTION_CACHE_BYTES`."""
    global _action_bytes
    if key in _actions:
        _actions.move_to_end(key)
        return _actions[key]
    tables = _actions[key] = build(*key)
    _action_bytes += sum(a.nbytes for a in tables if a is not None)
    while _action_bytes > ACTION_CACHE_BYTES:
        _action_bytes -= sum(a.nbytes for a in _actions.popitem(last=False)[1] if a is not None)
    return tables


def pauli_action(n_qubits: int, x_mask: int, z_mask: int, phase_exp: int = 0,
                 control: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and factor vector of ``i**phase_exp C(x_mask, z_mask)``.

    ``P|psi> = factor * psi[..., idx]``: basis state j goes to j ^ x_mask
    with the sign (-1)**parity(z_mask & j) and the Y phases i**#Y.  With a
    control qubit the pair is the identity wherever the control bit is 0,
    i.e. it realizes ``|0><0|_c (x) 1 + |1><1|_c (x) P``.  Both arrays are
    read-only and shared between calls, kept under the one byte budget.
    """
    return _cached(_action_tables, n_qubits, x_mask, z_mask, phase_exp, control)


def sum_action(op: OperatorSum) -> list:
    """``op``'s plan, ``op|psi> = sum factor * psi[..., idx]`` over one read-only
    pair per X mask of its terms, in their order; ``idx`` is None for the
    diagonal group, and a factor sums coefficient times string factor."""
    groups: dict[int, list] = {}
    for c, s in op:
        groups.setdefault(s.x_mask, []).append((s.z_mask, c))
    return [_cached(_group_tables, op.n_qubits, x, tuple(terms)) for x, terms in groups.items()]


def _group_tables(n_qubits, x_mask, terms):
    factor = np.zeros(1 << n_qubits, dtype=complex)
    for z_mask, c in terms:  # in term order, as to_matrix sums an entry
        idx, string = _action_tables(n_qubits, x_mask, z_mask, 0, None)
        factor += c * string
    factor.setflags(write=False)
    return (idx if x_mask else None), factor


def _action_tables(n_qubits, x_mask, z_mask, phase_exp, control):
    if control is not None:
        if not 0 <= control < n_qubits:
            raise IndexError(f"control qubit {control} out of range")
        if ((x_mask | z_mask) >> control) & 1:
            raise ValueError("control overlaps the string support")
    basis = np.arange(1 << n_qubits, dtype=np.int64)
    idx = basis ^ x_mask
    parity = idx & z_mask
    for shift in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> shift
    unit = _PHASE_VALUES[(phase_exp + (x_mask & z_mask).bit_count()) % 4]
    factor = np.where(parity & 1, -unit, unit)
    if control is not None:
        idle = (basis >> control) & 1 == 0
        idx[idle] = basis[idle]
        factor[idle] = 1.0
    idx.setflags(write=False)
    factor.setflags(write=False)
    return idx, factor


def _check_sizes(a: PauliString, b: PauliString):
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a*b.  Associative, closed up to a power of i."""
    _check_sizes(a, b)
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    exp = (
        a.phase_exp
        + b.phase_exp
        + (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (x & z).bit_count()
    )
    return PauliString(a.n_qubits, x, z, exp)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba, from the symplectic overlap parity (no matrices)."""
    _check_sizes(a, b)
    overlap = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return overlap % 2 == 0


class OperatorSum:
    """A weighted list of Pauli strings (Hamiltonians, jump operators, ...).

    Canonical as constructed: string phases are folded into the
    coefficients, like strings merged in input order, coefficients below
    ``COEFF_EPS`` dropped and the phase-free strings ordered by (x mask,
    z mask).  Instances are treated as immutable.
    """

    __slots__ = ("_n_qubits", "_terms", "_hermitian")

    def __init__(self, terms, n_qubits: int | None = None):
        acc: dict[tuple[int, int], complex] = {}
        for c, s in terms:
            if n_qubits is None:
                n_qubits = s.n_qubits
            if s.n_qubits != n_qubits:
                raise DimensionMismatchError(
                    f"term on {s.n_qubits} qubits in a {n_qubits}-qubit sum"
                )
            key = (s.x_mask, s.z_mask)
            acc[key] = acc.get(key, 0j) + complex(c) * s.phase
        if n_qubits is None:
            raise ValueError("n_qubits required for an empty sum")
        self._n_qubits = n_qubits
        self._terms = tuple((c, PauliString(n_qubits, x, z))
                            for (x, z), c in sorted(acc.items()) if abs(c) >= COEFF_EPS)
        self._hermitian = None

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n_qubits: int, coeff=1.0) -> "OperatorSum":
        return cls([(coeff, PauliString.identity(n_qubits))])

    @classmethod
    def from_string(cls, string: PauliString, coeff=1.0) -> "OperatorSum":
        return cls([(coeff, string)])

    # -- inspection ---------------------------------------------------

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def terms(self) -> tuple:
        return self._terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)

    def normalized(self) -> "OperatorSum":
        """The sum itself, canonical since construction."""
        return self

    def is_hermitian(self) -> bool:
        """Term-by-term check: all coefficients real within 1e-10."""
        if self._hermitian is None:
            self._hermitian = all(abs(c.imag) <= 1e-10 for c, _ in self._terms)
        return self._hermitian

    # -- algebra ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if other.n_qubits != self._n_qubits:
            raise DimensionMismatchError("adding sums of different sizes")
        return OperatorSum(self._terms + other._terms, self._n_qubits)

    def __sub__(self, other):
        if not isinstance(other, OperatorSum):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, OperatorSum):
            return NotImplemented
        c = complex(scalar)
        return OperatorSum([(c * coeff, s) for coeff, s in self._terms], self._n_qubits)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, PauliString):
            other = OperatorSum.from_string(other)
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if other.n_qubits != self._n_qubits:
            raise DimensionMismatchError("multiplying sums of different sizes")
        prods = [
            (ca * cb, sa * sb)
            for ca, sa in self._terms
            for cb, sb in other._terms
        ]
        return OperatorSum(prods, self._n_qubits)

    def adjoint(self) -> "OperatorSum":
        return OperatorSum([(c.conjugate(), s) for c, s in self._terms], self._n_qubits)

    def to_matrix(self) -> np.ndarray:
        return to_matrix(self)

    def single_string(self) -> PauliString:
        """Collapse a sum that is exactly one unit-coefficient string.

        Used where an algebraic product is known to close on a single signed
        string (e.g. stabilizer products); raises if that is not the case.
        """
        if len(self) != 1:
            raise ValueError(f"sum has {len(self)} strings, expected exactly 1")
        c, s = self._terms[0]
        for k, ref in enumerate(_PHASE_VALUES):
            if abs(c - ref) <= 1e-9:
                return PauliString(s.n_qubits, s.x_mask, s.z_mask, k)
        raise ValueError(f"coefficient {c} is not a unit phase")

    def __repr__(self):
        parts = [f"({c:.6g})*{s.to_label()}" for c, s in self._terms[:4]]
        if len(self) > 4:
            parts.append(f"... [{len(self)} terms]")
        return f"OperatorSum({' + '.join(parts) or '0'}, n={self._n_qubits})"


def to_matrix(op: OperatorSum) -> np.ndarray:
    """Dense 2^n x 2^n realization of an operator sum: :func:`to_matrices` of all 2^n states."""
    return next(to_matrices(op, [None]))


def to_matrices(op: OperatorSum, blocks):
    """Dense realization of an operator sum (n capped at 12) on each block of ``blocks``,
    the basis states it lists (all 2^n if None), with the per-operator work done once:
    ``ValueError`` if the sum maps a state of a block out of that block.

    float64 exactly when every term's c i**#Y is real, #Y its number of Y
    sites: then every entry, a sum of such products times +-1, is real;
    complex otherwise.
    """
    n_qubits = op.n_qubits
    if n_qubits > MATRIX_QUBIT_CAP:
        raise CapExceededError(f"dense matrix for {n_qubits} qubits exceeds the "
                               f"{MATRIX_QUBIT_CAP}-qubit cap")
    real, plan = all((c * _PHASE_VALUES[(s.x_mask & s.z_mask).bit_count() % 4]).imag == 0.0
                     for c, s in op), sum_action(op)
    place = np.full(1 << n_qubits, -1)  # each basis state's row and column, -1 off the block
    for block in blocks:
        rows = np.arange(1 << n_qubits) if block is None else np.asarray(block)
        place[rows] = np.arange(len(rows))
        mat = np.zeros((len(rows), len(rows)), dtype=float if real else complex)
        for idx, factor in plan:  # op[j, idx[j]] = factor[j]
            cols, f = place[rows if idx is None else idx[rows]], factor[rows]
            inside = cols >= 0
            if f[~inside].any():
                raise ValueError("the operator maps a state of the block out of the block")
            mat[inside, cols[inside]] = f[inside].real if real else f[inside]
        place[rows] = -1
        yield mat


# -- Jordan-Wigner images ---------------------------------------------

def jw_annihilator(i: int, n: int) -> OperatorSum:
    """Fermionic annihilator for mode i, on qubit i, of an n-mode chain.

    Returns the two-string image ``(Z_0...Z_{i-1}) (X_i + iY_i)/2``, which
    maps the occupied state |1> to the empty state |0>.
    """
    if not 0 <= i < n:
        raise IndexError(f"mode {i} outside 0..{n - 1}")
    x = 1 << i
    z = x - 1  # Z on every earlier site
    return OperatorSum([(0.5, PauliString(n, x, z)), (0.5j, PauliString(n, x, z | x))], n)


def jw_creator(i: int, n: int) -> OperatorSum:
    return jw_annihilator(i, n).adjoint()


def jw_number(i: int, n: int) -> OperatorSum:
    """Occupation-number image (1 - Z_i)/2 for mode i, on qubit i."""
    if not 0 <= i < n:
        raise IndexError(f"mode {i} outside 0..{n - 1}")
    return OperatorSum([(0.5, PauliString.identity(n)), (-0.5, PauliString.single(n, i, "Z"))], n)


# -- textual round-trip format ----------------------------------------

def format_operator(op: OperatorSum) -> str:
    """One term per line: ``<re> <im> <pauli-word>`` in term order,
    each line ending in a newline, joined once."""
    return "".join([f"{c.real:.17g} {c.imag:.17g} {s.to_label()}\n" for c, s in op])


def parse_operator(text: str, n_qubits: int | None = None) -> OperatorSum:
    """Inverse of :func:`format_operator`."""
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected '<re> <im> <word>'")
        re_part, im_part, word = fields
        string = PauliString.from_label(word)
        if n_qubits is None:
            n_qubits = string.n_qubits
        elif string.n_qubits != n_qubits:
            raise DimensionMismatchError(f"line {lineno}: word length mismatch")
        terms.append((complex(float(re_part), float(im_part)), string))
    if n_qubits is None:
        raise ValueError("empty operator text and no n_qubits given")
    return OperatorSum(terms, n_qubits)
