"""Dissipative ground-state cooling of the toric code at three levels.

* :func:`lindblad_integrate`: exact master-equation integration for tiny
  systems (density-matrix cap of six qubits), by a Taylor series of the
  Lindblad exponential.
* :func:`trajectory_run`: quantum trajectories on the system register, each
  cycle applied as its two-outcome map: K0 = P+ + cos(theta/2) P- (ancilla
  reads 0) or K1 = -i sin(theta/2) sigma_pump P- (reads 1), with
  P+- = (1 +- S)/2 for the cycle's stabilizer S.  The circuit-level cycle
  with its ancilla, :func:`cooling_cycle_trajectory`, is model and oracle.
  The engine's rows are float64: every state and map it holds is real (K1 up to -i).
* :func:`syndrome_mc_run`: classical Monte Carlo on stabilizer eigenvalues
  at any lattice size.  For syndrome-definite initial states the quantum
  trajectories reduce exactly to this process, trajectory by trajectory,
  which :func:`equivalence_check` certifies.

One cooling cycle flips a violated stabilizer with probability
sin^2(theta/2), which no energy scale enters, and leaves the ground sector
exactly invariant; energies are in units of the stabilizer coupling E0 = 1.
A sweep is each kind of cell in turn, plaquettes then stars; :func:`_kinds`
is the one description of what a cycle acts on, per kind, for every engine.

A run is one :class:`CoolingParams`.  Both stochastic engines take its
``thetas`` whole, advance them together and return one :class:`Trace` per
theta from one fan-out.  They read each random number as a pure function
of its counter (:func:`_draws`, SplitMix64; Salmon et al., SC'11): sweep 0
holds a trajectory's start syndromes (:func:`_sample_bits`), each later
sweep a visit time, flip uniform u and edge pick per (trajectory, cell), so
results depend on neither the worker count, the batch size nor the other
thetas.  A row visits its cells in increasing time, a uniformly random
order; a visit flips iff u < sin^2(theta/2) on an excited cell.
"""

from __future__ import annotations

import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CapExceededError
from .gates import controlled_flip, flip_probability, syndrome_map
from .models import ToricLattice, build_toric, toric_ground_state
from .pauli import OperatorSum, PauliString, pauli_action, sum_action
from .statevec import DensityMatrix, StateVector, density_energies, measure_projector, row_energies

#: density-matrix integration cap
LINDBLAD_QUBIT_CAP = 6

#: substeps one lindblad_integrate step runs at most; at the qubit cap a substep took
#: 1.4 and 2.3 ms with one and two jumps in complex128, 0.42 and 0.66 ms in float64
#: (a pure start, 2-vCPU VM), so a capped step runs at most about 140 s and 230 s
LINDBLAD_SUBSTEP_CAP = 10**5

#: trajectory cap on the system register, the qubits the engine holds
TRAJECTORY_QUBIT_CAP = 12

#: trajectories the trajectory engine advances together; fewest per process
BLOCK = 64

#: largest per-trajectory energy difference :func:`equivalence_check` passes
MAX_ABS_DELTA = 1e-9

#: Monte Carlo row-cells per batch, theta replicas counted: it bounds the
#: int8 bits (1 MB); a sweep from q_init 0.5 peaks near 20 bytes per
#: row-cell at theta pi and 12 at (pi, pi/4), its draws and indices at the
#: flips counted (tracemalloc, 64x64 torus, a full batch, SWEEP_CHUNK 2^17)
BATCH_ROW_CELLS = 1 << 20

#: a :func:`_sweep` over more than twice this many entries (the benchmark's
#: sweeps hold at most 204800) finds first flips in this many entries per theta
#: block and spreads them this many at a time, reusing the temporaries (serial
#: 64x64, 2 theta, 10^4 trajectories: 12.2 to 8.7 s, 1.85M to 0.48M minor faults)
SWEEP_CHUNK = 1 << 17


@dataclass(frozen=True)
class CoolingParams:
    """Knobs of one cooling run; ``thetas`` is a non-empty tuple, one trace each."""

    thetas: tuple
    n_steps: int
    n_trajectories: int
    q_init: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not len(self.thetas):
            raise ValueError("need at least one theta")
        if not all(0.0 < theta <= np.pi for theta in self.thetas):
            raise ValueError("theta must lie in (0, pi]")
        if not 0.0 <= self.q_init <= 1.0:
            raise ValueError("q_init must lie in [0, 1]")
        if self.n_steps < 0 or self.n_trajectories < 1:
            raise ValueError("need n_steps >= 0 and n_trajectories >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass
class Trace:
    """Per-trajectory energies, ``(trajectories, steps + 1)`` with step 0 the
    initial state, and their per-step mean and standard error."""

    energies: np.ndarray
    theta: float
    engine: str

    def __post_init__(self):
        n, width = self.energies.shape
        self.steps, self.mean_energy = np.arange(width), self.energies.mean(axis=0)
        self.stderr = (self.energies.std(axis=0, ddof=1) / np.sqrt(n) if n > 1
                       else np.zeros(width))


@dataclass
class EquivalenceReport:
    """Trajectory-by-trajectory comparison of the two cooling engines."""

    mc: Trace
    trajectory: Trace

    @property
    def max_abs_delta(self) -> float:
        return float(np.max(np.abs(self.mc.energies - self.trajectory.energies)))

    @property
    def passed(self) -> bool:
        return self.max_abs_delta <= MAX_ABS_DELTA

    @property
    def z_scores(self) -> np.ndarray:
        """Per step, the mean difference in standard errors; 0 if passed."""
        diff = np.abs(self.mc.mean_energy - self.trajectory.mean_energy)
        sigma = np.sqrt(self.mc.stderr**2 + self.trajectory.stderr**2)
        return np.where(diff <= MAX_ABS_DELTA, 0.0, diff / np.maximum(sigma, 1e-300))


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)
_STRIDE, _S30, _F1, _S27, _F2, _S31, _S11 = (np.uint64(a) for a in (
    3 * _GAMMA % 2**64, 30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 11))
_offset = cache(lambda seed, lane: np.uint64((seed + (lane + 1) * _GAMMA) % 2**64))


def _draws(seed: int, lane: int, index: np.ndarray) -> np.ndarray:
    """int64 k in [0, 2^53), the uniform u = k 2^-53: the top 53 bits of
    SplitMix64's output from state ``seed`` at counters ``3 * index + lane``,
    mix(seed + (counter + 1) gamma) mod 2^64, an affine state in ``index``
    (int64 >= 0).  Lanes 0-2 are a visit time, u and a pick (k >> 51); at
    sweep 0, a start uniform and, at a kind's cell 0, its parity-repair pick."""
    z = np.multiply(index.view(np.uint64), _STRIDE)
    z += _offset(seed, lane)
    spare = np.empty_like(z)
    for shift, factor in ((_S30, _F1), (_S27, _F2)):
        z ^= np.right_shift(z, shift, out=spare)
        z *= factor
    z ^= np.right_shift(z, _S31, out=spare)
    z >>= _S11
    return z.view(np.int64)


def _below(p) -> np.ndarray:
    """ceil(p 2^53) as int64, so that k < _below(p) iff k 2^-53 < p, p in [0, 1]."""
    return np.ceil(np.multiply(p, 2.0**53)).astype(np.int64)


def _index(kinds, params: CoolingParams, rows: range, sweep=0) -> np.ndarray:
    """(..., rows, cells) draw indices of trajectories ``rows`` at ``sweep``
    (one or an array): cell c of a kind of ``count`` cells at ``offset`` in
    trajectory t is at (sweep * cells + offset) * trajectories + t * count + c."""
    cells, t = kinds[-1].offset + len(kinds[-1].cells), np.arange(rows.start, rows.stop)[:, None]
    return np.concatenate([(sweep * cells + kind.offset) * params.n_trajectories + t * len(
        kind.cells) + np.arange(len(kind.cells)) for kind in kinds], axis=-1)


# ---------------------------------------------------------------------
# jump operators and the master equation
# ---------------------------------------------------------------------

def jump_operator(stabilizer: PauliString, pump: PauliString) -> OperatorSum:
    """c = pump (1 - stabilizer) / 2: interrogation projector then pump flip.

    Annihilates every stabilizer = +1 state and maps each excited state
    directly to its partner in the ground sector.  The pump must
    anticommute with the stabilizer; on a toric cell, it acts on one of the
    cell's edges (Z_edge for a plaquette A_p, X_edge for a star B_s).
    """
    if stabilizer.commutes(pump):
        raise ValueError("the pump commutes with the stabilizer, so it cannot flip it")
    n = stabilizer.n_qubits
    interrogate = OperatorSum.identity(n) - OperatorSum.from_string(stabilizer)
    return 0.5 * (OperatorSum.from_string(pump) @ interrogate)


def lindblad_integrate(jumps, gamma: float, rho0: DensityMatrix, t: float, steps=1) -> list:
    """Integrate d rho/dt = gamma sum_k (c rho c+ - {c+c, rho}/2), H = 0: the
    validated states at t, 2 t, ..., steps t, from one setup.

    rho(t) = exp(t L) rho0, by the Taylor series of each of the fewest equal
    substeps on which t ||L|| <= 1, with ||L|| <= gamma (sum ||c||^2 +
    ||sum c+c||) in spectral norms; a series ends at its first term below
    1e-17.  The series runs in the dtype of its inputs: float64 when every
    jump matrix and rho0 is real (every toric problem), else complex128; the
    states are validated together.  Every ground-sector state is a fixed point.
    ``ValueError`` unless gamma and t are finite and non-negative;
    ``CapExceededError`` past :data:`LINDBLAD_SUBSTEP_CAP` substeps per step.
    """
    jumps = list(jumps)
    if any(op.n_qubits != rho0.n_qubits for op in jumps):
        raise ValueError("jump operators and state differ in qubit count")
    if rho0.n_qubits > LINDBLAD_QUBIT_CAP:
        raise CapExceededError(f"density-matrix integration capped at {LINDBLAD_QUBIT_CAP} qubits")
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError("gamma must be finite and non-negative")
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError("t must be finite and non-negative")
    if gamma == 0.0 or t == 0.0 or not jumps or not steps:
        return [DensityMatrix(rho0.matrix, validate=False) for _ in range(steps)]
    cs = [op.to_matrix() for op in jumps]
    cdags = [c.conj().T for c in cs]
    anti = 0.5 * sum(cd @ c for c, cd in zip(cs, cdags))
    norms = sum(np.linalg.norm(c, 2) ** 2 for c in cs) + 2.0 * np.linalg.norm(anti, 2)
    bound = gamma * float(norms)  # a Python float: t * bound may overflow to inf
    if t * bound > LINDBLAD_SUBSTEP_CAP:
        raise CapExceededError(f"Lindblad integration needs {t * bound:.3g} substeps, "
                               f"capped at {LINDBLAD_SUBSTEP_CAP}")
    substeps = max(1, math.ceil(t * bound))
    scale = gamma * t / substeps
    rho, states = rho0.matrix.astype(np.result_type(rho0.matrix, anti), copy=False), []
    for done in range(1, steps * substeps + 1):
        term, out = rho, rho.copy()
        for k in range(1, 20):  # |term| <= 1/k! in trace norm: 1/19! < 1e-17
            half = anti @ term  # {c+c, term}/2 = half + half+, as term is Hermitian
            jumped = [c @ term @ cd for c, cd in zip(cs, cdags)]
            term = (scale / k) * (sum(jumped[1:], jumped[0]) - half - half.conj().T)
            out += term
            if np.abs(term).max() < 1e-17:
                break
        # the series takes rho Hermitian (half + half+): drop rounding's
        # anti-Hermitian part, which it would otherwise amplify
        rho = 0.5 * (out + out.conj().T)
        if done % substeps == 0:
            states.append(rho)
    return DensityMatrix.validated(np.stack(states))


# ---------------------------------------------------------------------
# classical syndrome configurations
# ---------------------------------------------------------------------

_Kind = namedtuple("_Kind", "offset cells letter pump other")


def _kinds(lattice: ToricLattice) -> tuple[_Kind, ...]:
    """What a cooling sweep acts on, one kind after the other: plaquettes
    (stabilizer letter X, pump Z), then stars (Z, X).

    Per kind, ``offset`` is its first column in a row of syndrome bits,
    ``cells`` its ``(count, 4)`` edges and ``other[cell, pick]`` the cell at
    the other end of ``cell``'s ``pick``-th edge, toggled with ``cell`` when
    the pump flips that edge (the two ends differ when lx, ly >= 2).  It
    comes from the cells alone: sorted, an edge's two slots name each other.
    """
    kinds, offset = [], 0
    for cells, letter, pump in ((lattice.plaquettes, "X", "Z"), (lattice.stars, "Z", "X")):
        cells = np.asarray(cells)
        slots = np.argsort(cells.ravel(), kind="stable").reshape(-1, 2)
        other = np.empty(cells.size, dtype=np.int64)
        other[slots] = slots[:, ::-1] // 4
        kinds.append(_Kind(offset, cells, letter, pump, other.reshape(cells.shape)))
        offset += len(cells)
    return tuple(kinds)


def _sample_bits(kinds, params: CoolingParams, rows: range) -> np.ndarray:
    """(rows, cells) int8 +-1 start syndromes of trajectories ``rows``: each
    excited iff its sweep-0 uniform is below q_init, then per kind parity
    repaired by flipping the bit at floor(u count), u the kind's pick
    uniform (both products are +1 on the torus)."""
    index = _index(kinds, params, rows)
    bits = np.where(_draws(params.seed, 0, index) < _below(params.q_init), np.int8(-1), np.int8(1))
    for kind in kinds:
        count = len(kind.cells)
        odd = np.flatnonzero((bits[:, kind.offset:kind.offset + count] < 0).sum(axis=1) % 2)
        pick = (_draws(params.seed, 1, index[odd, kind.offset]) * 2.0**-53 * count).astype(np.int64)
        bits[odd, kind.offset + pick] *= -1
    return bits


def _tables(kinds, params: CoolingParams, rows: int, probs):
    """:func:`_sweep`'s tables for ``rows`` trajectories at ``probs`` (any 1
    last): per column, the shift to the other end of each pick, its draw
    index in trajectory 0 and the step to the next; per row, its trajectory;
    per kind, its first column and count; per theta, its flip bound
    (:func:`_below`); and three int8 flags per (theta, trajectory, cell)."""
    (lead, ahead), cells = _index(kinds, params, range(2)), len(kinds[-1].cells) + kinds[-1].offset
    shift = np.concatenate([k.other.ravel() + k.offset for k in kinds]) - np.arange(cells).repeat(4)
    return (shift, lead, ahead - lead, np.tile(np.arange(rows), len(probs)),
            [(k.offset, len(k.cells)) for k in kinds], _below(probs).tolist(),
            np.zeros((3, len(probs) * rows * cells), dtype=np.int8))


def _sweep(bits, tables, params, sweep, first):
    """Sweep ``sweep`` of ``bits``, a row per (theta, trajectory ``first``
    on) of its batch's :func:`_tables`.  A flip toggles cells of its own kind
    only, so all kinds are solved at once over the (theta, row, cell)
    entries: a visit flips iff it is a candidate (u < prob) and its cell
    reads excited, its start value toggled by every flip visited before it
    (by time, then cell) whose picked edge's other end it is.  The first
    flips, excited candidates, are found per theta block and kind in
    :data:`SWEEP_CHUNK` // cells rows at a time: a kind's excited entries
    there, one strided slice, sit at their draw indices less a constant; u
    is tested against the block's one bound, not drawn at pi (bound 2^53);
    only candidates get a row and column.  Each round re-reads the cells the
    last round's changed flips toggle (the first round spreads all blocks'
    flips, SWEEP_CHUNK at a time), settling one more link of the longest
    chain until the flips are the sequential sweep's, the unique fixed point;
    toggles are int8 counts read by parity.  Only u at excited and toggled
    entries below pi, times and picks at flips and times at their toggles
    are drawn.
    """
    shift, lead, width, row, kinds, bounds, (reads, flips, moves) = tables
    (size, cells), seed, one = bits.shape, params.seed, np.int8(1)
    rows, drawn = size // len(bounds), [bound for bound in bounds if bound < 1 << 53]
    lead = lead + first * width + sweep * cells * params.n_trajectories
    edges = np.arange(len(drawn) + 1) * (rows * cells)  # the blocks below pi, then pi's first entry

    def spread(start, c, index):  # flips that start or stop: the later candidates they toggle
        step = shift[4 * c + (_draws(seed, 2, index) >> 51)]
        end, index = start + step, np.concatenate((index + step, index))
        np.add.at(moves, end, one)
        times = _draws(seed, 0, index)
        later = times[:len(end)] - times[len(end):] >= (step < 0)  # or tied, and to the right
        end, index = end.compress(later), index[:len(end)].compress(later)
        cut, keep = end.searchsorted(edges).tolist(), np.ones(len(end), dtype=bool)
        if cut[-1]:  # u < prob, drawn below pi only; an end is in its start's theta block
            u = _draws(seed, 1, index[:cut[-1]])
            for lo, hi, bound in zip(cut, cut[1:], drawn):
                np.less(u[lo:hi], bound, out=keep[lo:hi])
        return end.compress(keep)

    excited = reads.view(bool).reshape(bits.shape)
    np.less(bits, 0, out=excited)  # reads: start, then toggles
    span = rows if reads.size <= 2 * SWEEP_CHUNK else max(1, SWEEP_CHUNK // cells)
    bases, parts = lead[[offset for offset, _ in kinds]].tolist(), []
    for lo in range(0, rows, span):  # rows lo.. of each block: per kind, (row - lo) * count + cell
        found = [(b, offset, count, base + lo * count, excited[b * rows + lo:b * rows + min(
            lo + span, rows), offset:offset + count].ravel().nonzero()[0])
            for b in range(len(bounds)) for (offset, count), base in zip(kinds, bases)]
        u = [pos + base for b, _, _, base, pos in found if b < len(drawn)]  # draw indices
        u, hit, index = _draws(seed, 1, np.concatenate(u)) if u else None, [], []
        for b, offset, count, base, pos in found:
            if b < len(drawn):
                pos, u = pos.compress(u[:len(pos)] < drawn[b]), u[len(pos):]
            hit.append(pos // count * (cells - count) + pos + ((b * rows + lo) * cells + offset))
            index.append(pos + base)
        hit, index = np.concatenate(hit), np.concatenate(index)
        flips[hit] = one
        c = hit - hit // cells * cells
        parts += [spread(hit[k:k + SWEEP_CHUNK], c[k:k + SWEEP_CHUNK], index[k:k + SWEEP_CHUNK])
                  for k in range(0, len(hit), SWEEP_CHUNK)]
    hit = parts[0] if len(parts) == 1 else np.concatenate([hit[:0], *parts])  # none: hit[:0]
    for _ in range(cells + 1):
        if not len(hit):
            break
        np.add.at(reads, hit, one)
        hit.sort()  # in place (hit is fresh), then distinct: np.unique's hashing is slower
        hit = hit.compress(np.concatenate(([True], hit[1:] != hit[:-1])))
        hit = hit.compress((reads[hit] ^ flips[hit]) & one)
        np.bitwise_xor.at(flips, hit, one)
        q = hit // cells  # floor division by a scalar is cheap, % is not
        c = hit - q * cells
        hit = spread(hit, c, lead[c] + row[q] * width[c])
    else:
        raise RuntimeError("syndrome sweep did not reach its fixed point")
    moves += flips  # a cell moves iff its own flip plus its toggles is odd
    np.bitwise_and(moves, one, out=moves)
    np.multiply(moves, -2, out=moves)  # 0 or -2, and x ^ -2 = -x for x = +-1
    np.bitwise_xor(bits, moves.reshape(bits.shape), out=bits)
    moves.fill(0)
    flips.fill(0)


def _mc_energies(lattice, params, rows):
    """(thetas, rows, steps + 1) energies of the trajectories ``rows``, each
    minus its row's syndrome sum: each batch's initial bits are sampled once
    and swept at every theta on the same draws until all are in the ground sector."""
    kinds, cells = _kinds(lattice), lattice.n_plaquettes + lattice.n_stars
    probs = np.array([flip_probability(theta) for theta in params.thetas])
    order = np.argsort(probs == 1.0, kind="stable")  # theta = pi last, where _sweep draws no u
    per_batch = max(1, BATCH_ROW_CELLS // (len(probs) * cells))
    out = np.empty((len(probs), len(rows), params.n_steps + 1))
    for at in range(0, len(rows), per_batch):
        batch = rows[at:at + per_batch]
        bits = np.tile(_sample_bits(kinds, params, batch), (len(probs), 1))
        tables, energy = _tables(kinds, params, len(batch), probs[order]), out[:, at:at + per_batch]
        for step in range(params.n_steps + 1):
            energy[..., step] = now = -bits.sum(axis=1, dtype=np.int32).reshape(len(probs), -1)
            if step == params.n_steps or now.max() == -cells:  # the ground sector is a fixed point
                energy[..., step:] = now[..., None]
                break
            _sweep(bits, tables, params, step + 1, batch.start)
    return out[np.argsort(order)]


# ---------------------------------------------------------------------
# quantum trajectories
# ---------------------------------------------------------------------

def _read(n: int, letter: str, masks: np.ndarray) -> np.ndarray:
    """Per mask, the half of its string's action that is read: X's index, Z's real factors."""
    return np.array([pauli_action(n, m, 0)[0] if letter == "X" else pauli_action(n, 0, m)[1].real
                     for m in masks.ravel().tolist()]).reshape(*masks.shape, -1)


@cache
def _chains(lattice: ToricLattice):
    """:func:`state_from_config`'s ground state, as one row, and per kind each cell's chain."""
    chains = []
    for kind in _kinds(lattice):
        order, path = [0], {0: 0}  # breadth first from the root; tree paths
        for cell in order:  # the list grows as it is read
            for edge, end in zip(kind.cells[cell].tolist(), kind.other[cell].tolist()):
                if end not in path:
                    path[end] = path[cell] ^ (1 << edge)
                    order.append(end)
        chains.append((kind, np.array([path[cell] for cell in range(len(kind.cells))])))
    return toric_ground_state(lattice).amps.real[None], chains


@cache
def _plan(lattice: ToricLattice):
    """Per lattice, :func:`_trajectory_energies`' energy plan and per-position gather
    flags and tables, apart from :func:`_chains`, which :func:`state_from_config` reads."""
    n, rules = lattice.n_edges, []
    for kind in _kinds(lattice):
        pumps = 1 << kind.cells  # a cell's stabilizer mask is the sum of its pumps'
        rules += [(kind.letter == "X", kind.pump == "X", _read(n, kind.letter, pumps.sum(axis=1)),
                   _read(n, kind.pump, pumps))] * len(pumps)
    return [(idx, f.real) for idx, f in sum_action(build_toric(lattice.lx, lattice.ly)[0])], rules


def state_from_config(lattice: ToricLattice, bits) -> np.ndarray:
    """(rows, 2^n_edges) real amplitudes of stabilizer eigenstates, row r with
    exactly the syndromes ``bits[r]``, one +-1 per plaquette, then per star
    (rows of :func:`_sample_bits`); the block is validated once.

    Per kind, a cell's chain is the mask of the pump edges on its path in a
    breadth-first spanning tree of the toggle graph (cells joined through
    ``other``) rooted at the kind's first cell: it toggles the cell and the
    root.  A row's excited cells' chains, an even number, multiply to one
    string with exactly their syndromes, applied to :func:`toric_ground_state`
    in one stacked Pauli gather per kind.
    """
    bits = np.asarray(bits)  # a ragged block raises ValueError here
    if (bits.ndim != 2 or bits.shape[1] != lattice.n_plaquettes + lattice.n_stars
            or not ((bits == 1) | (bits == -1)).all()):
        raise ValueError("need one syndrome of +1 or -1 per plaquette and per star")
    amps, chains = _chains(lattice)
    for kind, chain in chains:
        excited = bits[:, kind.offset:kind.offset + len(chain)] < 0
        if (excited.sum(axis=1) % 2).any():
            raise ValueError("syndrome parity violated; cannot realize state")
        masks, row = np.unique(np.bitwise_xor.reduce(np.where(excited, chain, 0), axis=1),
                               return_inverse=True)
        table = _read(lattice.n_edges, kind.pump, masks)[row]
        amps = np.take_along_axis(amps, table, axis=1) if kind.pump == "X" else amps * table
    return amps


def cooling_cycle_trajectory(state: StateVector, stabilizer_qubits, theta: float,
                             rng: np.random.Generator, kind: str = "plaquette"):
    """One ancilla-mediated cooling cycle on a four-spin stabilizer.

    Sequence: map the stabilizer eigenvalue onto the ancilla (the top
    qubit, |0>-prepared), apply the controlled pump flip on one of the four
    spins (uniformly random), unmap, measure the ancilla, pump it to |0>.
    Ground-sector states are exact fixed points; a violated stabilizer
    flips with probability sin^2(theta/2).  The oracle of the trajectories;
    returns ``(state, flipped)``.
    """
    qubits = tuple(stabilizer_qubits)
    if len(qubits) != 4:
        raise ValueError("stabilizer acts on four spins")
    ancilla = state.n_qubits - 1
    if ancilla in qubits:
        raise ValueError("ancilla overlaps the stabilizer")
    if kind not in ("plaquette", "star"):
        raise ValueError(f"kind must be 'plaquette' or 'star', got {kind!r}")
    letter, pump = ("X", "Z") if kind == "plaquette" else ("Z", "X")
    pump_qubit = qubits[rng.integers(4)]
    stab = PauliString.from_sites(state.n_qubits, {q: letter for q in qubits})
    syndrome_map(state, ancilla, stab)
    controlled_flip(state, ancilla, pump_qubit, theta, axis=pump)
    syndrome_map(state, ancilla, stab)
    outcome, _, _ = measure_projector(state, PauliString.single(state.n_qubits, ancilla, "Z"), rng)
    flipped = outcome == -1
    if flipped:  # optical pumping back to |0>
        state.apply_string(PauliString.single(state.n_qubits, ancilla, "X"))
    return state, flipped


def _trajectory_energies(lattice, params, rows):
    """(thetas, rows, steps + 1) energies of :func:`trajectory_run` for the
    trajectories ``rows``.  Per block, the rows start in the eigenstates of
    the Monte Carlo's start sampler and advance on its sweep draws, read for
    a chunk of sweeps at once: at each position, its cell, pump pick and
    readout uniform u, the row jumping iff u < p_flip."""
    kinds, (ham, rules) = _kinds(lattice), _plan(lattice)
    offsets = np.repeat([k.offset for k in kinds], [len(k.cells) for k in kinds])
    steps, n_theta = params.n_steps, len(params.thetas)
    out = np.empty((n_theta, len(rows), steps + 1))
    for first in range(rows.start, rows.stop, BLOCK):
        size = min(BLOCK, rows.stop - first)
        # a chunk of sweeps reads at most 2^11 (sweep, row, cell) draws: tens of kB
        chunk = max(1, (1 << 11) // (size * len(rules)))
        # theta-major rows in preallocated buffers, and no BLAS call, whose
        # blocking could make a row's bits depend on the other rows
        starts = _sample_bits(kinds, params, range(first, first + size))
        psi = np.tile(state_from_config(lattice, starts), (n_theta, 1))
        spare, gathered, index = np.empty_like(psi), np.empty_like(psi), np.empty(psi.shape, int)
        base = np.arange(0, psi.size, psi.shape[1])[:, None]  # flat start of each row
        flip = np.repeat([flip_probability(t) for t in params.thetas], size)
        # K0 psi = psi + (cos(theta/2) - 1) P- psi, with the 1/2 of P- moved here
        shrink = np.repeat([0.5 * (math.cos(t / 2.0) - 1.0) for t in params.thetas], size)[:, None]
        energy = row_energies(psi[:size], ham, spare[:size], gathered[:size])  # start rows
        energy = np.repeat(np.tile(energy, n_theta)[:, None], steps + 1, axis=1)  # theta copies
        live = np.arange(len(psi))  # the (theta, row) state of each row of psi
        moved = np.tile((starts < 0).any(axis=1), n_theta)  # a ground-sector start never acts
        for step in range(steps + 1):
            # a row that acted nowhere is in the ground sector, where every later visit
            # reads P- psi = 0: it leaves, keeping its energy; the rest move to spare
            keep = moved.nonzero()[0]
            psi, spare = psi.take(keep, axis=0, out=spare[:len(keep)], mode="clip"), psi
            live, flip, shrink = live[keep], flip[keep], shrink[keep]
            if step and len(psi):
                now = row_energies(psi, ham, spare[:len(psi)], gathered[:len(psi)])
                energy[live, step:] = now[:, None]  # carried forward until it next changes
            if step == steps or not len(psi):
                break  # a block with no live row reads no further draws
            if step % chunk == 0:  # each row's cells (within their kind) in visit order
                at = _index(kinds, params, range(first, first + size),
                            np.arange(step + 1, min(step + chunk, steps) + 1)[:, None, None])
                times, u, pick = (_draws(params.seed, lane, at) for lane in range(3))
                # kind-major (times are below 2^53), a tie to the lower cell
                order = np.argsort(times + (offsets << 53), axis=-1, kind="stable")
                u, pick = (np.take_along_axis(d, order, axis=-1) for d in (u, pick))
                visits = order - offsets, pick >> 51, u * 2.0**-53
            twice, image, at, start = (a[:len(psi)] for a in (spare, gathered, index, base))
            moved = np.zeros(len(psi), dtype=bool)
            for (gathers, pump_gathers, stab, pump), cell, edge, v in zip(
                    rules, *(d[step % chunk, live % size].T for d in visits)):
                table = stab.take(cell, axis=0, out=at if gathers else twice, mode="clip")
                if gathers:  # S psi, in image
                    psi.take(np.add(table, start, out=at), out=image, mode="clip")
                else:
                    np.multiply(psi, table, out=image)
                np.subtract(psi, image, out=twice)  # 2 P- psi
                norm = np.square(twice, out=image).sum(axis=1)
                act = norm.nonzero()[0]  # elsewhere K0 is the identity and p_flip = 0
                if not len(act):
                    continue
                moved[act] = True
                jump = v[act] < flip[act] * (0.25 * norm[act])  # the Monte Carlo's rule
                # in the buffers: K1 up to its phase -i on the rows that jump, then K0 on
                # those that stay, each over its own norm; over sqrt(1 - p_flip), a norm
                # rounded off 1 would grow by 1 / cos^2(theta/2) at each excited stay
                stay, jumped = act[~jump], act[jump]
                go, kick, to = (cell[jumped], edge[jumped]), image[:len(jumped)], at[:len(jumped)]
                if pump_gathers:
                    twice.take(np.add(pump[go], start[jumped], out=to), out=kick, mode="clip")
                else:
                    twice.take(jumped, axis=0, out=kick, mode="clip")
                    kick *= pump[go]
                psi[jumped] = np.divide(kick, np.sqrt(norm[jumped])[:, None], out=kick)
                kept, held = image[:len(stay)], twice[:len(stay)]
                twice.take(stay, axis=0, out=kept, mode="clip")
                kept *= shrink[stay]
                kept += psi.take(stay, axis=0, out=held, mode="clip")
                kept /= np.sqrt(np.square(kept, out=held).sum(axis=1))[:, None]
                psi[stay] = kept
        out[:, first - rows.start:][:, :size] = energy.reshape(n_theta, size, -1)
    return out


# ---------------------------------------------------------------------
# runs, parallel fan-out, engine comparison
# ---------------------------------------------------------------------

def _fan_out(energies, lattice, params, workers):
    """``energies(lattice, params, rows)`` over the run's trajectories, split
    in equal contiguous ranges over up to ``workers`` processes, at most one
    per :data:`BLOCK` trajectories, each a forked child that fills its rows of
    one shared map; the parent computes none, reaps all, and raises a failed
    child's message as ``RuntimeError``.  Serial where ``os.fork`` is missing
    or fails.  ``CapExceededError`` if a draw counter would reach 2^63."""
    n = params.n_trajectories
    counters = 3 * (params.n_steps + 1) * (lattice.n_plaquettes + lattice.n_stars) * n
    if counters >= 1 << 63:
        raise CapExceededError(f"a run needs {counters} draw counters, capped at 2^63")
    chunks = min(workers, -(-n // BLOCK))
    if chunks < 2:
        return energies(lattice, params, range(n))
    import mmap
    chunks = [range(n * k // chunks, n * (k + 1) // chunks) for k in range(chunks)]
    shape, pids = (len(params.thetas), n, params.n_steps + 1), []
    shared = mmap.mmap(-1, 8 * math.prod(shape) + 1024 * len(chunks))
    out = np.ndarray(shape, buffer=shared)
    notes = np.ndarray(len(chunks), "S1024", shared, out.nbytes)  # each child's error
    try:
        for k, rows in enumerate(chunks):
            pids.append(os.fork())
            if not pids[-1]:  # the child fills its rows and never returns
                try:
                    out[:, rows.start:rows.stop] = energies(lattice, params, rows)
                    os._exit(0)
                except BaseException as exc:
                    notes[k] = f"{type(exc).__name__}: {exc}".encode()  # cut to 1024 bytes
                finally:
                    os._exit(1)
    except (AttributeError, OSError) as exc:  # no os.fork, or no process to be had
        print(f"[rydsim] process pool unavailable ({exc}); running serially", file=sys.stderr)
        for rows in chunks[len(pids):]:
            out[:, rows.start:rows.stop] = energies(lattice, params, rows)
    finally:
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for note, status in zip(notes, statuses):
        if status:
            raise RuntimeError("a worker failed: " + (note.decode(errors="replace") or
                               f"exit status {os.waitstatus_to_exitcode(status)}"))
    return out


def syndrome_mc_run(lattice: ToricLattice, params: CoolingParams, workers: int = 1) -> list[Trace]:
    """Mean energy trace of the classical syndrome Monte Carlo at each of
    ``params.thetas``, all swept on one set of draws in one fan-out."""
    energies = _fan_out(_mc_energies, lattice, params, workers)
    return [Trace(e, theta, "syndrome") for e, theta in zip(energies, params.thetas)]


def trajectory_run(lattice: ToricLattice, params: CoolingParams, workers: int = 1) -> list[Trace]:
    """Mean energy trace of the quantum trajectories at each of
    ``params.thetas``, from one fan-out.

    Each cycle applies its two-outcome map on the 2^n_edges system register
    (oracle: the circuit-level :func:`cooling_cycle_trajectory`), which must
    fit :data:`TRAJECTORY_QUBIT_CAP` (up to the 3x2 torus), from the
    eigenstate of its sampled start syndromes (:func:`state_from_config`).
    Per block, the live (theta, row) states advance together, each row in
    its visit order; only rows with P- psi != 0 apply K0 or K1.  A row in the
    ground sector, a fixed point of every later cycle, leaves with its
    energy: at once if its start syndromes are all +1, else after a sweep in
    which it acted nowhere.  A block with no live row stops.  A block holds
    four (thetas * rows, 2^n_edges) float64 buffers; a full block at two
    thetas peaks at 1.5 MB on the 2x2 torus and 21 MB on 3x2 (tracemalloc).
    """
    if lattice.n_edges > TRAJECTORY_QUBIT_CAP:
        raise CapExceededError(f"trajectory engine needs {lattice.n_edges} qubits, "
                               f"cap is {TRAJECTORY_QUBIT_CAP}")
    energies = _fan_out(_trajectory_energies, lattice, params, workers)
    return [Trace(e, theta, "trajectory") for e, theta in zip(energies, params.thetas)]


def equivalence_check(lattice: ToricLattice, params: CoolingParams,
                      workers: int = 1) -> list[EquivalenceReport]:
    """Certify the syndrome Monte Carlo against the quantum trajectories,
    one report per theta: :func:`syndrome_mc_run` and :func:`trajectory_run`
    on the same ``params``.

    The engines read the same draws and flip by one rule, and a
    syndrome-definite state stays so, so each trajectory's energy at each
    step must be the Monte Carlo's: a report passes iff none differs by more
    than :data:`MAX_ABS_DELTA`.  Only rounding separates them.
    """
    # the trajectory engine runs first: its cap fails the check before any MC work
    trajectories = trajectory_run(lattice, params, workers)
    return [EquivalenceReport(mc, qt)
            for mc, qt in zip(syndrome_mc_run(lattice, params, workers), trajectories)]


def lindblad_reference_trace(theta: float, n_steps: int, q_init: float = 0.5) -> Trace:
    """Master-equation trace for the single-plaquette reference system.

    Four spins, one jump operator (pump on the first plaquette edge), rate
    sin^2(theta/2) per unit time so the small-theta limit matches one
    cooling sweep per time unit.  The excited population decays as
    exp(-gamma t) in closed form.
    """
    a_p = PauliString.from_label("XXXX")
    jump = jump_operator(a_p, PauliString.single(4, 0, "Z"))
    h_local = OperatorSum.from_string(a_p, -1.0)
    a, one = a_p.to_matrix(), np.eye(16)  # q_init P- / 8 + (1 - q_init) P+ / 8
    rho0 = DensityMatrix((q_init * (one - a) + (1.0 - q_init) * (one + a)) / 16.0, copy=False)
    states = [rho0, *lindblad_integrate([jump], flip_probability(theta), rho0, 1.0, n_steps)]
    return Trace(density_energies(states, h_local)[None], theta, "lindblad")
