"""Test-local matrix oracles, independent of the package internals.

The builders here construct dense operators directly from Kronecker
products so that package code paths are always checked against a second,
trivially-auditable realization.  Convention: a label like "IXYZ" reads
left to right as qubit 0, 1, 2, ...; the matrix therefore kron-multiplies
the letters right to left (qubit 0 is the least significant index bit).
"""

import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli word (leftmost letter = qubit 0)."""
    mat = np.array([[1.0 + 0j]])
    for letter in reversed(label):
        mat = np.kron(mat, PAULI[letter])
    return mat


def sum_matrix(terms, n_qubits: int) -> np.ndarray:
    """Dense matrix of a list of (coeff, label) pairs."""
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    for coeff, label in terms:
        assert len(label) == n_qubits
        mat += coeff * label_matrix(label)
    return mat


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def propagator(h, t: float) -> np.ndarray:
    """exp(-i H t) of an operator sum ``h``, from its dense matrix."""
    return expm_hermitian(h.to_matrix(), -1j * t)


def circuit_matrix(circuit) -> np.ndarray:
    """Dense unitary of a circuit: ``trotter.run`` on each basis state.

    This densifies the path under test, so it checks gate compilation and
    dispatch only against an independent unitary such as :func:`propagator`.
    """
    from rydsim.statevec import StateVector
    from rydsim.trotter import run

    dim = 1 << circuit.n_qubits
    mat = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        mat[:, col] = run(circuit, StateVector.basis_state(circuit.n_qubits, col)).amps
    return mat


def rk4_propagate(h_of_t, psi0: np.ndarray, t_final: float, n_steps: int) -> np.ndarray:
    """psi(t_final) of i dpsi/dt = H(t) psi by fixed-step classic Runge-Kutta
    (nominal order 4), a cross-check of the adaptive pulse integrator."""
    psi = psi0.astype(complex)
    dt = t_final / n_steps

    def f(t, y):
        return -1j * (h_of_t(t) @ y)

    t = 0.0
    for _ in range(n_steps):
        k1 = f(t, psi)
        k2 = f(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = f(t + dt, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return psi


def pulse_reference(profile, v: float) -> np.ndarray:
    """Amplitudes on (|+>, |R>) at the end of ``profile`` from |+>, at
    blockade shift ``v``: i dpsi/dt = heff(x(t)) psi by scipy's DOP853 at
    rtol 1e-12, the independent oracle of the Magnus pulse propagator."""
    from scipy.integrate import solve_ivp

    from rydsim.pulse import heff

    def rhs(t, y):
        return -1j * (heff(profile.x(t), v, profile.omega_c, profile.delta) @ y)

    sol = solve_ivp(rhs, (0.0, profile.duration), np.array([1.0, 0.0], dtype=complex),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1]


def lindblad_reference(cs, gamma: float, rho0: np.ndarray, t: float) -> np.ndarray:
    """rho(t) of d rho/dt = gamma sum_c (c rho c+ - {c+c, rho}/2) from the
    dense jump matrices ``cs``, by scipy's DOP853 at rtol 1e-12: the
    independent oracle of the series Lindblad exponential."""
    from scipy.integrate import solve_ivp

    dim = rho0.shape[0]
    anti = sum(c.conj().T @ c for c in cs)

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        drho = sum(c @ rho @ c.conj().T for c in cs) - 0.5 * (anti @ rho + rho @ anti)
        return gamma * drho.ravel()

    sol = solve_ivp(rhs, (0.0, t), rho0.astype(complex).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14)
    assert sol.success, sol.message
    return sol.y[:, -1].reshape(dim, dim)


def with_ancilla(state):
    """``state`` with one more, top qubit in |0>: the register of the
    circuit-level cooling cycle, whose ancilla is the top qubit."""
    from rydsim.statevec import StateVector

    return StateVector(np.concatenate([state.amps, np.zeros_like(state.amps)]), copy=False)


def random_label(rng, n_qubits: int) -> str:
    return "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))


def edge_cells(cells) -> np.ndarray:
    """(edges, 2) int64: the two cells holding each edge, in cell order,
    from one loop over the cells' edge lists."""
    holders = {}
    for c, edges in enumerate(cells):
        for e in edges:
            holders.setdefault(e, []).append(c)
    return np.array([holders[e] for e in range(len(holders))], dtype=np.int64)


def visit_order(times) -> np.ndarray:
    """Each row's cells in the order a sweep visits them: by increasing
    visit time, a tie going to the lower cell."""
    times = np.asarray(times)
    cells = np.broadcast_to(np.arange(times.shape[-1]), times.shape)
    return np.lexsort((cells, times), axis=-1)


def syndrome_mc_reference(lattice, params, indices, tag=0, clock=None):
    """Per-trajectory energies of the syndrome Monte Carlo, one scalar cell
    visit at a time; trajectory k draws from stream ``(tag, k)``.  Per sweep
    and kind of cell it draws a visit time and a flip uniform per cell (one
    ``(2, cells)`` draw), then an edge pick per cell.  ``clock``, if given,
    maps the drawn times to the ones used, so that a test can make them tie."""
    p_edges = np.asarray(lattice.plaquettes, dtype=np.int64)
    edge_pl = edge_cells(lattice.plaquettes)
    s_edges = np.asarray(lattice.stars, dtype=np.int64)
    edge_st = edge_cells(lattice.stars)
    (theta,) = params.thetas
    prob = math.sin(theta / 2.0) ** 2

    def sample(rng, count):
        bits = np.where(rng.random(count) < params.q_init, -1, 1).astype(np.int8)
        if int(np.prod(bits)) == -1:
            k = rng.integers(count)
            bits[k] = -bits[k]
        return bits

    def sweep(pbits, sbits, rng):
        for bits, cells, edge_cells in ((pbits, p_edges, edge_pl), (sbits, s_edges, edge_st)):
            count = len(bits)
            times, u = rng.random((2, count))
            pick = rng.integers(0, 4, count)
            for cell in visit_order(times if clock is None else clock(times)):
                if bits[cell] < 0 and u[cell] < prob:
                    e = cells[cell, pick[cell]]
                    a, b = edge_cells[e]
                    bits[a] = -bits[a]
                    bits[b] = -bits[b]

    out = np.empty((len(indices), params.n_steps + 1))
    for row, k in enumerate(indices):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=params.seed, spawn_key=(tag, int(k)))
        )
        pbits = sample(rng, lattice.n_plaquettes)
        sbits = sample(rng, lattice.n_stars)
        out[row, 0] = -(pbits.sum() + sbits.sum())
        for step in range(1, params.n_steps + 1):
            sweep(pbits, sbits, rng)
            out[row, step] = -(pbits.sum() + sbits.sum())
    return out


def sweep_loop_reference(lattice, bits, prob, rngs, sizes):
    """One Monte Carlo sweep of every row of the (rows, cells) int8 ``bits``
    (plaquette columns, then star columns), a block of ``sizes`` rows per
    generator, resolved one visit of the sweep at a time.

    Per block and kind the draws are a visit time and a flip uniform per
    (row, cell), one ``(2, rows, cells)`` draw, then an edge pick per (row,
    cell).  The k-th visit of a row (:func:`visit_order`) flips its cell's
    picked edge iff the cell reads -1 then and its u < prob, toggling both
    cells of that edge.
    """
    flat = bits.reshape(-1)
    base = np.arange(bits.shape[0]) * bits.shape[1]
    rows_at = np.arange(bits.shape[0])
    n_p = lattice.n_plaquettes
    for offset, cells in ((0, lattice.plaquettes), (n_p, lattice.stars)):
        count = len(cells)
        # both cells of a cell's pick-th edge, as columns of ``bits``
        ends = offset + edge_cells(cells)[np.asarray(cells)]
        draws = [(*rng.random((2, rows, count)), rng.integers(0, 4, (rows, count)))
                 for rng, rows in zip(rngs, sizes)]
        times, u, pick = (np.vstack(d) for d in zip(*draws))
        order = visit_order(times)
        for k in range(count):
            cell = order[:, k]
            hit = np.flatnonzero((flat[base + offset + cell] < 0) & (u[rows_at, cell] < prob))
            # rows are disjoint and an edge's two cells differ: no repeated index
            toggled = (base[hit, None] + ends[cell[hit], pick[hit, cell[hit]]]).ravel()
            flat[toggled] = -flat[toggled]


def syndrome_chain_exact(lattice, theta, q_init, steps):
    """Exact mean and variance of the syndrome Monte Carlo's energy (E0 = 1)
    at steps 0 to ``steps``, as two arrays.

    Plaquettes and stars are independent chains; a kind's configuration is
    an integer whose bit c is set while cell c is excited.  Its initial law
    is i.i.d. excitation with probability ``q_init``, then one uniformly
    chosen bit flipped when the count is odd.  A sweep visits the cells in
    uniformly random order, that is, each next cell uniformly among the
    unvisited ones, so its law is a dynamic program over (visited subset,
    configuration).  A visit to an excited cell flips, with probability
    sin^2(theta/2), one of its four edges picked uniformly, which toggles
    the cell and the edge's other holder.
    """
    prob = math.sin(theta / 2.0) ** 2
    mean, var = np.zeros(steps + 1), np.zeros(steps + 1)
    for cells in (lattice.plaquettes, lattice.stars):
        count, holders = len(cells), edge_cells(cells)
        configs = np.arange(1 << count)
        excited = (configs[:, None] >> np.arange(count)) & 1
        n_excited = excited.sum(axis=1)
        energy = 2.0 * n_excited - count
        iid = q_init ** n_excited * (1.0 - q_init) ** (count - n_excited)
        odd = np.where(n_excited % 2, iid, 0.0)
        law = iid - odd + sum(odd[configs ^ (1 << c)] for c in range(count)) / count
        masks = [[(1 << c) ^ (1 << int(sum(holders[e]) - c)) for e in cells[c]]
                 for c in range(count)]

        def visit(p, c):
            moved = p * (prob * excited[:, c])
            out = p - moved
            for mask in masks[c]:
                out[configs ^ mask] += moved / 4.0
            return out

        for step in range(steps + 1):
            mean[step] += law @ energy
            var[step] += law @ energy**2 - (law @ energy) ** 2
            at = np.zeros((1 << count, 1 << count))  # law after visiting a subset
            at[0] = law
            for visited in range((1 << count) - 1):  # every subset before its supersets
                left = [c for c in range(count) if not visited >> c & 1]
                for c in left:
                    at[visited | 1 << c] += visit(at[visited], c) / len(left)
            law = at[-1]
    return mean, var


class ScriptedRng:
    """Stands in for a Generator in one cooling cycle: its pump pick, then its
    readout uniform."""

    def __init__(self, pick, u):
        self.pick, self.u = pick, u

    def integers(self, high):
        return self.pick

    def random(self):
        return self.u


def trajectory_energies_reference(lattice, params, blocks):
    """Per-trajectory energies of the circuit-level quantum trajectories.

    The register holds the system plus one ancilla (the top qubit), and
    every cycle is one ``cooling_cycle_trajectory`` call.  Block b (64
    trajectories, the last block partial) draws on stream ``(0, b)`` for all
    its rows at once.  Per kind of cell, plaquettes then stars, a row's start
    syndromes are i.i.d. excited with probability q_init, then one uniformly
    chosen one is flipped if their product is -1.  Then per sweep and kind
    come the visit times and the readout uniforms, one (2, rows, cells)
    draw, and the pump picks, (rows, cells); a row visits its cells in
    :func:`visit_order`, and the cycle at cell c reads the row's pick and
    uniform u of c through a :class:`ScriptedRng`.  The cycle's measurement reads
    the ancilla 0 iff its uniform is below that outcome's probability, so the
    script hands it 1 - u, and the ancilla reads 1 (a flip) iff u < p_flip,
    up to ties.
    """
    from rydsim.cooling import cooling_cycle_trajectory, state_from_config
    from rydsim.models import build_toric
    from rydsim.pauli import OperatorSum, PauliString

    (theta,) = params.thetas
    n = lattice.n_edges + 1
    h = OperatorSum([(c, PauliString(n, s.x_mask, s.z_mask, s.phase_exp))
                     for c, s in build_toric(lattice.lx, lattice.ly)[0]], n)
    sweep = ((lattice.plaquettes, "plaquette"), (lattice.stars, "star"))
    out = []
    for b in blocks:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=params.seed, spawn_key=(0, int(b)))
        )
        rows, starts = min(64, params.n_trajectories - 64 * int(b)), []
        for cells, _ in sweep:
            bits = np.where(rng.random((rows, len(cells))) < params.q_init, -1, 1)
            odd = np.flatnonzero((bits < 0).sum(axis=1) % 2)
            bits[odd, rng.integers(len(cells), size=len(odd))] *= -1
            starts.append(bits)
        states = [with_ancilla(state_from_config(lattice, row)) for row in np.hstack(starts)]
        energies = [[state.expectation(h)] for state in states]
        for _ in range(params.n_steps):
            for cells, kind in sweep:
                count = len(cells)
                times, u = rng.random((2, rows, count))
                pick = rng.integers(0, 4, (rows, count))
                for r, state in enumerate(states):
                    for c in visit_order(times[r]):
                        cooling_cycle_trajectory(state, cells[c], theta,
                                                 ScriptedRng(pick[r, c], 1.0 - u[r, c]), kind=kind)
            for state, row in zip(states, energies):
                row.append(state.expectation(h))
        out += energies
    return np.array(out)
