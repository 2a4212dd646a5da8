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


def eigenstate(lattice, config):
    """The state of one row of syndromes ``config``: a one-row block of
    ``state_from_config``."""
    from rydsim.cooling import state_from_config
    from rydsim.statevec import StateVector

    return StateVector(state_from_config(lattice, np.asarray(config)[None])[0], copy=False)


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


MASK64 = (1 << 64) - 1


def splitmix64(state: int, counter: int) -> int:
    """SplitMix64's output at ``counter`` (0 is the first) from ``state``:
    the mix of state + (counter + 1) * 0x9E3779B97F4A7C15, all mod 2^64
    (Steele, Lea & Flood, OOPSLA 2014)."""
    z = (state + (counter + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def cooling_draw(lattice, seed, trajectories, trajectory, sweep, kind, cell, lane):
    """The uniform in [0, 1) a cooling run reads: the top 53 bits of
    SplitMix64's output from state ``seed`` at counter ((sweep * cells +
    offset) * trajectories + trajectory * count + cell) * 3 + lane, for
    ``kind`` 0 (plaquettes, offset 0) or 1 (stars, after the plaquettes).
    Lanes: 0 a visit time, 1 a flip uniform, 2 an edge pick; at sweep 0, 0
    a start uniform and 1, at cell 0, the kind's parity-repair pick."""
    cells = lattice.n_plaquettes + lattice.n_stars
    offset, count = ((0, lattice.n_plaquettes) if kind == 0
                     else (lattice.n_plaquettes, lattice.n_stars))
    counter = ((sweep * cells + offset) * trajectories + trajectory * count + cell) * 3 + lane
    return (splitmix64(seed, counter) >> 11) * 2.0**-53


def _cooling_kinds(lattice):
    """Per kind, plaquettes then stars: its cells' edges and each edge's two cells."""
    return [(np.asarray(cells, dtype=np.int64), edge_cells(cells))
            for cells in (lattice.plaquettes, lattice.stars)]


def start_syndromes(lattice, params, trajectory, clock=None):
    """One kind's +-1 start syndromes after the other, as int8: each excited
    iff its start uniform is below q_init, then, if the kind's product is
    -1, the syndrome at floor(u * count) flipped, u the kind's pick uniform.
    ``clock``, if given, maps each lane-0 uniform to the one used."""
    clock = clock or (lambda t: t)
    rows = []
    for kind, (cells, _) in enumerate(_cooling_kinds(lattice)):
        def draw(cell, lane):
            return cooling_draw(lattice, params.seed, params.n_trajectories, trajectory, 0,
                                kind, cell, lane)
        bits = [-1 if clock(draw(c, 0)) < params.q_init else 1 for c in range(len(cells))]
        if bits.count(-1) % 2:
            bits[int(draw(0, 1) * len(cells))] *= -1
        rows += bits
    return np.array(rows, dtype=np.int8)


def sweep_draws(lattice, seed, trajectories, trajectory, sweep, kind, clock=None):
    """One kind's draws for a trajectory at a sweep, one per cell: the cells
    in :func:`visit_order` of their times (``clock``, if given, maps the
    times to the ones used), and each cell's flip uniform and edge pick."""
    count = lattice.n_plaquettes if kind == 0 else lattice.n_stars
    times, u, pick = ([cooling_draw(lattice, seed, trajectories, trajectory, sweep, kind, c, lane)
                       for c in range(count)] for lane in range(3))
    times = np.array(times if clock is None else [clock(t) for t in times])
    return visit_order(times), u, [int(4.0 * p) for p in pick]


def syndrome_mc_reference(lattice, params, indices, clock=None):
    """Per-trajectory energies of the syndrome Monte Carlo, one scalar cell
    visit at a time, every draw from :func:`cooling_draw`: a trajectory's
    :func:`start_syndromes`, then per sweep and kind its
    :func:`sweep_draws`.  A visit to a cell reading -1 with u < p_flip flips
    its picked edge, toggling both cells of it.  ``clock``, if given, maps
    each lane-0 uniform to the one used, so that a test can make them tie."""
    (theta,) = params.thetas
    prob = math.sin(theta / 2.0) ** 2
    kinds = _cooling_kinds(lattice)
    out = np.empty((len(indices), params.n_steps + 1))
    for row, k in enumerate(indices):
        bits = start_syndromes(lattice, params, int(k), clock)
        parts = np.split(bits, [lattice.n_plaquettes])  # views: a kind's syndromes
        out[row, 0] = -bits.sum()
        for step in range(1, params.n_steps + 1):
            for kind, (part, (cells, holders)) in enumerate(zip(parts, kinds)):
                order, u, pick = sweep_draws(lattice, params.seed, params.n_trajectories,
                                             int(k), step, kind, clock)
                for cell in order:
                    if part[cell] < 0 and u[cell] < prob:
                        for end in holders[cells[cell, pick[cell]]]:
                            part[end] = -part[end]
            out[row, step] = -bits.sum()
    return out


def sweep_loop_reference(lattice, bits, prob, seed, trajectories, sweep, first):
    """Sweep ``sweep`` of the (rows, cells) int8 ``bits`` of trajectories
    ``first`` on (plaquette columns, then star columns), each row one cell
    visit at a time in the order of its :func:`sweep_draws`: a visit flips
    its cell's picked edge iff the cell reads -1 then and its u < prob,
    toggling both cells of that edge."""
    offsets = (0, lattice.n_plaquettes)
    for row, syndromes in enumerate(bits):
        for kind, (offset, (cells, holders)) in enumerate(zip(offsets, _cooling_kinds(lattice))):
            part = syndromes[offset:offset + len(cells)]
            order, u, pick = sweep_draws(lattice, seed, trajectories, first + row, sweep, kind)
            for cell in order:
                if part[cell] < 0 and u[cell] < prob:
                    for end in holders[cells[cell, pick[cell]]]:
                        part[end] = -part[end]


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


def trajectory_energies_reference(lattice, params, indices):
    """Per-trajectory energies of the circuit-level quantum trajectories.

    The register holds the system plus one ancilla (the top qubit), and
    every cycle is one ``cooling_cycle_trajectory`` call.  Trajectory k
    starts in the eigenstate of its :func:`start_syndromes`; per sweep and
    kind of cell, plaquettes then stars, it visits the cells in the order of
    its :func:`sweep_draws`, and the cycle at cell c reads c's pick and
    uniform u through a :class:`ScriptedRng`.  The cycle's measurement reads
    the ancilla 0 iff its uniform is below that outcome's probability, so the
    script hands it 1 - u, and the ancilla reads 1 (a flip) iff u < p_flip,
    up to ties.
    """
    from rydsim.cooling import cooling_cycle_trajectory
    from rydsim.models import build_toric
    from rydsim.pauli import OperatorSum, PauliString

    (theta,) = params.thetas
    n = lattice.n_edges + 1
    h = OperatorSum([(c, PauliString(n, s.x_mask, s.z_mask, s.phase_exp))
                     for c, s in build_toric(lattice.lx, lattice.ly)[0]], n)
    sweep = ((lattice.plaquettes, "plaquette"), (lattice.stars, "star"))
    out = []
    for k in indices:
        state = with_ancilla(eigenstate(lattice, start_syndromes(lattice, params, int(k))))
        energies = [state.expectation(h)]
        for step in range(1, params.n_steps + 1):
            for kind, (cells, name) in enumerate(sweep):
                order, u, pick = sweep_draws(lattice, params.seed, params.n_trajectories,
                                             int(k), step, kind)
                for c in order:
                    cooling_cycle_trajectory(state, cells[c], theta,
                                             ScriptedRng(pick[c], 1.0 - u[c]), kind=name)
            energies.append(state.expectation(h))
        out.append(energies)
    return np.array(out)
