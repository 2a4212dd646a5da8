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


def random_label(rng, n_qubits: int) -> str:
    return "".join(rng.choice(list("IXYZ")) for _ in range(n_qubits))


def syndrome_mc_reference(lattice, params, indices, e0=1.0, tag=0):
    """Per-trajectory energies of the syndrome Monte Carlo, one scalar cell
    visit at a time; trajectory k draws from stream ``(tag, k)``."""
    p_edges = np.asarray(lattice.plaquettes, dtype=np.int64)
    edge_pl = np.asarray(lattice.edge_plaquettes, dtype=np.int64)
    s_edges = np.asarray(lattice.stars, dtype=np.int64)
    edge_st = np.asarray(lattice.edge_stars, dtype=np.int64)
    prob = math.sin(params.theta / 2.0) ** 2

    def sample(rng, count):
        bits = np.where(rng.random(count) < params.q_init, -1, 1).astype(np.int8)
        if int(np.prod(bits)) == -1:
            k = rng.integers(count)
            bits[k] = -bits[k]
        return bits

    def sweep(pbits, sbits, rng):
        for bits, cells, edge_cells in ((pbits, p_edges, edge_pl), (sbits, s_edges, edge_st)):
            count = len(bits)
            order = rng.permutation(count)
            u = rng.random(count)
            pick = rng.integers(0, 4, count)
            for k in range(count):
                cell = order[k]
                if bits[cell] < 0 and u[k] < prob:
                    e = cells[cell, pick[k]]
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
        out[row, 0] = -e0 * (pbits.sum() + sbits.sum())
        for step in range(1, params.n_steps + 1):
            sweep(pbits, sbits, rng)
            out[row, step] = -e0 * (pbits.sum() + sbits.sum())
    return out
