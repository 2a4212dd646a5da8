"""Exact-diagonalization oracle for the Hubbard model in the Fock basis.

This path is independent of the Pauli machinery: matrix elements are
generated directly from occupation bitmasks with explicit fermionic sign
bookkeeping, and certify every spin-encoded construction.  Mode numbering
follows :func:`rydsim.models.hubbard_mode` exactly, so spectra compare
sector by sector rather than only as multisets.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .models import HubbardSpec, hubbard_bonds

#: dense Fock matrices are capped at this many modes (4096-dimensional)
MODE_CAP = 12


class FockBasis:
    """Occupation-bitmask enumeration of the 2^M Fock states of M modes."""

    def __init__(self, n_modes: int):
        if n_modes < 1:
            raise ValueError("need at least one mode")
        if n_modes > MODE_CAP:
            raise CapExceededError(f"Fock basis capped at {MODE_CAP} modes")
        self.n_modes = n_modes
        self.dim = 1 << n_modes

    def popcounts(self, mode_mask: int | None = None) -> np.ndarray:
        """Occupation count of every basis state, optionally masked."""
        if mode_mask is None:
            mode_mask = (1 << self.n_modes) - 1
        states = np.arange(self.dim, dtype=np.int64) & mode_mask
        counts = np.zeros(self.dim, dtype=np.int64)
        for m in range(self.n_modes):
            counts += (states >> m) & 1
        return counts


def _sign_below(state: int, mode: int) -> int:
    """(-1)**(number of occupied modes strictly below `mode`)."""
    return -1 if (state & ((1 << mode) - 1)).bit_count() % 2 else 1


def hubbard_matrix(spec: HubbardSpec) -> np.ndarray:
    """Dense Hubbard Hamiltonian in the Fock basis (real symmetric)."""
    basis = FockBasis(spec.n_modes)
    hops, pairs = hubbard_bonds(spec)
    h = np.zeros((basis.dim, basis.dim))
    t = spec.t_hop
    for a, b, _ in hops:
        bit_a, bit_b = 1 << a, 1 << b
        for s in range(basis.dim):
            # c^dag_a c_b |s>, plus Hermitian conjugate
            if (s & bit_b) and not (s & bit_a):
                s1 = s & ~bit_b
                amp = -t * _sign_below(s, b) * _sign_below(s1, a)
                target = s1 | bit_a
                h[target, s] += amp
                h[s, target] += amp
    if pairs:
        diag = np.zeros(basis.dim)
        states = np.arange(basis.dim, dtype=np.int64)
        for up, down in pairs:
            both = ((states >> up) & 1) * ((states >> down) & 1)
            diag += spec.u * both
        h[np.diag_indices_from(h)] += diag
    return h


def spectrum(
    spec: HubbardSpec,
    n_particles: int | None = None,
    n_up: int | None = None,
    n_down: int | None = None,
    matrix: np.ndarray | None = None,
) -> np.ndarray:
    """Sorted eigenvalues, optionally restricted to a symmetry sector.

    Sector restriction works because hopping and interaction conserve the
    particle number of each species, so the Hamiltonian is block diagonal
    over occupation counts.
    """
    if matrix is None:
        matrix = hubbard_matrix(spec)
    basis = FockBasis(spec.n_modes)
    keep = np.ones(basis.dim, dtype=bool)
    if n_particles is not None:
        keep &= basis.popcounts() == n_particles
    if n_up is not None or n_down is not None:
        if not spec.spinful:
            raise ValueError("spin sectors require a spinful spec")
        up_mask = (1 << spec.n_sites) - 1
        if n_up is not None:
            keep &= basis.popcounts(up_mask) == n_up
        if n_down is not None:
            keep &= basis.popcounts(((1 << spec.n_modes) - 1) ^ up_mask) == n_down
    idx = np.flatnonzero(keep)
    block = matrix[np.ix_(idx, idx)]
    return np.sort(np.linalg.eigvalsh(block))
