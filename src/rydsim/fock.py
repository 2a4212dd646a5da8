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


def _dim(spec: HubbardSpec) -> int:
    """Dimension 2^M of the Fock basis of the spec's M modes, within the cap."""
    if spec.n_modes > MODE_CAP:
        raise CapExceededError(f"Fock basis capped at {MODE_CAP} modes")
    return 1 << spec.n_modes


def _sign_below(state: int, mode: int) -> int:
    """(-1)**(number of occupied modes strictly below `mode`)."""
    return -1 if (state & ((1 << mode) - 1)).bit_count() % 2 else 1


def hubbard_matrix(spec: HubbardSpec) -> np.ndarray:
    """Dense Hubbard Hamiltonian in the Fock basis (real symmetric)."""
    dim = _dim(spec)
    hops, pairs = hubbard_bonds(spec)
    h = np.zeros((dim, dim))
    t = spec.t_hop
    for a, b, _ in hops:
        bit_a, bit_b = 1 << a, 1 << b
        for s in range(dim):
            # c^dag_a c_b |s>, plus Hermitian conjugate
            if (s & bit_b) and not (s & bit_a):
                s1 = s & ~bit_b
                amp = -t * _sign_below(s, b) * _sign_below(s1, a)
                target = s1 | bit_a
                h[target, s] += amp
                h[s, target] += amp
    if pairs:
        diag = np.zeros(dim)
        states = np.arange(dim, dtype=np.int64)
        for up, down in pairs:
            both = ((states >> up) & 1) * ((states >> down) & 1)
            diag += spec.u * both
        h[np.diag_indices_from(h)] += diag
    return h


def sectors(spec: HubbardSpec) -> list[tuple[str, np.ndarray]]:
    """The Fock basis's number sectors as (label, ascending basis indices).

    Hopping and interaction conserve the particle number of each species,
    so the Hamiltonian is block diagonal over these sectors.  Spinless:
    label "N" for N = 0..n_modes.  Spinful: "<n_up>u<n_down>d", n_up outer
    and n_down inner, each 0..n_sites; the up modes are the low n_sites bits.
    """
    dim = _dim(spec)
    if not spec.spinful:
        counts = np.array([s.bit_count() for s in range(dim)])
        return [(str(n), np.flatnonzero(counts == n)) for n in range(spec.n_modes + 1)]
    n = spec.n_sites
    up = np.array([(s & ((1 << n) - 1)).bit_count() for s in range(dim)])
    down = np.array([(s >> n).bit_count() for s in range(dim)])
    return [(f"{n_up}u{n_down}d", np.flatnonzero((up == n_up) & (down == n_down)))
            for n_up in range(n + 1) for n_down in range(n + 1)]


def spectrum(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of the block of ``matrix`` on the basis ``indices``,
    one of :func:`sectors`."""
    return np.sort(np.linalg.eigvalsh(matrix[np.ix_(indices, indices)]))
