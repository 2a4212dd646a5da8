"""Builders for the target lattice models.

* Toric code on an Lx x Ly torus: qubits on edges, X-type plaquette
  operators on faces and Z-type star operators on vertices, all mutually
  commuting.
* Heisenberg model on an arbitrary simple graph.
* Fermi-Hubbard model, both as the direct Jordan-Wigner spin image (snake
  site enumeration; horizontal bonds 2-local, vertical bonds carry strings)
  and in the auxiliary-fermion local form that trades the strings for
  at-most-six-body terms (Verstraete-Cirac construction).  The local form
  is the direct encoding on a doubled chain: direct mode m is chain mode
  2m and its auxiliary partner 2m + 1.

Site enumeration lives here: fermionic modes are numbered along the snake,
and :mod:`rydsim.fock` reuses the same numbering so spectra compare sector
by sector.  Jordan-Wigner site indices are 1-based (mode m occupies qubit
m-1); qubit indices everywhere else are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedGeometryError
from .pauli import (OperatorSum, PauliString, commutes, jw_annihilator, jw_creator, jw_number,
                    to_matrices)
from .statevec import StateVector


def snake_ordering(lx: int, ly: int) -> list[tuple[int, int]]:
    """Boustrophedon site enumeration: row 0 left to right, row 1 reversed...

    Horizontal neighbours are adjacent in the ordering on every row, so
    their Jordan-Wigner strings cancel.
    """
    if lx < 1 or ly < 1:
        raise ValueError("lattice dimensions must be positive")
    sites = []
    for y in range(ly):
        xs = range(lx) if y % 2 == 0 else range(lx - 1, -1, -1)
        sites.extend((x, y) for x in xs)
    return sites


@lru_cache(maxsize=64)
def _snake_positions(lx: int, ly: int) -> dict:
    return {xy: k for k, xy in enumerate(snake_ordering(lx, ly))}


# ---------------------------------------------------------------------
# toric code
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class ToricLattice:
    """Lx x Ly torus with qubits on the 2*Lx*Ly edges.

    Horizontal edge (x, y) points right from vertex (x, y) and has index
    y*Lx + x; vertical edge (x, y) points up and follows in a second block.
    Plaquette (x, y) is the face with lower-left vertex (x, y); star (x, y)
    is the vertex itself.  Every edge belongs to exactly two plaquettes and
    two stars.  The lattice stores the cells' edges only; the cooling
    engines derive from them which cells share an edge.
    """

    lx: int
    ly: int
    plaquettes: tuple[tuple[int, int, int, int], ...]
    stars: tuple[tuple[int, int, int, int], ...]

    @property
    def n_edges(self) -> int:
        return 2 * self.lx * self.ly

    @property
    def n_plaquettes(self) -> int:
        return self.lx * self.ly

    @property
    def n_stars(self) -> int:
        return self.lx * self.ly

    @classmethod
    def build(cls, lx: int, ly: int) -> "ToricLattice":
        if lx < 2 or ly < 2:
            raise UnsupportedGeometryError(
                "torus needs lx, ly >= 2 (smaller wraps duplicate edges)"
            )

        def h_edge(x, y):
            return (y % ly) * lx + (x % lx)

        def v_edge(x, y):
            return lx * ly + (y % ly) * lx + (x % lx)

        sites = [(x, y) for y in range(ly) for x in range(lx)]
        plaquettes = tuple((h_edge(x, y), h_edge(x, y + 1), v_edge(x, y), v_edge(x + 1, y))
                           for x, y in sites)
        stars = tuple((h_edge(x, y), h_edge(x - 1, y), v_edge(x, y), v_edge(x, y - 1))
                      for x, y in sites)
        return cls(lx, ly, plaquettes, stars)

    def plaquette_string(self, p: int) -> PauliString:
        return PauliString.from_sites(self.n_edges, {e: "X" for e in self.plaquettes[p]})

    def star_string(self, s: int) -> PauliString:
        return PauliString.from_sites(self.n_edges, {e: "Z" for e in self.stars[s]})


def build_toric(lx: int, ly: int):
    """Toric Hamiltonian -(sum A_p + sum B_s) and its lattice, in units of
    the stabilizer coupling E0 = 1.

    All terms commute pairwise; the stabilizer products over the torus are
    identities, leaving 2*Lx*Ly - 2 independent stabilizers and a four-fold
    degenerate ground space at energy -2*Lx*Ly.
    """
    lattice = ToricLattice.build(lx, ly)
    n = lattice.n_edges
    terms = [(-1.0, lattice.plaquette_string(p)) for p in range(lattice.n_plaquettes)]
    terms += [(-1.0, lattice.star_string(s)) for s in range(lattice.n_stars)]
    return OperatorSum(terms, n).normalized(), lattice


def toric_ground_state(lattice: ToricLattice) -> StateVector:
    """One toric ground state: project |0...0> onto all A_p = +1 sectors."""
    state = StateVector.zero_state(lattice.n_edges)
    for p in range(lattice.n_plaquettes):
        image = state.copy().apply_string(lattice.plaquette_string(p))
        state.amps = 0.5 * (state.amps + image.amps)
    return state.normalize()


# ---------------------------------------------------------------------
# Heisenberg model
# ---------------------------------------------------------------------

def build_heisenberg(adjacency, jx: float, jy: float, jz: float, h: float,
                     n_qubits: int | None = None) -> OperatorSum:
    """-1/2 sum_<ij> (Jx XX + Jy YY + Jz ZZ) + h sum_i Z_i."""
    edges = [tuple(e) for e in adjacency]
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop on site {i}")
    if n_qubits is None:
        n_qubits = max((max(e) for e in edges), default=-1) + 1
    terms = [(-0.5 * coupling, PauliString.from_sites(n_qubits, {i: letter, j: letter}))
             for i, j in edges for coupling, letter in ((jx, "X"), (jy, "Y"), (jz, "Z"))
             if coupling != 0.0]
    if h != 0.0:
        terms += [(h, PauliString.single(n_qubits, i, "Z")) for i in range(n_qubits)]
    return OperatorSum(terms, n_qubits).normalized()


def _grid_bonds(lx: int, ly: int) -> list:
    """Bonds of the open lx x ly grid as ``((x, y), neighbour, kind)``, row
    by row: the right neighbour (kind "h"), then the upper one ("v")."""
    return [((x, y), nb, kind) for y in range(ly) for x in range(lx)
            for nb, kind in (((x + 1, y), "h"), ((x, y + 1), "v"))
            if nb[0] < lx and nb[1] < ly]


def grid_adjacency(lx: int, ly: int) -> list[tuple[int, int]]:
    """Open-boundary square grid, sites numbered along the snake."""
    pos = _snake_positions(lx, ly)
    return sorted({tuple(sorted((pos[a], pos[b]))) for a, b, _ in _grid_bonds(lx, ly)})


# ---------------------------------------------------------------------
# Fermi-Hubbard model
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class HubbardSpec:
    """Single-band Hubbard model on an open Lx x Ly grid.

    ``v_aux`` only enters the auxiliary-fermion local construction, where
    it sets the energy of the stabilized sector.  The on-site energy ``u``
    pairs the two spins of a site, so a spinless lattice must leave it 0.
    """

    lx: int
    ly: int
    t_hop: float = 1.0
    u: float = 0.0
    v_aux: float = 1.0
    spinful: bool = False

    def __post_init__(self):
        if self.lx < 1 or self.ly < 1:
            raise ValueError("lattice dimensions must be positive")
        if self.u != 0.0 and not self.spinful:
            raise ValueError(f"on-site energy u = {self.u} needs a spinful lattice")

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    @property
    def n_modes(self) -> int:
        return self.n_sites * (2 if self.spinful else 1)

    @property
    def spins(self) -> tuple:
        return ("up", "down") if self.spinful else (None,)


def hubbard_mode(spec: HubbardSpec, x: int, y: int, spin=None) -> int:
    """0-based fermionic mode index of a site in the direct encoding.

    Each spin species gets its own contiguous snake-ordered block, so the
    hopping strings of one species never leave its block.
    """
    pos = _snake_positions(spec.lx, spec.ly)[(x, y)]
    return pos + (spec.n_sites if spec.spinful and spin != "up" else 0)


def hubbard_bonds(spec: HubbardSpec):
    """Hopping bonds as mode pairs plus on-site interaction mode pairs.

    Returns ``(hops, pairs)`` where hops is a list of
    ``(mode_a, mode_b, kind)`` with kind "h"/"v" and pairs lists the
    (up, down) mode tuples carrying the U term.
    """
    hops = [(hubbard_mode(spec, *a, spin), hubbard_mode(spec, *b, spin), kind)
            for spin in spec.spins for a, b, kind in _grid_bonds(spec.lx, spec.ly)]
    pairs = [(hubbard_mode(spec, x, y, "up"), hubbard_mode(spec, x, y, "down"))
             for y in range(spec.ly) for x in range(spec.lx)] if spec.spinful else []
    return hops, pairs


def _sum_pieces(pieces, n: int) -> OperatorSum:
    """Sum of normalized pieces, normalized once (linear in the term count)."""
    return OperatorSum([t for piece in pieces for t in piece], n).normalized()


def _hubbard_pieces(spec: HubbardSpec, n: int, stride: int, arrows: dict) -> list:
    """Hopping and on-site pieces with direct mode m on chain mode stride*m
    (Jordan-Wigner site stride*m + 1), in the order of :func:`hubbard_bonds`;
    a vertical hop whose lower mode has an arrow operator is multiplied by it."""
    hops, pairs = hubbard_bonds(spec)
    pieces = []
    for a, b, kind in hops:
        hop = jw_creator(stride * a + 1, n) @ jw_annihilator(stride * b + 1, n)
        image = hop + hop.adjoint()  # c^dag_a c_b + c^dag_b c_a
        pieces.append((-spec.t_hop) * (image @ arrows[a] if kind == "v" and arrows else image))
    pieces += [spec.u * (jw_number(stride * up + 1, n) @ jw_number(stride * down + 1, n))
               for up, down in pairs]
    return pieces


def build_hubbard_jw(spec: HubbardSpec) -> OperatorSum:
    """Direct Jordan-Wigner image of the Hubbard Hamiltonian.

    Horizontal bonds are 2-local; vertical bonds carry a Z string across
    one snake row.  The spectrum equals the Fock-space spectrum exactly.
    """
    return _sum_pieces(_hubbard_pieces(spec, spec.n_modes, 1, {}), spec.n_modes)


# -- auxiliary-fermion local form --------------------------------------

def _check_vc_geometry(spec: HubbardSpec):
    if spec.lx < 2 or spec.ly < 2 or spec.lx % 2 or spec.ly % 2:
        raise UnsupportedGeometryError(
            "auxiliary-layer construction requires even lx, ly >= 2"
        )


def vc_n_qubits(spec: HubbardSpec) -> int:
    return 2 * spec.n_modes


def _arrows(spec: HubbardSpec) -> dict:
    """Arrow operator of each vertical bond, keyed by the direct mode of its
    lower site; spin blocks in turn, columns left to right, rows upward.

    An arrow pairs the auxiliary Majoranas of its bond's two sites, columns
    oriented alternately so each Majorana is used exactly once.
    """
    _check_vc_geometry(spec)
    n = vc_n_qubits(spec)
    arrows = {}
    for spin in spec.spins:
        for x in range(spec.lx):
            for y in range(spec.ly - 1):
                lower, upper = (hubbard_mode(spec, x, y + dy, spin) for dy in (0, 1))
                tail, head = (lower, upper) if x % 2 == 0 else (upper, lower)
                # auxiliary mode 2m + 1 is Jordan-Wigner site 2m + 2
                alpha = jw_annihilator(2 * tail + 2, n) + jw_creator(2 * tail + 2, n)
                beta = jw_annihilator(2 * head + 2, n) - jw_creator(2 * head + 2, n)
                arrows[lower] = alpha @ beta
    return arrows


def aux_stabilizers(spec: HubbardSpec) -> list[PauliString]:
    """The commuting +-1 operators whose joint +1 eigenspace carries the
    physical sector of the local encoding; one per vertical bond and spin."""
    return [arrow.single_string() for arrow in _arrows(spec).values()]


def aux_pair_count(spec: HubbardSpec) -> int:
    """Number of stabilizer pair terms in the auxiliary Hamiltonian."""
    _check_vc_geometry(spec)
    return (spec.lx // 2) * (spec.ly - 1) * len(spec.spins)


def build_aux_hamiltonian(spec: HubbardSpec) -> OperatorSum:
    """-V sum of products of stabilizers on horizontally adjacent columns.

    Every term is the product of two arrow operators, so it is a six-body
    spin operator; the all-+1 stabilizer sector is a ground sector with
    energy -V * aux_pair_count(spec).
    """
    arrows = _arrows(spec)
    pieces = [(-spec.v_aux) * (arrows[hubbard_mode(spec, x, y, spin)]
                               @ arrows[hubbard_mode(spec, x + 1, y, spin)])
              for spin in spec.spins for x in range(0, spec.lx - 1, 2)
              for y in range(spec.ly - 1)]
    return _sum_pieces(pieces, vc_n_qubits(spec))


def build_hubbard_local(spec: HubbardSpec) -> OperatorSum:
    """Hubbard Hamiltonian in the auxiliary-fermion local encoding.

    Vertical hoppings are multiplied by the arrow operator of their bond,
    which cancels the Jordan-Wigner strings; every term then acts on at
    most six qubits.  Restricted to the joint +1 eigenspace of
    :func:`aux_stabilizers`, the spectrum equals :func:`build_hubbard_jw`
    shifted by the constant -V * aux_pair_count(spec).
    """
    n = vc_n_qubits(spec)
    pieces = _hubbard_pieces(spec, n, 2, _arrows(spec))
    pieces.append(build_aux_hamiltonian(spec))
    return _sum_pieces(pieces, n)


def taper(h: OperatorSum, stabilizers, qubits) -> tuple[OperatorSum, list[PauliString]]:
    """``h`` on the joint +1 eigenspace of the commuting ``stabilizers`` (Bravyi et al.,
    arXiv:1701.08213), and the sigma that takes each one's place: the first X or Z on a
    candidate qubit that anticommutes with its stabilizer S alone, earlier sigmas included.
    (sigma + S)/sqrt(2) maps a term P to sigma S P if P anticommutes with sigma, else to P;
    sigma then reads +1, and its qubit leaves the masks, the others keeping their order.
    """
    n, terms, sigmas = h.n_qubits, h.normalized().terms, []
    for s in stabilizers:
        if not all(commutes(s, p) for p in [*stabilizers, *(p for _, p in terms)]):
            raise ValueError(f"stabilizer {s} anticommutes with another or with a term")
        fits = [c for q in qubits for a in "XZ" for c in [PauliString.single(n, q, a)]
                if [t for t in [*stabilizers, *sigmas] if not commutes(c, t)] == [s]]
        if not fits:
            raise ValueError(f"no X or Z on a candidate qubit anticommutes with {s} alone")
        sigmas.append(fits[0])
        terms = [(c, p if commutes(fits[0], p) else fits[0] * s * p) for c, p in terms]
    kept = sorted(set(range(n)).difference(t.support()[0] for t in sigmas))
    return OperatorSum([(c * p.phase, PauliString.from_label("".join(p.letter(q) for q in kept)))
                        for c, p in terms], len(kept)).normalized(), sigmas


def constrained_local_spectrum(spec: HubbardSpec) -> np.ndarray:
    """Spectrum of the local encoding inside the all-+1 stabilizer sector.

    Sorted eigenvalues; each direct-encoding eigenvalue appears with
    multiplicity 2**(n_aux_modes - n_stabilizers), shifted by the constant
    -V * aux_pair_count(spec).  The sector is :func:`taper`'s on the auxiliary qubits,
    diagonalized by direct-mode number block, each realized alone by
    :func:`~rydsim.pauli.to_matrices`; at most 12 qubits once tapered.
    """
    n = vc_n_qubits(spec)
    h, sigmas = taper(build_hubbard_local(spec), aux_stabilizers(spec), range(1, n, 2))
    kept = sorted(set(range(n)).difference(s.support()[0] for s in sigmas))
    number = sum((np.arange(1 << len(kept)) >> k) & 1 for k, q in enumerate(kept) if q % 2 == 0)
    return np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in to_matrices(
        h, [np.flatnonzero(number == k) for k in range(spec.n_modes + 1)])]))
