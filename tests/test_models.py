from collections import Counter

import numpy as np
import pytest

from rydsim.errors import UnsupportedGeometryError
from rydsim.models import (
    HubbardSpec,
    ToricLattice,
    aux_pair_count,
    aux_stabilizers,
    build_aux_hamiltonian,
    build_heisenberg,
    build_hubbard_jw,
    build_hubbard_local,
    build_toric,
    constrained_local_spectrum,
    grid_adjacency,
    hubbard_bonds,
    snake_ordering,
    taper,
    toric_ground_state,
    vc_n_qubits,
)
from rydsim.pauli import OperatorSum, PauliString, commutes, jw_number

from oracles import sum_matrix


# -- toric lattice and Hamiltonian ----------------------------------------

def test_lattice_counts_2x2():
    lattice = ToricLattice.build(2, 2)
    assert lattice.n_edges == 8
    assert lattice.n_plaquettes == 4
    assert lattice.n_stars == 4


@pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 3)])
def test_every_edge_in_two_plaquettes_two_stars(dims):
    lattice = ToricLattice.build(*dims)
    for cells in (lattice.plaquettes, lattice.stars):
        counts = Counter(e for cell in cells for e in cell)
        assert sorted(counts) == list(range(lattice.n_edges))
        assert set(counts.values()) == {2}


@pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
def test_stabilizer_products_are_identity(dims):
    lattice = ToricLattice.build(*dims)
    prod = PauliString.identity(lattice.n_edges)
    for p in range(lattice.n_plaquettes):
        prod = prod * lattice.plaquette_string(p)
    assert prod.is_identity()
    prod = PauliString.identity(lattice.n_edges)
    for s in range(lattice.n_stars):
        prod = prod * lattice.star_string(s)
    assert prod.is_identity()


def test_all_stabilizers_commute():
    lattice = ToricLattice.build(3, 2)
    stabs = [lattice.plaquette_string(p) for p in range(lattice.n_plaquettes)]
    stabs += [lattice.star_string(s) for s in range(lattice.n_stars)]
    for i in range(len(stabs)):
        for j in range(i + 1, len(stabs)):
            assert commutes(stabs[i], stabs[j])


def test_toric_spectrum_2x2():
    h, lattice = build_toric(2, 2)
    assert h.is_hermitian()
    # independent realization of the Hamiltonian from the edge lists
    terms = [(-1.0, "".join("X" if e in pl else "I" for e in range(8)))
             for pl in lattice.plaquettes]
    terms += [(-1.0, "".join("Z" if e in st else "I" for e in range(8)))
              for st in lattice.stars]
    mat = sum_matrix(terms, 8)
    assert np.allclose(h.to_matrix(), mat)
    w = np.linalg.eigvalsh(mat)
    assert w[0] == pytest.approx(-8.0)
    assert int(np.sum(np.abs(w - w[0]) < 1e-9)) == 4  # torus degeneracy


def test_single_flip_costs_one_gap():
    h, lattice = build_toric(2, 2)
    gs = toric_ground_state(lattice)
    for letter in ("X", "Z"):
        flipped = gs.copy().apply_string(PauliString.single(8, 3, letter))
        assert flipped.expectation(h) - gs.expectation(h) == pytest.approx(4.0)


def test_degenerate_dims_rejected():
    with pytest.raises(UnsupportedGeometryError):
        build_toric(1, 4)


# -- snake ordering ---------------------------------------------------------

def test_snake_2x2():
    assert snake_ordering(2, 2) == [(0, 0), (1, 0), (1, 1), (0, 1)]


def test_snake_single_column():
    assert snake_ordering(1, 3) == [(0, 0), (0, 1), (0, 2)]


def test_snake_bijective_and_horizontal_adjacency():
    order = snake_ordering(4, 3)
    assert len(set(order)) == 12
    pos = {xy: k for k, xy in enumerate(order)}
    for y in range(3):
        for x in range(3):
            assert abs(pos[(x, y)] - pos[(x + 1, y)]) == 1


def test_horizontal_bonds_have_no_string():
    spec = HubbardSpec(3, 3)
    hops, _ = hubbard_bonds(spec)
    for a, b, kind in hops:
        if kind == "h":
            assert abs(a - b) == 1


# -- Heisenberg --------------------------------------------------------------

def test_two_site_heisenberg_spectrum():
    j = 1.3
    h = build_heisenberg([(0, 1)], j, j, j, 0.0)
    w = np.sort(np.linalg.eigvalsh(h.to_matrix()))
    # -J/2 triplet, +3J/2 singlet in the -1/2 sum convention: split of 2J
    assert np.allclose(w, [-j / 2, -j / 2, -j / 2, 3 * j / 2])
    assert w[-1] - w[0] == pytest.approx(2 * j)


def test_pure_field_spectrum():
    h = build_heisenberg([(0, 1)], 0.0, 0.0, 0.0, 0.7, n_qubits=2)
    w = np.sort(np.linalg.eigvalsh(h.to_matrix()))
    assert np.allclose(w, [-1.4, 0.0, 0.0, 1.4])


def test_u1_symmetry_symbolic():
    h = build_heisenberg(grid_adjacency(2, 2), 0.9, 0.9, 0.4, 0.2)
    assert h.is_hermitian()
    n = h.n_qubits
    total_z = OperatorSum([(1.0, PauliString.single(n, q, "Z")) for q in range(n)], n)
    commutator = (h @ total_z) - (total_z @ h)
    assert len(commutator.normalized()) == 0
    h_aniso = build_heisenberg(grid_adjacency(2, 2), 0.9, 0.5, 0.4, 0.2)
    commutator = (h_aniso @ total_z) - (total_z @ h_aniso)
    assert len(commutator.normalized()) > 0


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        build_heisenberg([(1, 1)], 1, 1, 1, 0)


# -- Hubbard, direct encoding -------------------------------------------------

def test_two_site_spinless_spectrum():
    spec = HubbardSpec(2, 1, t_hop=1.0)
    w = np.sort(np.linalg.eigvalsh(build_hubbard_jw(spec).to_matrix()))
    assert np.allclose(w, [-1.0, 0.0, 0.0, 1.0])


def test_two_site_spinful_interaction_only():
    spec = HubbardSpec(2, 1, t_hop=0.0, u=3.0, spinful=True)
    h = build_hubbard_jw(spec)
    w = np.linalg.eigvalsh(h.to_matrix())
    # diagonal: U counted once per doubly occupied site
    assert set(np.round(np.unique(w), 9)) == {0.0, 3.0, 6.0}


def test_hubbard_number_conservation_symbolic():
    spec = HubbardSpec(2, 2, t_hop=1.0)
    h = build_hubbard_jw(spec)
    assert h.is_hermitian()
    n_total = OperatorSum([], spec.n_modes)
    for m in range(spec.n_modes):
        n_total = n_total + jw_number(m, spec.n_modes)
    commutator = (h @ n_total) - (n_total @ h)
    assert len(commutator.normalized()) == 0


def test_vertical_bond_string_weight():
    spec = HubbardSpec(2, 2, t_hop=1.0)
    h = build_hubbard_jw(spec)
    # weights: horizontal bonds 2, the wrapped-row vertical bond up to 4
    assert max(len(s.support()) for _, s in h.normalized()) == 4


def test_direct_encoding_weight_grows_with_width():
    # vertical strings span a snake row, so wider lattices cost more
    def max_weight(h):
        return max(len(s.support()) for _, s in h.normalized())

    assert max_weight(build_hubbard_jw(HubbardSpec(3, 2))) == 6
    assert max_weight(build_hubbard_jw(HubbardSpec(4, 2))) == 8
    # the local encoding stays capped regardless
    assert max_weight(build_hubbard_local(HubbardSpec(4, 2))) == 6


# -- auxiliary-fermion local encoding -----------------------------------------

def test_aux_stabilizer_algebra():
    spec = HubbardSpec(2, 2)
    stabs = aux_stabilizers(spec)
    assert len(stabs) == spec.lx * spec.ly  # the wrap-around arrow of each column included
    for s in stabs:
        assert s.is_hermitian()
        assert (s * s).is_identity()
    for i in range(len(stabs)):
        for j in range(len(stabs)):
            assert commutes(stabs[i], stabs[j])


def _stabilized_sector(spec):
    """Orthonormal columns spanning the all-+1 sector of the auxiliary
    stabilizers, from dense projector products (1 + S)/2: the oracle that
    :func:`taper` replaces in the library."""
    dim = 1 << vc_n_qubits(spec)
    proj = np.eye(dim)
    for s in aux_stabilizers(spec):
        proj = proj @ (np.eye(dim) + s.to_matrix()) / 2.0
    w, v = np.linalg.eigh(proj)
    return v[:, w > 0.5]


def test_aux_hamiltonian_ground_sector():
    spec = HubbardSpec(2, 2, v_aux=0.9)
    h_aux = build_aux_hamiltonian(spec)
    assert h_aux.is_hermitian()
    mat = h_aux.to_matrix()
    w = np.linalg.eigvalsh(mat)
    assert w[0] == pytest.approx(-0.9 * aux_pair_count(spec))
    # the all-+1 stabilizer sector is non-empty and sits at that energy
    sector = _stabilized_sector(spec)
    assert sector.shape[1] > 0
    vals = np.linalg.eigvalsh(sector.conj().T @ mat @ sector)
    assert np.all(np.abs(vals + 0.9 * aux_pair_count(spec)) < 1e-9)


def test_aux_terms_are_six_body():
    spec = HubbardSpec(2, 2)
    weights = [len(s.support()) for _, s in build_aux_hamiltonian(spec).normalized()]
    assert weights and all(w == 6 for w in weights)


def test_odd_geometry_rejected():
    with pytest.raises(UnsupportedGeometryError):
        build_aux_hamiltonian(HubbardSpec(3, 2))
    with pytest.raises(UnsupportedGeometryError):
        build_hubbard_local(HubbardSpec(2, 3))


def test_local_encoding_worked_hopping_pattern():
    # first horizontal bond: -t(XX + YY) x Z on the interleaved auxiliary site
    spec = HubbardSpec(2, 2, t_hop=1.0, v_aux=0.0)
    h = build_hubbard_local(spec)
    on_012 = [
        (c, s) for c, s in h.normalized()
        if s.support() == (0, 1, 2)
    ]
    patterns = {"".join(s.letter(q) for q in (0, 1, 2)): c for c, s in on_012}
    assert set(patterns) == {"XZX", "YZY"}
    assert patterns["XZX"] == pytest.approx(-0.5)
    assert patterns["YZY"] == pytest.approx(-0.5)


def test_local_encoding_weight_capped_at_six():
    spec = HubbardSpec(2, 2, t_hop=1.0, v_aux=1.0)
    h = build_hubbard_local(spec)
    assert max(len(s.support()) for _, s in h.normalized()) == 6
    assert h.is_hermitian()


def test_stabilizers_commute_with_local_hamiltonian():
    spec = HubbardSpec(2, 2, t_hop=1.0, v_aux=1.0)
    h = build_hubbard_local(spec)
    for stab in aux_stabilizers(spec):
        for _, term in h.normalized():
            assert commutes(stab, term)


LOCAL_SPECS = {
    "2x2": HubbardSpec(2, 2, t_hop=1.0, v_aux=1.3),
    "2x2-spinful-u4": HubbardSpec(2, 2, u=4.0, spinful=True),
    "4x2": HubbardSpec(4, 2),
    "2x4": HubbardSpec(2, 4),
}


@pytest.mark.parametrize("spec", LOCAL_SPECS.values(), ids=LOCAL_SPECS.keys())
def test_constrained_sector_matches_direct_encoding(spec):
    # one local level per Jordan-Wigner level: the sector is one copy of the physical space
    w_jw = np.sort(np.linalg.eigvalsh(build_hubbard_jw(spec).to_matrix()))
    w_local = constrained_local_spectrum(spec)
    shift = -spec.v_aux * aux_pair_count(spec)
    assert len(w_local) == len(w_jw) == 1 << spec.n_modes
    assert np.max(np.abs(w_local - (w_jw + shift))) < 1e-12


def _tapered(spec):
    n = vc_n_qubits(spec)
    return taper(build_hubbard_local(spec), aux_stabilizers(spec), range(1, n, 2))


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of bit rows given as ints."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


@pytest.mark.parametrize("spec", [*LOCAL_SPECS.values(), HubbardSpec(6, 2),
                                  HubbardSpec(4, 4, spinful=True)],
                         ids=[*LOCAL_SPECS.keys(), "6x2", "4x4-spinful"])
def test_sigmas_fix_the_stabilizers_over_gf2(spec):
    # each sigma is X or Z on its own auxiliary qubit and they commute pairwise, so
    # they fix a sector of their own; the sigma-stabilizer anticommutation matrix is
    # invertible over GF(2), so products of the stabilizers pair with the sigmas one
    # to one and the tapered sector is the stabilizers' all-+1 sector
    stabs = aux_stabilizers(spec)
    h, sigmas = _tapered(spec)
    assert len(sigmas) == len(stabs) == spec.n_modes
    assert h.n_qubits == vc_n_qubits(spec) - len(stabs) == spec.n_modes
    assert len({sigma.support() for sigma in sigmas}) == len(stabs)
    for sigma in sigmas:
        (qubit,) = sigma.support()
        assert qubit % 2 == 1  # an auxiliary mode's qubit
        assert sigma.letter(qubit) in "XZ" and sigma.is_hermitian()
    assert all(commutes(a, b) for a in sigmas for b in sigmas)
    rows = [sum((not commutes(sigma, s)) << k for k, s in enumerate(stabs)) for sigma in sigmas]
    assert _gf2_rank(rows) == len(stabs)


@pytest.mark.parametrize("spec", LOCAL_SPECS.values(), ids=LOCAL_SPECS.keys())
def test_tapered_terms_conserve_the_direct_mode_number(spec):
    # [H, sum Z] has one group of strings per X mask of H, so it vanishes
    # exactly when each group of H's terms keeps the number of direct modes
    h, sigmas = _tapered(spec)
    dropped = {sigma.support()[0] for sigma in sigmas}
    kept = [q for q in range(vc_n_qubits(spec)) if q not in dropped]
    z = OperatorSum([(1.0, PauliString.single(h.n_qubits, k, "Z"))
                     for k, q in enumerate(kept) if q % 2 == 0], h.n_qubits)
    assert len(z) == spec.n_modes
    assert len(h @ z - z @ h) == 0


def test_tapered_spectrum_is_the_dense_projector_spectrum():
    spec = LOCAL_SPECS["2x2"]
    sector = _stabilized_sector(spec)
    mat = build_hubbard_local(spec).to_matrix()
    expected = np.sort(np.linalg.eigvalsh(sector.conj().T @ mat @ sector))
    assert np.max(np.abs(constrained_local_spectrum(spec) - expected)) < 1e-12


def test_taper_of_a_bell_pair():
    # ZZ = XX = +1 is the Bell state (|00> + |11>)/sqrt(2): H reads 2 + Z_2 there,
    # and qubit 2 is qubit 0 once the sigmas' qubits 0 and 1 are dropped
    h = OperatorSum([(1.0, PauliString.from_label(w)) for w in ("ZZI", "XXI", "IIZ")])
    stabs = [PauliString.from_label("ZZI"), PauliString.from_label("XXI")]
    tapered, sigmas = taper(h, stabs, [0, 1])
    assert sigmas == [PauliString.from_label("XII"), PauliString.from_label("IZI")]
    two_plus_z = OperatorSum([(2.0, PauliString.from_label("I")),
                              (1.0, PauliString.from_label("Z"))])
    assert len(tapered - two_plus_z) == 0
    # qubit 0 cannot serve both: Z_0 would anticommute with sigma X_0
    with pytest.raises(ValueError, match="anticommutes with .* alone"):
        taper(h, stabs, [0])


def test_taper_refuses_a_stabilizer_that_anticommutes_with_a_term():
    h = build_hubbard_local(LOCAL_SPECS["2x2"])
    stray = PauliString.single(h.n_qubits, 0, "X")  # against the Y_0 of a hopping
    with pytest.raises(ValueError, match="anticommutes with another or with a term"):
        taper(h, [stray], range(1, h.n_qubits, 2))


def test_taper_refuses_a_stabilizer_listed_twice():
    spec = LOCAL_SPECS["2x2"]
    stab = aux_stabilizers(spec)[0]
    h = build_hubbard_local(spec)
    with pytest.raises(ValueError, match="anticommutes with .* alone"):
        taper(h, [stab, stab], range(1, h.n_qubits, 2))


def test_taper_refuses_a_stabilizer_that_is_a_product_of_two_others():
    # elimination reduces the product to the identity, which no sigma anticommutes
    # with, while six auxiliary qubits are still free
    spec = LOCAL_SPECS["4x2"]
    stabs = aux_stabilizers(spec)
    h = build_hubbard_local(spec)
    with pytest.raises(ValueError, match=r"anticommutes with PauliString\(\+I+\) alone"):
        taper(h, [stabs[0], stabs[1], stabs[0] * stabs[1], *stabs[2:]], range(1, h.n_qubits, 2))
