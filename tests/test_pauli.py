import re
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from rydsim import pauli
from rydsim.errors import CapExceededError, DimensionMismatchError
from rydsim.models import build_heisenberg, grid_adjacency
from rydsim.pauli import (
    COEFF_EPS,
    OperatorSum,
    PauliString,
    commutes,
    format_operator,
    jw_annihilator,
    jw_creator,
    jw_number,
    parse_operator,
    pauli_action,
    pauli_mul,
    sum_action,
    to_matrices,
    to_matrix,
)
from rydsim.statevec import StateVector

from oracles import label_matrix, sum_matrix


def random_string(rng, n):
    return PauliString(
        n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
        int(rng.integers(0, 4)),
    )


# -- products and group structure --------------------------------------

def test_single_qubit_xz_product():
    x0 = PauliString.from_label("X")
    z0 = PauliString.from_label("Z")
    prod = pauli_mul(x0, z0)
    assert prod.to_label() == "Y"
    assert prod.phase == -1j


def test_identity_is_unit():
    rng = np.random.default_rng(0)
    ident = PauliString.identity(3)
    for _ in range(50):
        p = random_string(rng, 3)
        assert ident * p == p
        assert p * ident == p


def test_plaquette_operator_is_involution():
    a_p = PauliString.from_label("XXXX")
    assert (a_p * a_p).is_identity()


def test_closure_random_pairs():
    # product of any two strings is a string with a unit phase factor
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        n = int(rng.integers(1, 17))
        a, b = random_string(rng, n), random_string(rng, n)
        p = a * b
        assert p.n_qubits == n
        assert 0 <= p.phase_exp < 4
        assert abs(abs(p.phase) - 1.0) == 0.0


def test_associativity_random():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a, b, c = (random_string(rng, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_product_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        a, b = random_string(rng, n), random_string(rng, n)
        got = (a * b).to_matrix()
        want = a.to_matrix() @ b.to_matrix()
        assert np.allclose(got, want, atol=1e-14)


def test_size_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        pauli_mul(PauliString.identity(2), PauliString.identity(3))
    with pytest.raises(DimensionMismatchError):
        commutes(PauliString.identity(2), PauliString.identity(3))


# -- commutation --------------------------------------------------------

def test_commutes_basic_pairs():
    x0 = PauliString.from_label("XI")
    z0 = PauliString.from_label("ZI")
    z1 = PauliString.from_label("IZ")
    assert not commutes(x0, z0)
    assert commutes(x0, z1)


def test_plaquette_star_two_edge_overlap_commutes():
    # four-body X and Z strings sharing exactly two sites
    a_p = PauliString.from_sites(6, {0: "X", 1: "X", 2: "X", 3: "X"})
    b_s = PauliString.from_sites(6, {2: "Z", 3: "Z", 4: "Z", 5: "Z"})
    assert commutes(a_p, b_s)


def test_z_on_plaquette_edge_anticommutes():
    a_p = PauliString.from_sites(4, {k: "X" for k in range(4)})
    z_edge = PauliString.single(4, 1, "Z")
    assert not commutes(a_p, z_edge)
    # confirmed by the 16x16 anticommutator
    am, zm = a_p.to_matrix(), z_edge.to_matrix()
    assert np.allclose(am @ zm + zm @ am, 0.0)


def test_commutes_agrees_with_matrix_commutator():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a, b = random_string(rng, n), random_string(rng, n)
        am, bm = a.to_matrix(), b.to_matrix()
        assert commutes(a, b) == np.allclose(am @ bm, bm @ am, atol=1e-12)


# -- dense realization --------------------------------------------------

def test_to_matrix_identity():
    op = OperatorSum.identity(3)
    assert np.allclose(to_matrix(op), np.eye(8))


def test_to_matrix_matches_label_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        s = random_string(rng, n)
        assert np.allclose(s.to_matrix(), s.phase * label_matrix(s.to_label()))


def test_to_matrix_block_is_the_full_matrix_block():
    # every term flips 0, 2 or 4 bits, so the even- and odd-weight blocks are
    # closed; the weight-1 block is not, as XXXX takes it to weight 3
    rng = np.random.default_rng(8)
    n = 4
    op = OperatorSum([(rng.normal(), PauliString.from_label(label))
                      for label in ("XXII", "YYII", "IZZI", "XXXX", "ZIIZ")], n)
    parity = np.array([bin(j).count("1") % 2 for j in range(1 << n)])
    full = to_matrix(op)
    for p in (0, 1):
        block = np.flatnonzero(parity == p)[::-1]  # any order: rows and columns follow it
        (got,) = to_matrices(op, [block])
        assert got.dtype == full.dtype
        assert got.tobytes() == full[np.ix_(block, block)].tobytes()
    ones = np.flatnonzero([bin(j).count("1") == 1 for j in range(1 << n)])
    with pytest.raises(ValueError, match="out of the block"):
        list(to_matrices(op, [ones]))


def test_to_matrices_is_to_matrix_on_each_block():
    # one plan for all blocks: each block's bytes are the whole matrix's block
    # (None: the whole matrix), and a block after a closed one still fails when
    # it is not closed
    rng = np.random.default_rng(9)
    n = 4
    op = OperatorSum([(rng.normal(), PauliString.from_label(label))
                      for label in ("XXII", "YYII", "IZZI", "XXXX", "ZIIZ")], n)
    weight = np.array([bin(j).count("1") for j in range(1 << n)])
    blocks = [np.flatnonzero(weight % 2 == 1), None, np.flatnonzero(weight % 2 == 0)[::-1]]
    full = to_matrix(op)
    for got, block in zip(to_matrices(op, blocks), blocks, strict=True):
        assert got.tobytes() == (full if block is None else full[np.ix_(block, block)]).tobytes()
    ones = np.flatnonzero(weight == 1)
    with pytest.raises(ValueError, match="out of the block"):
        list(to_matrices(op, [np.flatnonzero(weight % 2 == 1), ones]))


def test_plaquette_matrix_spectrum_eightfold():
    a_p = PauliString.from_label("XXXX")
    w = np.linalg.eigvalsh(a_p.to_matrix())
    assert np.allclose(np.sort(w), [-1.0] * 8 + [1.0] * 8)


def test_to_matrix_linearity_and_products():
    rng = np.random.default_rng(6)
    n = 3
    a = OperatorSum([(rng.normal() + 1j * rng.normal(), random_string(rng, n))
                     for _ in range(4)], n)
    b = OperatorSum([(rng.normal(), random_string(rng, n)) for _ in range(3)], n)
    assert np.allclose(to_matrix(a @ b), to_matrix(a) @ to_matrix(b), atol=1e-12)
    assert np.allclose(to_matrix(a + b), to_matrix(a) + to_matrix(b), atol=1e-12)
    assert np.allclose(to_matrix(2.5 * a), 2.5 * to_matrix(a), atol=1e-12)


@pytest.mark.parametrize("coeffs,labels,real", [
    ((0.5, -1.25), ("XZI", "YYZ"), True),     # real coefficients, even Y counts
    ((0.5, -1.25), ("XZI", "YZI"), False),    # one Y site
    ((0.5, 0.25j), ("XZI", "ZZX"), False),    # complex coefficient
    ((1.0, 1.0), ("YXI", "XYI"), False),      # XY + YX has one Y per term
    ((1.0j, 1.0j), ("YXI", "ZZZ"), False),
    ((0.5, -0.5j), ("ZII", "YXX"), True),     # c i^#Y real: the toric jump's form
    ((1.0j, 1.0j), ("YXI", "XYI"), True),     # i (XY + YX)
])
def test_to_matrix_dtype_follows_the_terms(coeffs, labels, real):
    terms = list(zip(coeffs, labels))
    op = OperatorSum([(c, PauliString.from_label(l)) for c, l in terms], 3)
    mat = to_matrix(op)
    assert mat.dtype == (np.float64 if real else np.complex128)
    assert np.array_equal(mat, sum_matrix(terms, 3))


def test_matrix_cap():
    with pytest.raises(CapExceededError):
        to_matrix(OperatorSum.identity(13))


def test_action_cache_stays_within_its_byte_budget():
    # a 16-qubit pair of tables holds 1.5 MB, so 64 strings overrun the budget;
    # the least recently used pairs go first, and a dropped pair is rebuilt;
    # a sum's group tables (a diagonal group keeps no index) share the budget
    n = 16
    field = OperatorSum([(0.5, PauliString.single(n, 0, "Z"))])
    groups = sum_action(field) + sum_action(OperatorSum(
        [(1.0, PauliString.single(n, 1, "X")), (0.5, PauliString.single(n, 1, "Y"))]))
    assert [idx is None for idx, _ in groups] == [True, False]
    first = pauli_action(n, 0, 1)
    for x in range(1, 64):
        pauli_action(n, x, 0)
        pauli_action(n, 0, 1)  # keeps the first pair the most recently used
    kept = pauli._actions.values()
    assert 0 < pauli._action_bytes == sum(i.nbytes + f.nbytes for i, f in kept)
    assert pauli._action_bytes <= pauli.ACTION_CACHE_BYTES
    assert pauli_action(n, 0, 1) is first
    assert (n, 1, 0, 0, None) not in pauli._actions
    idx, factor = pauli_action(n, 1, 0)
    assert np.array_equal(idx, np.arange(1 << n) ^ 1) and np.all(factor == 1.0)
    assert all(len(key) == 5 for key in pauli._actions)  # no group table is kept
    idx, factor = sum_action(field)[0]
    assert idx is None and factor is not groups[0][1]
    assert np.array_equal(factor, np.where(np.arange(1 << n) & 1, -0.5, 0.5))
    kept = pauli._actions.values()
    assert pauli._action_bytes == sum(a.nbytes for pair in kept for a in pair if a is not None)
    assert pauli._action_bytes <= pauli.ACTION_CACHE_BYTES


def test_an_energy_reads_one_table_per_x_mask(monkeypatch):
    # Heisenberg 4x3 has 63 terms: 17 bonds of XX and YY, which share their
    # bond's X mask, and 17 ZZ bonds and 12 fields, all diagonal; so its
    # energy builds 18 tables from an empty cache, and a second call none
    monkeypatch.setattr(pauli, "_actions", OrderedDict())
    monkeypatch.setattr(pauli, "_action_bytes", 0)
    h = build_heisenberg(grid_adjacency(4, 3), 1.0, 1.0, 0.5, 0.3, n_qubits=12)
    assert len(h.normalized()) == 63
    state = StateVector((1, 1j) @ np.random.default_rng(3).normal(size=(2, 1 << 12))).normalize()
    energy = state.expectation(h)
    assert len(pauli._actions) == 18
    assert state.expectation(h) == energy and len(pauli._actions) == 18


# -- operator sums ------------------------------------------------------

def test_normalization_merges_and_drops():
    x = PauliString.from_label("XI")
    x_phased = PauliString(2, x.x_mask, x.z_mask, 2)  # -X
    op = OperatorSum([(1.0, x), (2.0, x_phased), (1e-15, PauliString.from_label("IZ"))])
    norm = op.normalized()
    assert len(norm) == 1
    coeff, string = norm.terms[0]
    assert string.phase == 1
    assert coeff == pytest.approx(-1.0)


def test_terms_are_canonical_as_constructed():
    # a repeated string merges, a phase folds into its coefficient, a
    # coefficient below COEFF_EPS drops, and strings sort by (x mask, z mask)
    z, iy, x = (PauliString(2, 0, 1), PauliString(2, 1, 1, 1), PauliString(2, 2, 0))
    op = OperatorSum([(1.0, z), (COEFF_EPS / 2, x), (2.0, iy), (0.5, z)])
    assert op.terms == ((1.5, z), (2j, PauliString.from_label("YI")))
    assert op.normalized() is op


def test_normalization_idempotent_and_matrix_preserving():
    rng = np.random.default_rng(7)
    n = 3
    op = OperatorSum(
        [(rng.normal() + 1j * rng.normal(), random_string(rng, n)) for _ in range(12)],
        n,
    )
    once = op.normalized()
    twice = once.normalized()
    assert once.terms == twice.terms
    assert np.allclose(to_matrix(op), to_matrix(once), atol=1e-12)
    # no duplicate masks after normalization
    keys = [(s.x_mask, s.z_mask) for _, s in once]
    assert len(keys) == len(set(keys))


def test_hermiticity_check():
    x = PauliString.from_label("X")
    y = PauliString.from_label("Y")
    assert OperatorSum([(1.0, x), (-2.0, y)]).is_hermitian()
    assert not OperatorSum([(1j, x)]).is_hermitian()
    herm = OperatorSum([(0.5 + 0.5j, x)])
    assert (herm + herm.adjoint()).is_hermitian()


def test_adjoint_matches_matrix():
    rng = np.random.default_rng(8)
    op = OperatorSum([(rng.normal() + 1j * rng.normal(), random_string(rng, 3))
                      for _ in range(5)], 3)
    assert np.allclose(to_matrix(op.adjoint()), to_matrix(op).conj().T, atol=1e-12)


# -- Jordan-Wigner images ------------------------------------------------

def test_jw_first_mode_no_string():
    c1 = jw_annihilator(0, 2).normalized()
    labels = {s.to_label(): c for c, s in c1}
    assert labels == {"XI": pytest.approx(0.5), "YI": pytest.approx(0.5j)}


def test_jw_third_mode_z_string():
    c3 = jw_annihilator(2, 4).normalized()
    labels = {s.to_label(): c for c, s in c3}
    assert set(labels) == {"ZZXI", "ZZYI"}
    assert labels["ZZXI"] == pytest.approx(0.5)
    assert labels["ZZYI"] == pytest.approx(0.5j)


def test_jw_number_form_and_idempotence():
    n2 = jw_number(1, 2)
    labels = {s.to_label(): c for c, s in n2.normalized()}
    assert labels == {"II": pytest.approx(0.5), "IZ": pytest.approx(-0.5)}
    mat = to_matrix(n2)
    assert np.allclose(mat @ mat, mat)
    assert np.allclose(np.sort(np.linalg.eigvalsh(mat)), [0, 0, 1, 1])


def test_jw_number_equals_creator_annihilator_product():
    for n in (1, 3):
        for i in range(n):
            lhs = (jw_creator(i, n) @ jw_annihilator(i, n)).normalized()
            assert all(abs(c) <= 1e-10 for c, _ in (lhs - jw_number(i, n)).normalized())


def test_jw_annihilator_maps_occupied_to_empty():
    # |1> (occupied) -> |0>, with the (X + iY)/2 on-site convention
    c = to_matrix(jw_annihilator(0, 1))
    assert np.allclose(c, [[0, 1], [0, 0]])


def test_canonical_anticommutation_relations():
    n = 6
    cs = [to_matrix(jw_annihilator(i, n)) for i in range(n)]
    cds = [to_matrix(jw_creator(i, n)) for i in range(n)]
    eye = np.eye(1 << n)
    for i in range(n):
        for j in range(n):
            anti_mixed = cs[i] @ cds[j] + cds[j] @ cs[i]
            anti_same = cs[i] @ cs[j] + cs[j] @ cs[i]
            assert np.allclose(anti_mixed, eye if i == j else 0.0, atol=1e-13)
            assert np.allclose(anti_same, 0.0, atol=1e-13)


def test_jw_index_range():
    with pytest.raises(IndexError):
        jw_annihilator(-1, 4)
    with pytest.raises(IndexError):
        jw_number(4, 4)


# -- text round-trip -----------------------------------------------------

def test_to_label_matches_per_site_letters():
    # masks past 64 bits and lengths off byte boundaries, with every phase
    rng = np.random.default_rng(31)
    for n in [*range(1, 20), 63, 64, 65, 127, 128, 129, 255, 300]:
        full = (1 << n) - 1
        for phase_exp in range(4):
            x, z = (int.from_bytes(rng.bytes((n + 7) // 8), "little") & full for _ in "xz")
            s = PauliString(n, x, z, phase_exp)
            assert s.to_label() == "".join(s.letter(k) for k in range(n))
    assert PauliString(3, 0b011, 0b110).to_label() == "XYZ"


@pytest.mark.parametrize("build,letter", [
    (lambda: PauliString.single(3, 0, "Q"), "Q"),
    (lambda: PauliString.from_sites(3, {1: "w"}), "w"),
    (lambda: PauliString.from_label("XQ"), "Q"),
    (lambda: PauliString.from_sites(3, {1: "XZ"}), "XZ"),
    (lambda: PauliString.from_sites(3, {1: ""}), ""),
], ids=["single", "from_sites", "from_label", "two_letters", "empty"])
def test_invalid_letter_is_named_as_given(build, letter):
    with pytest.raises(ValueError, match=re.escape(f"invalid Pauli letter {letter!r}")):
        build()


@pytest.mark.parametrize("qubit,letter,error", [
    (1, "Q", ValueError), (1, "", ValueError), (3, "X", IndexError), (-1, "Z", IndexError),
])
def test_single_raises_after_a_cached_hit(qubit, letter, error):
    # single is built once per argument tuple; a call that raises caches nothing
    hit = PauliString.single(3, 1, "X")
    assert PauliString.single(3, 1, "X") is hit
    for _ in range(2):
        with pytest.raises(error):
            PauliString.single(3, qubit, letter)
        assert PauliString.single(3, 1, "X") is hit


def test_letters_read_in_either_case():
    want = PauliString(4, 0b0110, 0b1100)
    assert PauliString.from_label("ixYz") == want
    assert PauliString.from_sites(4, {1: "x", 2: "Y", 3: "z"}) == want
    assert [want.letter(q) for q in range(4)] == list("IXYZ")


def test_format_parse_round_trip():
    rng = np.random.default_rng(9)
    op = OperatorSum(
        [(rng.normal() + 1j * rng.normal(), random_string(rng, 4)) for _ in range(6)],
        4,
    ).normalized()
    back = parse_operator(format_operator(op))
    assert all(abs(c) <= 1e-15 for c, _ in (back - op).normalized())


def test_format_holds_the_dump_text_about_twice():
    # 4.2 MB of text for the 32x32 toric code: one list of lines that carry
    # their own newline, joined once, peaks near twice that; a join of bare
    # lines plus a final newline held it three times (12 MB)
    from rydsim.models import build_toric

    h = build_toric(32, 32)[0].normalized()
    tracemalloc.start()
    try:
        text = format_operator(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == 4206592 and text.endswith("\n")
    assert peak < 10e6, peak
    assert format_operator(OperatorSum([], 2)) == ""


def test_parse_rejects_ragged_words():
    with pytest.raises(DimensionMismatchError):
        parse_operator("1 0 XX\n1 0 XXX\n")
