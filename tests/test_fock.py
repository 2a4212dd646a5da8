from math import comb

import numpy as np
import pytest

from rydsim.errors import CapExceededError
from rydsim.fock import (
    hubbard_matrix,
    sectors,
    spectrum,
)
from rydsim.models import HubbardSpec, hubbard_mode


def full_spectrum(spec):
    return np.linalg.eigvalsh(hubbard_matrix(spec))


def sector(spec, label):
    """Basis indices of the sector labelled ``label``."""
    return dict(sectors(spec))[label]


def occupations(spec, state: int):
    """Particle count of each spin species in a basis state, read from the
    modes :func:`hubbard_mode` assigns."""
    return tuple(
        sum((state >> hubbard_mode(spec, x, y, spin)) & 1
            for y in range(spec.ly) for x in range(spec.lx))
        for spin in spec.spins
    )


def test_one_site_spinful_no_hopping():
    spec = HubbardSpec(1, 1, t_hop=1.0, u=2.5, spinful=True)
    w = full_spectrum(spec)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.5])


def test_two_site_spinless_single_particle():
    spec = HubbardSpec(2, 1, t_hop=0.8)
    w = spectrum(hubbard_matrix(spec), sector(spec, "1"))
    assert np.allclose(w, [-0.8, 0.8])
    assert np.allclose(full_spectrum(spec), [-0.8, 0.0, 0.0, 0.8])


def test_half_filling_superexchange_limit():
    # 2-site spinful at strong U: ground energy approaches -4t^2/U
    t, u = 1.0, 8.0
    spec = HubbardSpec(2, 1, t_hop=t, u=u, spinful=True)
    ground = spectrum(hubbard_matrix(spec), sector(spec, "1u1d"))[0]
    exact = (u - np.sqrt(u**2 + 16 * t**2)) / 2.0
    assert ground == pytest.approx(exact, abs=1e-12)
    assert ground == pytest.approx(-4 * t**2 / u, rel=0.15)


def test_interaction_only_multiset():
    spec = HubbardSpec(2, 1, t_hop=0.0, u=1.0, spinful=True)
    w = full_spectrum(spec)
    values, counts = np.unique(np.round(w, 9), return_counts=True)
    assert list(values) == [0.0, 1.0, 2.0]
    assert list(counts) == [9, 6, 1]


def _conserves(h, spec, species: int) -> bool:
    n_op = np.diag([float(occupations(spec, s)[species]) for s in range(len(h))])
    return np.allclose(h @ n_op, n_op @ h)


def test_number_conservation():
    spec = HubbardSpec(2, 2, t_hop=1.0)
    assert _conserves(hubbard_matrix(spec), spec, 0)


def test_spin_resolved_conservation():
    spec = HubbardSpec(2, 1, t_hop=1.0, u=2.0, spinful=True)
    h = hubbard_matrix(spec)
    assert _conserves(h, spec, 0) and _conserves(h, spec, 1)


def test_particle_hole_symmetric_spectrum_at_zero_u():
    # bipartite lattice, U=0: single-particle energies come in +- pairs,
    # so the full spectrum is symmetric under negation
    spec = HubbardSpec(2, 2, t_hop=1.0)
    w = full_spectrum(spec)
    assert np.allclose(np.sort(w), np.sort(-w), atol=1e-10)


def test_sector_spectra_partition_full_spectrum():
    spec = HubbardSpec(2, 1, t_hop=0.7, u=1.1, spinful=True)
    h = hubbard_matrix(spec)
    collected = np.concatenate([spectrum(h, idx) for _, idx in sectors(spec)])
    assert np.allclose(np.sort(collected), full_spectrum(spec))


@pytest.mark.parametrize("lx,ly,spinful", [(2, 1, False), (2, 1, True),
                                           (2, 2, False), (2, 2, True)])
def test_sectors_partition_the_basis_by_occupation(lx, ly, spinful):
    spec = HubbardSpec(lx, ly, spinful=spinful)
    blocks = sectors(spec)
    n = spec.n_sites
    if spinful:  # the CSV's order: n_up outer, n_down inner
        want = [(f"{u}u{d}d", comb(n, u) * comb(n, d))
                for u in range(n + 1) for d in range(n + 1)]
    else:
        want = [(str(k), comb(n, k)) for k in range(n + 1)]
    assert [(label, len(idx)) for label, idx in blocks] == want
    merged = np.sort(np.concatenate([idx for _, idx in blocks]))
    assert np.array_equal(merged, np.arange(1 << spec.n_modes))
    for label, idx in blocks:
        assert np.all(np.diff(idx) > 0)
        for s in idx:
            counts = occupations(spec, int(s))
            assert label == (f"{counts[0]}u{counts[1]}d" if spinful else str(counts[0]))


def test_mode_cap():
    spec = HubbardSpec(13, 1)
    with pytest.raises(CapExceededError):
        sectors(spec)
    with pytest.raises(CapExceededError):
        hubbard_matrix(spec)
