import numpy as np
import pytest

from rydsim.errors import CapExceededError
from rydsim.fock import (
    FockBasis,
    hubbard_matrix,
    spectrum,
)
from rydsim.models import HubbardSpec


def test_one_site_spinful_no_hopping():
    spec = HubbardSpec(1, 1, t_hop=1.0, u=2.5, spinful=True)
    w = spectrum(spec)
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.5])


def test_two_site_spinless_single_particle():
    spec = HubbardSpec(2, 1, t_hop=0.8)
    w = spectrum(spec, n_particles=1)
    assert np.allclose(w, [-0.8, 0.8])
    assert np.allclose(spectrum(spec), [-0.8, 0.0, 0.0, 0.8])


def test_half_filling_superexchange_limit():
    # 2-site spinful at strong U: ground energy approaches -4t^2/U
    t, u = 1.0, 8.0
    spec = HubbardSpec(2, 1, t_hop=t, u=u, spinful=True)
    ground = spectrum(spec, n_up=1, n_down=1)[0]
    exact = (u - np.sqrt(u**2 + 16 * t**2)) / 2.0
    assert ground == pytest.approx(exact, abs=1e-12)
    assert ground == pytest.approx(-4 * t**2 / u, rel=0.15)


def test_interaction_only_multiset():
    spec = HubbardSpec(2, 1, t_hop=0.0, u=1.0, spinful=True)
    w = spectrum(spec)
    values, counts = np.unique(np.round(w, 9), return_counts=True)
    assert list(values) == [0.0, 1.0, 2.0]
    assert list(counts) == [9, 6, 1]


def test_number_conservation():
    spec = HubbardSpec(2, 2, t_hop=1.0)
    h = hubbard_matrix(spec)
    basis = FockBasis(spec.n_modes)
    n_op = np.diag(basis.popcounts().astype(float))
    assert np.allclose(h @ n_op, n_op @ h)


def test_spin_resolved_conservation():
    spec = HubbardSpec(2, 1, t_hop=1.0, u=2.0, spinful=True)
    h = hubbard_matrix(spec)
    basis = FockBasis(spec.n_modes)
    up_mask = (1 << spec.n_sites) - 1
    for mask in (up_mask, ((1 << spec.n_modes) - 1) ^ up_mask):
        n_op = np.diag(basis.popcounts(mask).astype(float))
        assert np.allclose(h @ n_op, n_op @ h)


def test_particle_hole_symmetric_spectrum_at_zero_u():
    # bipartite lattice, U=0: single-particle energies come in +- pairs,
    # so the full spectrum is symmetric under negation
    spec = HubbardSpec(2, 2, t_hop=1.0)
    w = spectrum(spec)
    assert np.allclose(np.sort(w), np.sort(-w), atol=1e-10)


def test_sector_spectra_partition_full_spectrum():
    spec = HubbardSpec(2, 1, t_hop=0.7, u=1.1, spinful=True)
    whole = spectrum(spec)
    collected = []
    for n_up in range(3):
        for n_down in range(3):
            collected.extend(spectrum(spec, n_up=n_up, n_down=n_down))
    assert np.allclose(np.sort(collected), whole)


def test_mode_cap():
    with pytest.raises(CapExceededError):
        FockBasis(13)
