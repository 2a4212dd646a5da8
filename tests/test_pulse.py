import math
import re
import tracemalloc

import numpy as np
import pytest

from rydsim import pulse
from rydsim.errors import CapExceededError
from rydsim.pulse import (
    PulseProfile,
    SWAP_TARGET,
    calibrate_area,
    calibrate_duration,
    evolve_pulse,
    gate_fidelity,
    heff,
    raman_area,
)

from oracles import pulse_reference, rk4_propagate


def sin2_profile(x_max=0.2, duration=60.0, **kwargs):
    return PulseProfile(x_max, duration, **kwargs)


def plus_amplitude(outcome) -> complex:
    """The |+> -> |+> amplitude of a pulse's map on {|A>, |B>}:
    <+|U|+> with |+> = (|A> + |B>)/sqrt2."""
    return outcome.unitary.sum() / 2.0


# -- effective Hamiltonian -----------------------------------------------------

def test_heff_probe_off():
    h = heff(0.0, 0.0, 2.0, 1.0)
    want = np.zeros((2, 2))
    want[1, 1] = 1.0  # only the |R><R| entry survives
    assert np.allclose(h, want)


def test_heff_bright_state_energy():
    omega_c, delta, x = 2.0, 1.0, 0.45
    h = heff(x, 0.0, omega_c, delta)
    w = np.sort(np.linalg.eigvalsh(h))
    pref = omega_c**2 / (4 * delta)
    assert w[0] == pytest.approx(0.0, abs=1e-14)
    assert w[1] == pytest.approx(pref * (1 + x * x))


def test_dark_state_annihilated():
    for x in (0.0, 0.2, 0.9):
        h = heff(x, 0.0, 2.0, 1.0)
        # (|+> - x |R>) / sqrt(1 + x^2), the transported zero-energy state
        dark_state = np.array([1.0, -x], dtype=complex) / math.sqrt(1.0 + x * x)
        assert np.linalg.norm(h @ dark_state) < 1e-14


def test_heff_rejects_zero_detuning_and_infinite_v():
    with pytest.raises(ValueError):
        heff(0.1, 0.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        heff(0.1, math.inf, 2.0, 1.0)


# -- Raman area and calibration --------------------------------------------------

def test_area_zero_pulse():
    prof = PulseProfile(0.0, 10.0)
    assert raman_area(prof) == 0.0


def test_area_sin2_closed_form():
    # the closed form against a quadrature of the envelope itself
    from scipy.integrate import quad

    for x_max, duration, omega_c, delta in [(0.3, 40.0, 2.0, 1.0), (0.05, 13.1, 2.0, 1.0),
                                            (-1.7, 2.5, 3.0, 0.5), (4.0, 1000.0, 0.4, 7.0)]:
        prof = PulseProfile(x_max, duration, omega_c, delta)
        value, _ = quad(lambda t: prof.x(t) ** 2, 0.0, duration, epsabs=0.0, epsrel=1e-12,
                        limit=200)
        assert raman_area(prof) == pytest.approx(prof.prefactor * value, rel=1e-10)


@pytest.mark.parametrize("x_max,omega_c,delta", [
    (1e200, 2.0, 1.0),   # x(t)^2 overflows inside the quadrature
    (0.2, 1e200, 1.0),   # omega_c^2 overflows
    (0.2, 2.0, 1e-320),  # the prefactor is inf
    (0.0, 2.0, 1e-320),  # inf times a zero integral is NaN
])
def test_area_rejects_non_finite(x_max, omega_c, delta):
    prof = PulseProfile(x_max, 10.0, omega_c=omega_c, delta=delta)
    with pytest.raises(ValueError, match="non-finite Raman"):
        raman_area(prof)


def test_calibrate_area_scales_amplitude():
    prof = calibrate_area(sin2_profile(0.2, 60.0))
    assert raman_area(prof) == pytest.approx(math.pi, rel=1e-14)
    prof2 = calibrate_area(sin2_profile(0.2, 240.0))
    assert prof2.x_max == pytest.approx(prof.x_max / 2.0)


def test_calibrate_duration_keeps_amplitude():
    prof = calibrate_duration(sin2_profile(0.2, 60.0))
    assert prof.x_max == 0.2
    assert raman_area(prof) == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize("calibrate", [calibrate_area, calibrate_duration])
def test_calibration_rejects_zero_area(calibrate):
    with pytest.raises(ValueError, match="Raman area 0 is not positive"):
        calibrate(PulseProfile(0.0, 10.0))


@pytest.mark.parametrize("calibrate", [calibrate_area, calibrate_duration])
def test_calibration_names_a_negative_area(calibrate):
    # a negative detuning makes the Raman prefactor, and so the area, negative
    prof = PulseProfile(1.0, 13.1, delta=-1.0)
    assert raman_area(prof) < 0.0
    with pytest.raises(ValueError, match=re.escape(
            f"Raman area {raman_area(prof):.6g} is not positive")):
        calibrate(prof)


def test_profile_edge_validation():
    with pytest.raises(ValueError):
        PulseProfile(0.0, 10.0, delta=0.0)  # zero detuning


# -- pulse evolution ---------------------------------------------------------------

def test_zero_duration_pulse_is_identity():
    prof = PulseProfile(0.4, 0.0)
    out = evolve_pulse(prof, "zero")
    assert np.allclose(out.unitary, np.eye(2))
    assert out.leak_r == 0.0


def test_rydberg_branch_swap_at_pi_area():
    prof = calibrate_area(sin2_profile(0.3, 30.0))
    out = evolve_pulse(prof, "rydberg")
    assert np.allclose(out.unitary, SWAP_TARGET, atol=1e-12)


def test_rydberg_branch_insensitive_to_amplitude_at_fixed_area():
    u_ref = None
    for duration in (20.0, 80.0, 320.0):
        prof = calibrate_area(sin2_profile(0.2, duration))
        u = evolve_pulse(prof, "rydberg").unitary
        if u_ref is None:
            u_ref = u
        assert np.allclose(u, u_ref, atol=1e-12)


def test_zero_branch_transparency_adiabatic():
    prof = calibrate_area(sin2_profile(0.1, 2000.0))
    out = evolve_pulse(prof, "zero")
    fid = abs(np.trace(out.unitary)) / 2.0
    assert fid > 0.999
    assert out.leak_r < 1e-4


def test_minus_state_exactly_stationary():
    # |B> - |A> ~ |->: evolve and check the |-> component is untouched
    prof = calibrate_area(sin2_profile(0.5, 8.0))
    out = evolve_pulse(prof, "zero")
    minus_in_ab = np.array([1.0, -1.0]) / math.sqrt(2)
    image = out.unitary @ minus_in_ab
    assert np.allclose(image, minus_in_ab, atol=1e-9)


def test_finite_blockade_approaches_perfect_blockade():
    prof_inf = calibrate_area(sin2_profile(0.2, 60.0))
    u_inf = evolve_pulse(prof_inf, "rydberg").unitary
    errs = []
    for v in (30.0, 300.0):
        prof = calibrate_area(sin2_profile(0.2, 60.0, blockade=v))
        u = evolve_pulse(prof, "rydberg").unitary
        phase = np.exp(-1j * np.angle(np.trace(u_inf.conj().T @ u)))
        errs.append(np.linalg.norm(phase * u - u_inf))
    assert errs[1] < errs[0]


def test_branch_validation():
    prof = sin2_profile()
    with pytest.raises(ValueError):
        evolve_pulse(prof, "both")


# -- fidelities ----------------------------------------------------------------------

def test_gate_fidelity_requires_calibration():
    with pytest.raises(ValueError):
        gate_fidelity(sin2_profile(0.05, 10.0))


def test_fidelity_degrades_monotonically_with_shorter_pulses():
    base = calibrate_duration(sin2_profile(0.2, 10.0))
    f_zeros = []
    for k in range(5):
        prof = calibrate_area(sin2_profile(0.2, base.duration / 2**k))
        f_zero, f_ryd, _ = gate_fidelity(prof)
        f_zeros.append(f_zero)
        assert f_ryd == pytest.approx(1.0, abs=1e-9)
    assert all(f_zeros[k] > f_zeros[k + 1] for k in range(4))


# -- integrator ------------------------------------------------------------------------

def test_rk4_order_by_step_halving():
    # rectangular pulse, perfect blockade: the |+> phase evolution is known
    pref, x0, duration = 1.0, 0.5, 3.0
    h = lambda t: pref * np.array([[x0 * x0, 0.0], [0.0, 0.0]], dtype=complex)
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2)
    exact = np.array([np.exp(-1j * pref * x0 * x0 * duration), 1.0]) / math.sqrt(2)
    errors = []
    steps = [8, 16, 32, 64, 128]
    for n in steps:
        errors.append(np.linalg.norm(rk4_propagate(h, psi0, duration, n) - exact))
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    for order in orders:
        assert abs(order - 4.0) < 0.3


def test_rk4_cross_checks_adaptive_path():
    prof = calibrate_area(sin2_profile(0.4, 12.0))
    h = lambda t: heff(prof.x(t), 0.0, prof.omega_c, prof.delta)
    fixed = rk4_propagate(h, np.array([1.0, 0.0]), prof.duration, 20000)
    out = evolve_pulse(prof, "zero")
    plus = plus_amplitude(out)
    assert abs(plus - fixed[0]) < 1e-8
    assert abs(out.leak_r - abs(fixed[1]) ** 2) < 1e-8
    assert abs(plus) ** 2 + out.leak_r == pytest.approx(1.0, abs=1e-8)


# -- Magnus propagator -------------------------------------------------------------------

@pytest.mark.parametrize("duration", [13.1, 26.2, 52.4, 104.7, 209.4, 418.9])
@pytest.mark.parametrize("v", [0.0, 20.0])
def test_magnus_matches_dop853(duration, v):
    # the benchmark's gate-fidelity pulses, idle branch (V = 0) and blockaded
    prof = calibrate_area(PulseProfile(1.0, duration, blockade=20.0))
    want = pulse_reference(prof, v)
    out = evolve_pulse(prof, "zero" if v == 0.0 else "rydberg")
    assert abs(plus_amplitude(out) - want[0]) < 1e-9
    assert abs(out.leak_r - abs(want[1]) ** 2) < 1e-9


def test_magnus_order_by_step_doubling():
    # the commutator term is what lifts the Gauss-node exponential from order 2 to 4
    prof = calibrate_area(PulseProfile(1.0, 52.4))
    want = pulse_reference(prof, 0.0)
    errors = [np.abs(pulse._plus_column(prof, 0.0, n) - want).max() for n in (128, 256, 512)]
    for k in range(2):
        assert abs(math.log2(errors[k] / errors[k + 1]) - 4.0) < 0.3


def test_pulse_near_the_phase_bound_stays_small():
    # 9.9e5 rad: the step unitaries are held 2^15 at a time
    prof = calibrate_area(PulseProfile(1.0, 9.9e5 / 21.0, blockade=20.0))
    tracemalloc.start()
    try:
        out = evolve_pulse(prof, "rydberg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert abs(plus_amplitude(out)) ** 2 + out.leak_r == pytest.approx(1.0, abs=1e-9)


def test_unconverged_pulse_raises(monkeypatch):
    # 418.9 at V = 20 needs 32768 steps; one doubling from 1024 stops short
    monkeypatch.setattr(pulse, "_MAX_DOUBLINGS", 1)
    prof = calibrate_area(PulseProfile(1.0, 418.9, blockade=20.0))
    with pytest.raises(CapExceededError, match="not converged to 1e-10 at 2048 Magnus steps"):
        evolve_pulse(prof, "rydberg")
