"""Physical-level model of the gate's Raman pulse on one ensemble atom.

After adiabatic elimination of the intermediate level, the atom reduces to
the three states {|+>, |->, |R>} driven by a Hamiltonian proportional to
Omega_c^2 / (4 Delta).  The antisymmetric state |-> is exactly stationary;
with the control atom idle (branch "zero") the symmetric state is carried
by a zero-energy dark state and the pulse is transparent up to Landau-Zener
leakage, while with the control atom Rydberg-excited (branch "rydberg",
perfect blockade) the |R> level drops out and |+> accumulates the Raman
area as a pure phase, giving |A> -> -|B> at area pi.

The Raman area is defined dimensionfully as
``integral Omega_c^2/(4 Delta) x(t)^2 dt`` so the pi-pulse condition is
unit-safe.  scipy integrates pulses (DOP853, rtol 1e-10) and areas (``quad``);
it loads at the first such call, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import IntegrationError

_SQRT2 = math.sqrt(2.0)

#: largest phase bound (rad) evolve_pulse integrates: DOP853 costs about
#: 30 us per rad (1e6 rad in 32 s on a 2-vCPU VM), so a solve stays near half
#: a minute; the benchmark's largest pulse is 8.8e3 rad
MAX_PULSE_PHASE = 1e6


@dataclass(frozen=True)
class PulseProfile:
    """A smooth probe-strength envelope x(t) with its laser parameters.

    x = sqrt(2) Omega_p / Omega_c is the relative probe strength; the pulse
    must start and end off (x(0) = x(T) = 0).  ``blockade`` is the
    interaction shift of the ensemble Rydberg level when the control atom
    is excited; ``math.inf`` means perfect blockade.
    """

    duration: float
    x_of_t: Callable[[float], float]
    x_max: float
    omega_c: float
    delta: float
    blockade: float = math.inf

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError("pulse duration must be non-negative")
        if self.delta == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.blockade < 0.0:
            raise ValueError("blockade shift must be non-negative")
        if self.duration > 0.0:
            for t_edge in (0.0, self.duration):
                if abs(self.x_of_t(t_edge)) > 1e-9 * max(1.0, self.x_max):
                    raise ValueError("pulse must start and end with x = 0")

    @property
    def prefactor(self) -> float:
        """Energy scale Omega_c^2 / (4 Delta) of the effective Hamiltonian."""
        return self.omega_c**2 / (4.0 * self.delta)

    @classmethod
    def sin2(
        cls,
        x_max: float,
        duration: float,
        omega_c: float = 2.0,
        delta: float = 1.0,
        blockade: float = math.inf,
    ) -> "PulseProfile":
        """Default smooth envelope x(t) = x_max sin^2(pi t / T)."""
        if duration == 0.0:
            return cls(0.0, lambda t: 0.0, 0.0, omega_c, delta, blockade)

        def x_of_t(t, _xm=x_max, _T=duration):
            return _xm * math.sin(math.pi * t / _T) ** 2

        return cls(duration, x_of_t, x_max, omega_c, delta, blockade)


def heff(x: float, v: float, omega_c: float, delta: float) -> np.ndarray:
    """Effective 3x3 Hamiltonian on {|+>, |->, |R>} (hbar = 1).

    (Omega_c^2/4Delta) [x^2 |+><+| + (1+V)|R><R| + x(|+><R| + h.c.)]; the
    |-> row and column vanish identically.
    """
    if delta == 0.0:
        raise ValueError("detuning must be nonzero")
    if not math.isfinite(v):
        raise ValueError("heff needs a finite blockade; the infinite limit "
                         "is handled analytically by evolve_pulse")
    pref = omega_c**2 / (4.0 * delta)
    return pref * np.array(
        [
            [x * x, 0.0, x],
            [0.0, 0.0, 0.0],
            [x, 0.0, 1.0 + v],
        ],
        dtype=complex,
    )


@dataclass
class PulseOutcome:
    """Result of one pulse: the map on {|A>, |B>} and the |R> leakage."""

    unitary: np.ndarray
    leak_r: float


def _h_of_t(profile: PulseProfile, v: float):
    def h(t):
        return heff(profile.x_of_t(t), v, profile.omega_c, profile.delta)

    return h


def _integrate(h_of_t, psi0: np.ndarray, t_final: float) -> np.ndarray:
    from scipy.integrate import solve_ivp
    sol = solve_ivp(
        lambda t, y: -1j * (h_of_t(t) @ y),
        (0.0, t_final),
        psi0.astype(complex),
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise IntegrationError(
            f"pulse integration failed at tolerance rtol=1e-10: {sol.message}"
        )
    return sol.y[:, -1]


# basis change {A, B} <-> {+, -}: |A> = (|+> + |->)/sqrt2, |B> = (|+> - |->)/sqrt2
_T_AB = np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2


def evolve_pulse(profile: PulseProfile, branch: str) -> PulseOutcome:
    """Run the pulse and return the resulting map on {|A>, |B>}.

    branch "zero": control atom idle, V = 0; the full three-level dynamics
    is integrated and population left in |R> is reported as leakage.
    branch "rydberg": control atom Rydberg-excited; with perfect blockade
    the |R> level is dropped analytically and |+> picks up the Raman area
    as a phase, otherwise the three-level dynamics runs at the finite
    blockade shift.  ``ValueError`` if the phase bound to integrate,
    |Omega_c^2/4Delta| (1 + V + x_max^2) T, exceeds :data:`MAX_PULSE_PHASE`.
    """
    if branch not in ("zero", "rydberg"):
        raise ValueError("branch must be 'zero' or 'rydberg'")
    if profile.duration == 0.0:
        return PulseOutcome(np.eye(2, dtype=complex), 0.0)
    if branch == "rydberg" and math.isinf(profile.blockade):
        area = raman_area(profile)
        u_pm = np.diag([np.exp(-1j * area), 1.0])
        return PulseOutcome(_T_AB @ u_pm @ _T_AB, 0.0)
    v = 0.0 if branch == "zero" else profile.blockade
    phase = abs(profile.prefactor) * (1.0 + v + profile.x_max * profile.x_max) * profile.duration
    if not phase <= MAX_PULSE_PHASE:
        raise ValueError(f"pulse phase {phase:.3g} rad exceeds {MAX_PULSE_PHASE:g} rad")
    h = _h_of_t(profile, v)
    plus_final = _integrate(h, np.array([1.0, 0.0, 0.0]), profile.duration)
    # |-> is exactly stationary, so the {+,-} block is diagonal
    u_pm = np.array([[plus_final[0], 0.0], [0.0, 1.0]], dtype=complex)
    leak = float(abs(plus_final[2]) ** 2)
    return PulseOutcome(_T_AB @ u_pm @ _T_AB, leak)


def raman_area(profile: PulseProfile) -> float:
    """integral_0^T (Omega_c^2/4Delta) x(t)^2 dt; pi drives |A> -> -|B>."""
    from scipy.integrate import quad
    try:
        value, err = quad(
            lambda t: profile.x_of_t(t) ** 2,
            0.0,
            profile.duration,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=200,
        )
        area, err = profile.prefactor * value, profile.prefactor * err
    except OverflowError:  # a float power past the largest double
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(f"non-finite Raman prefactor or area at duration {profile.duration}")
    if area != 0.0 and not abs(err) <= 1e-8 * abs(area):
        raise IntegrationError("Raman-area quadrature above tolerance")
    return area


def calibrate_area(profile: PulseProfile, target: float = math.pi) -> PulseProfile:
    """Rescale the envelope amplitude so the Raman area hits the target.

    The area is exactly quadratic in the amplitude scale, so one rescaling
    suffices; the result is verified to 1e-8 relative.
    """
    area = raman_area(profile)
    if area <= 0.0:
        raise ValueError("cannot calibrate a pulse with zero area")
    scale = math.sqrt(target / area)

    def scaled(t, _f=profile.x_of_t, _s=scale):
        return _s * _f(t)

    out = replace(profile, x_of_t=scaled, x_max=scale * profile.x_max)
    if not abs(raman_area(out) - target) <= 1e-8 * abs(target):
        raise IntegrationError("area calibration missed the target")
    return out


def calibrate_duration(profile: PulseProfile, target: float = math.pi) -> PulseProfile:
    """Rescale the pulse duration (time-stretching the envelope) to the
    target area, keeping the amplitude fixed."""
    area = raman_area(profile)
    if area <= 0.0:
        raise ValueError("cannot calibrate a pulse with zero area")
    factor = target / area
    new_t = profile.duration * factor

    def stretched(t, _f=profile.x_of_t, _c=1.0 / factor):
        return _f(t * _c)

    out = replace(profile, duration=new_t, x_of_t=stretched)
    if not abs(raman_area(out) - target) <= 1e-8 * abs(target):
        raise IntegrationError("area calibration missed the target")
    return out


#: ideal conditional transfer at Raman area pi: |A> -> -|B>, |B> -> -|A>
SWAP_TARGET = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)


def _overlap_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    """|tr(target^dag u)| / 2: phase-insensitive two-level gate fidelity."""
    return float(abs(np.trace(target.conj().T @ u)) / 2.0)


def gate_fidelity(profile: PulseProfile):
    """(f_zero, f_rydberg, leak_zero) of a calibrated (area = pi) pulse.

    f_zero measures transparency of the idle branch against the identity;
    f_rydberg measures the conditional transfer against |A> -> -|B>.  Both
    are evaluated up to a global phase and lie in [0, 1].  leak_zero is the
    idle branch's final |R> population, from the same solve as f_zero.
    """
    area = raman_area(profile)
    if not abs(area - math.pi) <= 1e-6:
        raise ValueError(
            f"profile not calibrated: Raman area {area:.8f} != pi "
            "(use calibrate_area or calibrate_duration)"
        )
    zero = evolve_pulse(profile, "zero")
    f_zero = _overlap_fidelity(zero.unitary, np.eye(2))
    f_rydberg = _overlap_fidelity(evolve_pulse(profile, "rydberg").unitary, SWAP_TARGET)
    return f_zero, f_rydberg, zero.leak_r
