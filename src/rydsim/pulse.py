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
unit-safe; for the sin^2 envelope it is ``Omega_c^2/(4 Delta) x_max^2 3T/8``
in closed form.  scipy integrates pulses only (DOP853, rtol 1e-10); it loads
at the first such call, not with this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError

_SQRT2 = math.sqrt(2.0)

#: largest phase bound (rad) evolve_pulse integrates: DOP853 costs about
#: 30 us per rad (1e6 rad in 32 s on a 2-vCPU VM), so a solve stays near half
#: a minute; the benchmark's largest pulse is 8.8e3 rad
MAX_PULSE_PHASE = 1e6


@dataclass(frozen=True)
class PulseProfile:
    """The smooth probe envelope x(t) = x_max sin^2(pi t / T) with its laser
    parameters.

    x = sqrt(2) Omega_p / Omega_c is the relative probe strength; the pulse
    starts and ends off.  ``blockade`` is the interaction shift of the
    ensemble Rydberg level when the control atom is excited; ``math.inf``
    means perfect blockade.
    """

    x_max: float
    duration: float
    omega_c: float = 2.0
    delta: float = 1.0
    blockade: float = math.inf

    def __post_init__(self):
        if self.duration < 0.0:
            raise ValueError("pulse duration must be non-negative")
        if self.delta == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.blockade < 0.0:
            raise ValueError("blockade shift must be non-negative")

    @property
    def prefactor(self) -> float:
        """Energy scale Omega_c^2 / (4 Delta) of the effective Hamiltonian."""
        return self.omega_c**2 / (4.0 * self.delta)

    def x(self, t: float) -> float:
        """Relative probe strength at time t in [0, T]."""
        return self.x_max * math.sin(math.pi * t / self.duration) ** 2


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
        return heff(profile.x(t), v, profile.omega_c, profile.delta)

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
    """integral_0^T (Omega_c^2/4Delta) x(t)^2 dt = (Omega_c^2/4Delta) x_max^2 3T/8,
    as the mean of sin^4 over its period is 3/8; pi drives |A> -> -|B>."""
    try:
        area = profile.prefactor * profile.x_max**2 * 3.0 * profile.duration / 8.0
    except OverflowError:  # a float power past the largest double
        area = math.inf
    if not math.isfinite(area):
        raise ValueError(f"non-finite Raman prefactor or area at duration {profile.duration}")
    return area


def calibrate_area(profile: PulseProfile) -> PulseProfile:
    """The pulse with its amplitude rescaled to Raman area pi, which is
    |x_max| = sqrt(8 pi / (3 T Omega_c^2/4Delta)); the sign of x_max stays."""
    area = raman_area(profile)
    if area <= 0.0:
        raise ValueError("cannot calibrate a pulse with zero area")
    return replace(profile, x_max=profile.x_max * math.sqrt(math.pi / area))


def calibrate_duration(profile: PulseProfile) -> PulseProfile:
    """The pulse stretched in time to Raman area pi, keeping the amplitude."""
    area = raman_area(profile)
    if area <= 0.0:
        raise ValueError("cannot calibrate a pulse with zero area")
    return replace(profile, duration=profile.duration * math.pi / area)


#: ideal conditional transfer at Raman area pi: |A> -> -|B>, |B> -> -|A>
SWAP_TARGET = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)


def _overlap_fidelity(u: np.ndarray, ideal: np.ndarray) -> float:
    """|tr(ideal^dag u)| / 2: phase-insensitive two-level gate fidelity."""
    return float(abs(np.trace(ideal.conj().T @ u)) / 2.0)


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
