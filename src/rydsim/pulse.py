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
in closed form.  Only {|+>, |R>} is coupled, by a real symmetric H(t), and
a fourth-order Magnus propagator integrates it: the step count doubles
from 1024 until the |+> column moves by less than 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CapExceededError

_SQRT2 = math.sqrt(2.0)

#: largest phase bound (rad) evolve_pulse integrates: at 1e6 rad the Magnus
#: propagator needs up to 2^23 steps, 5.3 s on a 2-vCPU VM for the slowest
#: envelope, with under 16 MB traced; the benchmark's largest pulse is 8.8e3 rad
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

    def x(self, t):
        """Relative probe strength at time t in [0, T], a float or an array."""
        return self.x_max * np.sin(np.pi * np.asarray(t) / self.duration) ** 2


def heff(x, v: float, omega_c: float, delta: float) -> np.ndarray:
    """Effective Hamiltonian on the coupled pair {|+>, |R>} (hbar = 1), one
    per entry of ``x`` (shape ``x.shape + (2, 2)``).

    (Omega_c^2/4Delta) [x^2 |+><+| + (1+V)|R><R| + x(|+><R| + h.c.)]; the
    third state |-> has no coupling and no energy, so it is exactly
    stationary.
    """
    if delta == 0.0:
        raise ValueError("detuning must be nonzero")
    if not math.isfinite(v):
        raise ValueError("heff needs a finite blockade; the infinite limit "
                         "is handled analytically by evolve_pulse")
    x = np.asarray(x, dtype=float)
    h = np.empty(x.shape + (2, 2))
    h[..., 0, 0] = x * x
    h[..., 0, 1] = h[..., 1, 0] = x
    h[..., 1, 1] = 1.0 + v
    h *= omega_c**2 / (4.0 * delta)
    return h


@dataclass
class PulseOutcome:
    """Result of one pulse: the map on {|A>, |B>} and the |R> leakage."""

    unitary: np.ndarray
    leak_r: float


#: Gauss-Legendre nodes of a step, as fractions of it
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
#: steps whose step unitaries are held at once
_CHUNK = 1 << 15
#: doublings of the step count, from 1024, before evolve_pulse gives up
_MAX_DOUBLINGS = 14


def _product(steps: np.ndarray) -> np.ndarray:
    """The product of a power-of-two run of U(2) steps g [[a, b], [-b*, a*]],
    given as the rows (g, a, b) of ``steps``, later steps on the left, by a
    pairwise tree: the same form, as a (3, 1) array."""
    while steps.shape[1] > 1:
        (g1, a1, b1), (g2, a2, b2) = steps[:, ::2], steps[:, 1::2]
        steps = np.array([g2 * g1, a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()])
    return steps


def _plus_column(profile: PulseProfile, v: float, n: int) -> np.ndarray:
    """Amplitudes on (|+>, |R>) at T from |+>, by n steps of the fourth-order
    Magnus propagator exp(-i dt (H1 + H2)/2 - sqrt3/12 dt^2 [H2, H1]) with H
    at a step's two Gauss nodes (Blanes, Casas, Oteo, Ros 2009)."""
    dt = profile.duration / n
    chunks = []
    for start in range(0, n, _CHUNK):
        t = (np.arange(start, min(n, start + _CHUNK))[:, None] + _GAUSS) * dt
        h = heff(profile.x(t), v, profile.omega_c, profile.delta)
        h *= dt
        pp, pr, rr = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]  # (steps, nodes) each
        # the step is exp(-i M), M = (H1 + H2) dt/2 + i sqrt3/12 dt^2 [H1, H2]; the
        # commutator of real symmetric H is antisymmetric, so it sits in b = M[0, 1]
        comm = pr[:, 1] * (pp[:, 0] - rr[:, 0]) - pr[:, 0] * (pp[:, 1] - rr[:, 1])
        b = 0.5 * (pr[:, 0] + pr[:, 1]) + 1j * math.sqrt(3.0) / 12.0 * comm
        mz = 0.25 * (pp - rr).sum(axis=1)
        r = np.sqrt(mz * mz + (b * b.conj()).real)
        sinc = np.sinc(r / np.pi)
        chunks.append(_product(np.array([np.exp(-0.25j * (pp + rr).sum(axis=1)),
                                         np.cos(r) - 1j * mz * sinc, -1j * sinc * b])))
    g, a, b = _product(np.hstack(chunks))[:, 0]
    return g * np.array([a, -b.conj()])


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
    |Omega_c^2/4Delta| (1 + V + x_max^2) T, exceeds :data:`MAX_PULSE_PHASE`;
    ``CapExceededError`` if :data:`_MAX_DOUBLINGS` doublings do not converge.
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
    n, plus = 1024, _plus_column(profile, v, 1024)
    for _ in range(_MAX_DOUBLINGS):
        n, last, plus = 2 * n, plus, _plus_column(profile, v, 2 * n)
        if np.abs(plus - last).max() < 1e-10:
            break
    else:
        raise CapExceededError(f"pulse not converged to 1e-10 at {n} Magnus steps")
    # |-> is exactly stationary, so the {+,-} block is diagonal
    u_pm = np.array([[plus[0], 0.0], [0.0, 1.0]], dtype=complex)
    leak = float(abs(plus[1]) ** 2)
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
        raise ValueError(f"cannot calibrate a pulse whose Raman area {area:.6g} is not positive")
    return replace(profile, x_max=profile.x_max * math.sqrt(math.pi / area))


def calibrate_duration(profile: PulseProfile) -> PulseProfile:
    """The pulse stretched in time to Raman area pi, keeping the amplitude."""
    area = raman_area(profile)
    if area <= 0.0:
        raise ValueError(f"cannot calibrate a pulse whose Raman area {area:.6g} is not positive")
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
