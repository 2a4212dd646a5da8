"""Output checks for the benchmark's experiments.

Each check compares a CLI output with an independent oracle or a closed
form, and returns a list of failure messages (empty when the output is
right).  The checks read the physics, not the bytes, so they keep passing
when a later change legitimately alters the random streams.

False-alarm rates:

* Deterministic checks (closed forms, exact identities, term counts,
  per-trajectory monotonicity) have a false-alarm rate of zero; their
  tolerances sit far above the measured floating-point error.
* Each statistical check is a family of m z-tests with a Bonferroni
  threshold at a family-wise two-sided false-alarm rate of ``ALPHA`` under
  the normal approximation of the trajectory means.  Bonferroni is
  conservative for the correlated per-step tests used here.
"""

from __future__ import annotations

import math
from statistics import NormalDist

#: family-wise false-alarm rate of each statistical check
ALPHA = 1e-3


def z_threshold(m: int, alpha: float = ALPHA) -> float:
    """Two-sided Bonferroni threshold for m simultaneous z-tests."""
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * m))


def option(argv, flag: str, default=None) -> str | None:
    """Value of ``--flag`` in an experiment's argument list."""
    argv = list(argv)
    for k, token in enumerate(argv[:-1]):
        if token == flag:
            return argv[k + 1]
    return default


def angle(text: str) -> float:
    """Radians from "pi", "pi/4", "3pi/4" or a raw float."""
    s = text.strip().lower()
    if "pi" not in s:
        return float(s)
    head, _, denom = s.partition("/")
    coeff = head.replace("pi", "")
    if coeff in ("", "+", "-"):
        coeff += "1"
    return float(coeff) * math.pi / (float(denom) if denom else 1.0)


def thetas(argv) -> list[float]:
    return [angle(t) for t in option(argv, "--theta").split(",")]


def parse_csv(text: str):
    """Header and rows; numeric cells become floats, others stay text."""
    lines = text.splitlines()
    if not lines:
        return [], []
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return lines[0].split(","), rows


def _expect_header(header, expected, failures) -> bool:
    if header != expected:
        failures.append(f"header {header} != {expected}")
        return False
    return True


def _blocks(rows, n_theta: int, n_steps: int, failures):
    """Split rows into one block per theta, each of steps 0..n_steps."""
    if len(rows) != n_theta * (n_steps + 1):
        failures.append(f"{len(rows)} rows, expected {n_theta * (n_steps + 1)}")
        return None
    blocks = [rows[k * (n_steps + 1):(k + 1) * (n_steps + 1)] for k in range(n_theta)]
    for block in blocks:
        if [r[0] for r in block] != list(range(n_steps + 1)):
            failures.append("step column is not 0..steps in each block")
            return None
    return blocks


def _check_thetas(blocks, expected, failures):
    for block, theta in zip(blocks, expected):
        if any(abs(r[1] - theta) > 1e-12 for r in block):
            failures.append(f"theta column differs from requested {theta}")


def _non_increasing(values, label, failures):
    """Every trajectory's excited-cell count never grows (a flip either
    moves an excitation or annihilates a pair), so neither does the mean."""
    for k in range(1, len(values)):
        if values[k] > values[k - 1] + 1e-9:
            failures.append(f"{label}: mean energy rises at step {k}")
            return


# -- toric-cool --------------------------------------------------------

def check_compare(out) -> list[str]:
    """``--engine compare``: recomputed z-scores, energy bounds,
    monotone cooling on both engines, and the maximum z against a
    Bonferroni threshold over all (theta, step) rows at ``ALPHA``."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["step", "theta", "mean_syndrome", "stderr_syndrome",
                                   "mean_trajectory", "stderr_trajectory", "z"],
                          failures):
        return failures
    lx, ly = int(option(out.argv, "--lx")), int(option(out.argv, "--ly"))
    steps = int(option(out.argv, "--steps"))
    expected_thetas = thetas(out.argv)
    blocks = _blocks(rows, len(expected_thetas), steps, failures)
    if blocks is None:
        return failures
    _check_thetas(blocks, expected_thetas, failures)
    bound = 2 * lx * ly
    max_z = 0.0
    for block, theta in zip(blocks, expected_thetas):
        for col, label in ((2, "syndrome"), (4, "trajectory")):
            values = [r[col] for r in block]
            if any(abs(v) > bound + 1e-9 for v in values):
                failures.append(f"{label} energy outside +-{bound} at theta {theta}")
            _non_increasing(values, f"{label} theta={theta:.4f}", failures)
        for r in block:
            diff = abs(r[2] - r[4])
            sigma = math.hypot(r[3], r[5])
            z = 0.0 if diff <= 1e-9 else diff / max(sigma, 1e-300)
            if abs(z - r[6]) > 1e-9 * max(1.0, z):
                failures.append(f"z column {r[6]} != recomputed {z} at step {r[0]:.0f}")
            max_z = max(max_z, z)
    limit = z_threshold(len(rows))
    if max_z > limit:
        failures.append(f"max z {max_z:.3f} above Bonferroni limit {limit:.3f}")
    flagged = out.status == 1 and "3-sigma failure" in out.stderr
    if out.status not in (0, 1) or (out.status == 1 and not flagged):
        failures.append(f"unexpected exit status {out.status}")
    elif flagged != (max_z > 3.0):
        failures.append("CLI 3-sigma verdict disagrees with the z column")
    return failures


def check_syndrome(out) -> list[str]:
    """``--engine syndrome``: energy bounds; step-0 mean zero within z
    (q_init = 1/2 with parity repair is uniform over even-parity
    configurations); monotone cooling; the largest-theta curve below the
    smallest-theta curve at every later step within z."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["step", "theta", "engine", "mean_energy", "stderr"],
                          failures):
        return failures
    lx, ly = int(option(out.argv, "--lx")), int(option(out.argv, "--ly"))
    steps = int(option(out.argv, "--steps"))
    expected_thetas = thetas(out.argv)
    blocks = _blocks(rows, len(expected_thetas), steps, failures)
    if blocks is None:
        return failures
    _check_thetas(blocks, expected_thetas, failures)
    if any(r[2] != "syndrome" for r in rows):
        failures.append("engine column is not 'syndrome'")
    bound = 2 * lx * ly
    z0 = z_threshold(len(blocks))
    for block, theta in zip(blocks, expected_thetas):
        values = [r[3] for r in block]
        if any(abs(v) > bound + 1e-9 for v in values):
            failures.append(f"energy outside +-{bound} at theta {theta}")
        mean0, se0 = block[0][3], block[0][4]
        if abs(mean0) > z0 * se0:
            failures.append(f"step-0 mean {mean0} is not zero within {z0:.2f} stderr")
        _non_increasing(values, f"theta={theta:.4f}", failures)
    hot = max(range(len(blocks)), key=lambda k: expected_thetas[k])
    cold = min(range(len(blocks)), key=lambda k: expected_thetas[k])
    if expected_thetas[hot] > expected_thetas[cold]:
        z_order = z_threshold(steps)
        for a, b in zip(blocks[hot][1:], blocks[cold][1:]):
            if a[3] > b[3] + z_order * math.hypot(a[4], b[4]):
                failures.append(
                    f"theta {expected_thetas[hot]:.4f} curve above theta "
                    f"{expected_thetas[cold]:.4f} curve at step {a[0]:.0f}")
                break
    return failures


def check_lindblad(out) -> list[str]:
    """``--engine lindblad``: E(t) = -(1 - 2 q exp(-gamma t)) with
    gamma = sin^2(theta/2), to 1e-8."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["step", "theta", "engine", "mean_energy", "stderr"],
                          failures):
        return failures
    steps = int(option(out.argv, "--steps"))
    q = float(option(out.argv, "--q-init", "0.5"))
    expected_thetas = thetas(out.argv)
    blocks = _blocks(rows, len(expected_thetas), steps, failures)
    if blocks is None:
        return failures
    _check_thetas(blocks, expected_thetas, failures)
    for block, theta in zip(blocks, expected_thetas):
        gamma = math.sin(theta / 2.0) ** 2
        for r in block:
            exact = -(1.0 - 2.0 * q * math.exp(-gamma * r[0]))
            if abs(r[3] - exact) > 1e-8 or r[4] != 0.0:
                failures.append(f"theta {theta:.4f} step {r[0]:.0f}: energy {r[3]} "
                                f"!= closed form {exact}")
                break
    return failures


# -- coherent evolution ------------------------------------------------

def _evolution_block(out, expected_header, failures):
    header, rows = parse_csv(out.text)
    if not _expect_header(header, expected_header, failures):
        return None
    steps = int(option(out.argv, "--steps"))
    tau = float(option(out.argv, "--tau"))
    if [r[0] for r in rows] != list(range(steps + 1)):
        failures.append("step column is not 0..steps")
        return None
    if any(abs(r[1] - r[0] * tau) > 1e-12 for r in rows):
        failures.append("time column is not step * tau")
    return rows


def check_toric_evolve(out) -> list[str]:
    """All toric terms commute, so the energy of |0...0> stays at its
    closed-form value -Lx*Ly (stars +1, plaquettes 0) to 1e-9."""
    failures: list[str] = []
    rows = _evolution_block(out, ["step", "time", "energy"], failures)
    if rows is None:
        return failures
    e0 = -float(option(out.argv, "--lx")) * float(option(out.argv, "--ly"))
    drift = max(abs(r[2] - e0) for r in rows)
    if drift > 1e-9:
        failures.append(f"energy drifts {drift:.3e} from {e0} (limit 1e-9)")
    return failures


#: stated bound on second-order Trotter drift of the Heisenberg workload
#: (measured: 2.6e-5 in energy, 3.7e-5 in total Z)
HEISENBERG_DRIFT = 1e-3


def check_heisenberg(out) -> list[str]:
    """Open-grid XXZ model in a z field from |0...0>: the initial energy is
    -Jz/2 * bonds + h * n in closed form, total Z starts at n, and both stay
    within ``HEISENBERG_DRIFT`` (exact evolution conserves both)."""
    failures: list[str] = []
    rows = _evolution_block(out, ["step", "time", "energy", "total_z"], failures)
    if rows is None:
        return failures
    lx, ly = int(option(out.argv, "--lx")), int(option(out.argv, "--ly", "1"))
    jz = float(option(out.argv, "--jz", "1.0"))
    field = float(option(out.argv, "--field", "0.0"))
    n, bonds = lx * ly, (lx - 1) * ly + lx * (ly - 1)
    e0 = -0.5 * jz * bonds + field * n
    if abs(rows[0][2] - e0) > 1e-12 or abs(rows[0][3] - n) > 1e-12:
        failures.append(f"initial energy/total Z {rows[0][2:4]} != ({e0}, {n})")
    drift = max(max(abs(r[2] - e0), abs(r[3] - n)) for r in rows)
    if drift > HEISENBERG_DRIFT:
        failures.append(f"Trotter drift {drift:.3e} above {HEISENBERG_DRIFT}")
    return failures


# -- spectra -----------------------------------------------------------

def _spinful(argv) -> bool:
    return option(argv, "--spinful", "false").lower() in ("1", "true", "yes", "on")


def _n_modes(argv) -> int:
    return int(option(argv, "--lx")) * int(option(argv, "--ly")) * (
        2 if _spinful(argv) else 1)


def check_hubbard_both(out) -> list[str]:
    """Fock oracle against the Jordan-Wigner image: all 2^modes levels,
    recomputed |delta| <= 1e-9, and the level sum equal to the closed-form
    trace U * sites * 2^(modes-2) (hopping is traceless)."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["index", "sector", "eigenvalue_jw",
                                   "eigenvalue_fock", "abs_delta"], failures):
        return failures
    modes = _n_modes(out.argv)
    if len(rows) != 1 << modes:
        failures.append(f"{len(rows)} levels, expected {1 << modes}")
        return failures
    worst = max(abs(r[2] - r[3]) for r in rows)
    if worst > 1e-9 or any(abs(abs(r[2] - r[3]) - r[4]) > 1e-12 for r in rows):
        failures.append(f"Fock vs JW max |delta| {worst:.3e} (limit 1e-9)")
    u = float(option(out.argv, "--u", "0.0"))
    trace = u * (modes // 2) * 2.0 ** (modes - 2) if _spinful(out.argv) else 0.0
    total = sum(r[3] for r in rows)
    if abs(total - trace) > 1e-8 * max(1.0, abs(trace)):
        failures.append(f"level sum {total} != trace {trace}")
    return failures


def check_hubbard_local(out) -> list[str]:
    """Local encoding against the Jordan-Wigner image: 2^modes levels with
    recomputed |delta| <= 1e-9."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["index", "eigenvalue_jw",
                                   "eigenvalue_local_shifted", "abs_delta"], failures):
        return failures
    modes = _n_modes(out.argv)
    if len(rows) != 1 << modes:
        failures.append(f"{len(rows)} levels, expected {1 << modes}")
        return failures
    worst = max(abs(r[1] - r[2]) for r in rows)
    if worst > 1e-9 or any(abs(abs(r[1] - r[2]) - r[3]) > 1e-12 for r in rows):
        failures.append(f"local vs JW max |delta| {worst:.3e} (limit 1e-9)")
    return failures


# -- pulse ---------------------------------------------------------------

def check_gate_fidelity(out) -> list[str]:
    """Fidelities and leakage in [0, 1], f_zero non-decreasing in T, and the
    calibrated amplitude equal to its closed form: the sin^2 envelope has
    Raman area pref * x_max^2 * 3T/8 = pi."""
    failures: list[str] = []
    header, rows = parse_csv(out.text)
    if not _expect_header(header, ["T", "x_max", "V", "f_zero", "f_rydberg", "leak_R"],
                          failures):
        return failures
    durations = [float(v) for v in option(out.argv, "--durations").split(",")]
    if [r[0] for r in rows] != durations:
        failures.append("T column differs from the requested durations")
        return failures
    pref = float(option(out.argv, "--omega-c", "2.0")) ** 2 / (
        4.0 * float(option(out.argv, "--delta", "1.0")))
    for r in rows:
        x_exact = math.sqrt(8.0 * math.pi / (3.0 * r[0] * pref))
        if abs(r[1] - x_exact) > 1e-8 * x_exact:
            failures.append(f"T={r[0]}: x_max {r[1]} != closed form {x_exact}")
        if not all(0.0 <= v <= 1.0 + 1e-12 for v in r[3:6]):
            failures.append(f"T={r[0]}: fidelity or leakage outside [0, 1]")
    f_zero = [r[3] for r in rows]
    if any(b < a - 1e-9 for a, b in zip(f_zero, f_zero[1:])):
        failures.append("f_zero decreases with pulse duration")
    return failures


# -- Hamiltonian dumps ---------------------------------------------------

def _dump_lines(out, failures):
    lines = out.text.splitlines()
    summary = f"terms={len(lines)}"
    if summary not in out.stderr:
        failures.append(f"CLI summary does not report {summary}")
    return [line.split() for line in lines]


def check_dump_toric(out) -> list[str]:
    """Toric dump: 2*Lx*Ly terms of coefficient -1, half of them four X's
    and half four Z's, all distinct, and every edge in exactly two
    plaquettes and two stars."""
    failures: list[str] = []
    lines = _dump_lines(out, failures)
    lx, ly = int(option(out.argv, "--lx")), int(option(out.argv, "--ly"))
    n = 2 * lx * ly
    if len(lines) != n:
        return failures + [f"{len(lines)} terms, expected {n}"]
    if any(len(f) != 3 or float(f[0]) != -1.0 or float(f[1]) != 0.0 for f in lines):
        return failures + ["a term is not '-1 0 <word>'"]
    words = [f[2] for f in lines]
    if len(set(words)) != n or any(len(w) != n for w in words):
        return failures + ["words are repeated or have the wrong length"]
    for letter in "XZ":
        group = [w for w in words if letter in w]
        if len(group) != lx * ly or any(
                w.count(letter) != 4 or w.count("I") != n - 4 for w in group):
            failures.append(f"{letter} terms are not {lx * ly} four-body strings")
            continue
        cover = [sum(w[q] == letter for w in group) for q in range(n)]
        if set(cover) != {2}:
            failures.append(f"an edge is not in exactly two {letter} terms")
    return failures


def check_dump_hubbard_local(out) -> list[str]:
    """Local-encoding dump at U = 0: per spin species 2*Ly*(Lx-1) horizontal
    and 2*Lx*(Ly-1) vertical hopping strings plus (Lx/2)*(Ly-1) auxiliary
    pair terms, real coefficients, every term at most six-body, and the
    ``parse_operator``/``format_operator`` round trip reproduces the text."""
    from rydsim.pauli import format_operator, parse_operator

    failures: list[str] = []
    lines = _dump_lines(out, failures)
    lx, ly = int(option(out.argv, "--lx")), int(option(out.argv, "--ly"))
    modes = _n_modes(out.argv)
    species = modes // (lx * ly)
    n_terms = species * (2 * ly * (lx - 1) + 2 * lx * (ly - 1) + (lx // 2) * (ly - 1))
    if len(lines) != n_terms:
        return failures + [f"{len(lines)} terms, expected {n_terms}"]
    if any(float(f[1]) != 0.0 for f in lines):
        failures.append("a coefficient is not real")
    if any(len(f[2]) != 2 * modes or len(f[2]) - f[2].count("I") > 6 for f in lines):
        failures.append("a term has the wrong length or acts on more than six qubits")
    if format_operator(parse_operator(out.text)) != out.text:
        failures.append("parse_operator/format_operator round trip changes the text")
    return failures
