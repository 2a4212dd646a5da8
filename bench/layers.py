"""What the traced run instruments, and the per-layer metrics it reports.

Every per-layer metric is reported on every workload; a function the
workload never calls reads 0 calls and 0 time.  Work figures marked
``computed`` are derived from array sizes (2^n amplitudes per state-vector
call, 16 * 4^n bytes per dense matrix), not measured traffic.
"""

from __future__ import annotations

import numpy as np

from tracer import Target, tail_percentile

SUBCOMMANDS = ("toric-cool", "toric-evolve", "heisenberg", "hubbard-spectrum",
               "gate-fidelity", "dump-hamiltonian")


def _state_amps(args, kwargs, result):
    return float(1 << args[0].n_qubits)


def _matrix_bytes(args, kwargs, result):
    return 16.0 * result.size


def _flipped(args, kwargs, result):
    return 1.0 if result[1] else 0.0


def _trotter_gates(args, kwargs, result):
    return float(len(args[0].gates))


def _string_path(args, kwargs):
    p = args[2] if len(args) > 2 else kwargs["p"]
    pure_x = p.z_mask == 0 and p.phase_exp == 0
    return "gates.controlled_string." + ("perm" if pure_x else "dense")


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return "cli.main." + argv[0]


STATEVEC_OPS = ("apply_operator", "apply_exp_pauli", "apply_string",
                "measure_projector", "expectation")

GATE_STEPS = ("plaquette_step", "star_step", "heisenberg_xx_step",
              "heisenberg_yy_step", "heisenberg_zz_step")

TARGETS = (
    Target("rydsim.cli", "main", "cli.main", classify=_cli_command,
           variants=tuple(f"cli.main.{c}" for c in SUBCOMMANDS)),
    *(Target("rydsim.cooling", f, f"cooling.{f}") for f in (
        "trajectory_run", "equivalence_check", "syndrome_mc_run",
        "lindblad_reference_trace", "lindblad_integrate")),
    Target("rydsim.cooling", "cooling_cycle_trajectory",
           "cooling.cooling_cycle_trajectory", work=_flipped),
    *(Target("rydsim.gates", f, f"gates.{f}")
      for f in ("syndrome_map", "controlled_flip", "cnot_n", *GATE_STEPS)),
    Target("rydsim.gates", "controlled_string", "gates.controlled_string",
           classify=_string_path,
           variants=("gates.controlled_string.perm", "gates.controlled_string.dense")),
    *(Target("rydsim.statevec", f"StateVector.{f}", f"statevec.{f}", work=_state_amps)
      for f in STATEVEC_OPS if f != "measure_projector"),
    Target("rydsim.statevec", "measure_projector", "statevec.measure_projector",
           work=_state_amps),
    Target("rydsim.statevec", "DensityMatrix.expectation",
           "statevec.DensityMatrix.expectation"),
    Target("rydsim.pauli", "to_matrix", "pauli.to_matrix", work=_matrix_bytes),
    Target("rydsim.pauli", "OperatorSum.normalized", "pauli.OperatorSum.normalized"),
    Target("rydsim.pauli", "format_operator", "pauli.format_operator"),
    Target("rydsim.pauli", "pauli_mul", "pauli.pauli_mul", count_only=True),
    *(Target("rydsim.models", f, f"models.{f}") for f in (
        "build_toric", "build_heisenberg", "build_hubbard_jw", "build_hubbard_local",
        "build_aux_hamiltonian", "constrained_local_spectrum", "toric_ground_state")),
    Target("rydsim.fock", "hubbard_matrix", "fock.hubbard_matrix"),
    Target("rydsim.fock", "spectrum", "fock.spectrum"),
    Target("rydsim.trotter", "trotterize", "trotter.trotterize"),
    Target("rydsim.trotter", "run", "trotter.run", work=_trotter_gates),
    *(Target("rydsim.pulse", f, f"pulse.{f}")
      for f in ("evolve_pulse", "raman_area", "gate_fidelity")),
    Target("rydsim.pulse", "heff", "pulse.heff", count_only=True),
)


class _Metrics:
    """Collects ``name -> {"value", "unit"}`` in reporting order."""

    def __init__(self, stats):
        self.stats = stats
        self.out: dict[str, dict] = {}

    def put(self, name, value, unit):
        self.out[name] = {"value": float(value), "unit": unit}

    def calls(self, span):
        st = self.stats.get(span)
        self.put(f"{span}.calls", st.calls if st else 0, "count")

    def total(self, span):
        st = self.stats.get(span)
        self.put(f"{span}.s", st.total_s if st else 0.0, "s")

    def p50(self, span, unit="us"):
        scale = {"us": 1e6, "ms": 1e3}[unit]
        st = self.stats.get(span)
        value = float(np.median(st.durations_s)) * scale if st and st.calls else 0.0
        self.put(f"{span}.p50_{unit}", value, unit)

    def tail(self, span, unit="us"):
        """Highest percentile with at least ten samples beyond it, with
        that percentile; both read 0 below 20 samples."""
        st = self.stats.get(span)
        pct = tail_percentile(st.calls) if st else None
        value = (float(np.percentile(st.durations_s, pct)) * 1e6) if pct else 0.0
        self.put(f"{span}.tail_{unit}", value, unit)
        self.put(f"{span}.tail_pct", pct or 0.0, "%")


def layer_metrics(stats, counts, context) -> dict[str, dict]:
    """Per-layer metrics of one traced pass.

    ``stats`` maps span names to :class:`tracer.SpanStats`, ``counts``
    holds the count-only wrappers, and ``context`` carries the figures
    taken outside the tracer: ``cycles``, ``cell_visits``,
    ``pool_fallbacks``, ``compare_flags``, ``tracing_overhead_s`` and
    ``spans``.
    """
    m = _Metrics(stats)

    # cli: wall time per subcommand and self time (config parsing, CSV write)
    for command in SUBCOMMANDS:
        m.total(f"cli.main.{command}")
    m.put("cli.main.self_s",
          sum(st.self_s for k, st in stats.items() if k.startswith("cli.main.")), "s")

    # cooling
    m.put("cooling.cycles_attempted", context["cycles"], "count")
    m.total("cooling.trajectory_run")
    m.total("cooling.equivalence_check")
    cycle = "cooling.cooling_cycle_trajectory"
    m.calls(cycle)
    m.p50(cycle)
    m.tail(cycle)
    st = stats.get(cycle)
    m.put(f"{cycle}.flip_ratio", st.work / st.calls if st and st.calls else 0.0, "ratio")
    m.total("cooling.syndrome_mc_run")
    visits = context["cell_visits"]
    m.put("cooling.mc.cell_visits", visits, "count")
    mc = stats.get("cooling.syndrome_mc_run")
    m.put("cooling.mc.cell_visit_ns",
          mc.total_s / visits * 1e9 if mc and visits else 0.0, "ns")
    m.calls("cooling.lindblad_integrate")
    m.p50("cooling.lindblad_integrate", "ms")
    m.put("cooling.pool_fallbacks", context["pool_fallbacks"], "count")
    m.put("cooling.compare_flags", context["compare_flags"], "count")

    # gates
    for span in ("gates.syndrome_map", "gates.controlled_string.perm",
                 "gates.controlled_string.dense", "gates.controlled_flip",
                 "gates.cnot_n", *(f"gates.{g}" for g in GATE_STEPS)):
        m.calls(span)
        m.p50(span)

    # statevec
    for op in STATEVEC_OPS:
        span = f"statevec.{op}"
        st = stats.get(span)
        m.calls(span)
        m.p50(span)
        m.tail(span)
        m.put(f"{span}.computed_amps", st.work if st else 0.0, "count")
        m.put(f"{span}.computed_amps_per_s",
              st.work / st.total_s if st and st.total_s else 0.0, "1/s")
    m.calls("statevec.DensityMatrix.expectation")
    m.p50("statevec.DensityMatrix.expectation")

    # pauli
    st = stats.get("pauli.to_matrix")
    m.calls("pauli.to_matrix")
    m.total("pauli.to_matrix")
    m.put("pauli.to_matrix.computed_bytes", st.work if st else 0.0, "B")
    m.calls("pauli.OperatorSum.normalized")
    m.total("pauli.OperatorSum.normalized")
    m.put("pauli.pauli_mul.calls", counts.get("pauli.pauli_mul", 0), "count")
    m.total("pauli.format_operator")

    # models
    for f in ("build_toric", "build_heisenberg", "build_hubbard_jw",
              "build_hubbard_local", "build_aux_hamiltonian",
              "constrained_local_spectrum"):
        m.total(f"models.{f}")
    m.calls("models.toric_ground_state")
    m.p50("models.toric_ground_state")

    # fock
    m.total("fock.hubbard_matrix")
    m.calls("fock.spectrum")
    m.p50("fock.spectrum", "ms")

    # trotter: self time of run() is the per-gate dispatch overhead
    st = stats.get("trotter.run")
    m.total("trotter.trotterize")
    m.calls("trotter.run")
    m.total("trotter.run")
    m.put("trotter.run.self_s", st.self_s if st else 0.0, "s")
    m.put("trotter.gates_applied", st.work if st else 0.0, "count")
    m.put("trotter.gates_per_s", st.work / st.total_s if st and st.total_s else 0.0, "1/s")

    # pulse
    m.calls("pulse.evolve_pulse")
    m.p50("pulse.evolve_pulse", "ms")
    m.put("pulse.heff.calls", counts.get("pulse.heff", 0), "count")
    m.calls("pulse.raman_area")
    m.p50("pulse.raman_area", "ms")
    m.calls("pulse.gate_fidelity")
    m.p50("pulse.gate_fidelity", "ms")

    # harness
    m.put("tracing_overhead_s", context["tracing_overhead_s"], "s")
    m.put("trace.spans", context["spans"], "count")
    return m.out
