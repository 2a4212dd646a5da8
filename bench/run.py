"""rydsim benchmark: CLI experiments timed end to end, or traced per layer.

Run from the repository root::

    python3 bench/run.py --workload cool-trajectory --seed 7 --seconds 40 --trace 0

``--trace 0`` repeats rounds of one timed ``import rydsim.cli`` in a fresh
interpreter (``setup_s``) and one pass over the workload's experiments for
``--seconds``, and reports medians over rounds.  Each timed step is scaled to
a nominal machine speed, measured by a fixed reference job that a timer
signal runs every SAMPLE_INTERVAL_S seconds.  ``--trace 1`` runs one
traced pass between two untraced passes, requires their outputs to be
byte-identical, and reports per-layer metrics from the traced pass plus the
tracing overhead.

Every output is checked against an oracle or a closed form (see
``checks.py``); outputs of later passes must equal the first pass byte for
byte.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 1
when any experiment failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: every process this benchmark
# runs computes on one thread unless RYDSIM_WORKERS says otherwise.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, cooling_work, run_pass  # noqa: E402

#: fewest fresh-interpreter imports timed per run for setup_s
SETUP_REPEATS = 5
#: Times are reported at the machine speed at which one reference_seconds()
#: call takes this long: each timed step is scaled by REF_NOMINAL_S over the
#: mean duration of the reference jobs run during it and just around it.
#: The host's speed swings by tens of percent within seconds; the scaling
#: cancels most of that, and no rydsim code runs in the reference job.
REF_NOMINAL_S = 0.0025
#: seconds between reference jobs while a --trace 0 run is timing
SAMPLE_INTERVAL_S = 0.2
#: reference jobs whose median is one sample before and after a step that
#: runs in child processes
BRACKET_JOBS = 5
REF_UNITARY = np.linalg.qr(np.random.default_rng(1).standard_normal((64, 128))
                           .view(complex))[0]
POOL_FALLBACK = "process pool unavailable"
OUT_DIR = ".bench_out"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import rydsim.cli; "
                "print(time.perf_counter() - t)")


def report(line: str):
    print(line, flush=True)


def load_program(root: Path) -> bool:
    """Import rydsim from ``<root>/src``; False when it is not there."""
    src = root / "src"
    if not (src / "rydsim" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import rydsim.cli

    return Path(rydsim.cli.__file__).resolve().parent == (src / "rydsim").resolve()


def import_seconds(root: Path) -> float:
    """``import rydsim.cli`` timed inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def machine_record(workload) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "RYDSIM_WORKERS": workload.workers,
    }


class Verdicts:
    """Failure bookkeeping.  Each experiment's output is checked once; every
    later pass must reproduce it byte for byte and inherits its verdict."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[int, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def judge(self, outputs, label: str):
        for k, (exp, out) in enumerate(zip(self.workload.experiments, outputs)):
            self.attempted += 1
            problems = []
            if POOL_FALLBACK in out.stderr:
                problems.append("process pool fell back to serial; run is invalid")
            if out.status not in exp.statuses:
                problems.append(f"exit status {out.status}: {out.stderr.strip()[-300:]}")
            if k not in self.first:
                self.first[k] = (out.text, exp.check(out))
            elif out.text != self.first[k][0]:
                problems.append("output differs from the first pass (same seed)")
            problems += self.first[k][1]
            if problems:
                self.failed += 1
                self.failures += [f"{label} {' '.join(exp.argv)}: {p}" for p in problems]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def reference_seconds() -> float:
    """Wall time of one fixed calibration job that uses no rydsim code:
    interpreter work plus small complex numpy kernels, the mix the
    workloads spend their time in."""
    t0 = time.perf_counter()
    table = {}
    for i in range(5000):
        key = i % 977
        table[key] = table.get(key, 0.0) + i * 0.5
    v = np.ones(4096, complex)
    for _ in range(25):
        v = (v.reshape(64, 64) @ REF_UNITARY).ravel()
        v[::2] += v[1::2]
        v /= np.linalg.norm(v)
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the reference job every ``interval`` seconds while active, from
    a SIGALRM handler in the main thread, and keeps when each ran and how
    long it took.  Pool workers forked meanwhile inherit no timer."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _sample(self, *_, jobs: int = 1):
        start = time.perf_counter()
        self.samples.append((start, statistics.median(
            reference_seconds() for _ in range(jobs))))

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    @contextlib.contextmanager
    def paused(self):
        """No jobs inside, BRACKET_JOBS just before and just after: for
        steps that run in child processes, which the jobs would compete
        with."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._sample(jobs=BRACKET_JOBS)
        try:
            yield
        finally:
            self._sample(jobs=BRACKET_JOBS)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(speed, seconds the sampler itself ran) over ``[start, end)``.

        The speed is ``REF_NOMINAL_S`` over the mean of the samples taken
        inside the window, the last one before it and the first one after
        it."""
        inside = [d for t, d in self.samples if start <= t < end]
        before = [d for t, d in self.samples if t < start][-1:]
        after = [d for t, d in self.samples if t >= end][:1]
        return REF_NOMINAL_S / statistics.fmean(before + inside + after), sum(inside)


def end_to_end(workload, root: Path, seed: int, seconds: float, verdicts):
    out_dir = root / OUT_DIR
    rounds = []  # per round: (set-up probe, outputs)
    with SpeedSampler() as sampler:
        # Set-up probes are spread over the run like the passes, so both see
        # the same drift in machine speed.  Stop before a round that would
        # overrun, then top the set-up probes up to SETUP_REPEATS.
        def probe():
            with sampler.paused():
                start = time.perf_counter()
                return start, import_seconds(root), time.perf_counter()

        # Pool workers use every core: a job run beside them would time
        # the competition, not the machine.
        around = sampler.paused if workload.workers > 1 else contextlib.nullcontext
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            setup = probe()
            outputs = run_pass(workload, seed, out_dir, around)
            verdicts.judge(outputs, f"pass {len(rounds)}")
            rounds.append((setup, outputs))
            now = time.perf_counter()
            if now - t0 + (now - start) > seconds:
                break
        extra = []
        while len(rounds) + len(extra) < SETUP_REPEATS:
            extra.append(probe())

    # Each time as (raw seconds, seconds at reference speed).
    def setup_time(probe):
        started, raw, ended = probe
        return raw, raw * sampler.window(started, ended)[0]

    def experiment_time(out):
        speed, sampling = sampler.window(out.started, out.started + out.seconds)
        raw = out.seconds - sampling
        return raw, raw * speed

    setups = [setup_time(p) for p, _ in rounds] + [setup_time(p) for p in extra]
    timed = [[experiment_time(o) for o in outputs] for _, outputs in rounds]
    cycles = sum(cooling_work(e.argv)[0] for e in workload.experiments)

    def per_pass(commands, scaled=True):
        """Per pass, the summed time of the experiments that run one of
        ``commands``, at reference speed or raw."""
        return [sum(t[scaled] for e, t in zip(workload.experiments, times)
                    if e.command in commands)
                for times in timed]

    commands = {e.command for e in workload.experiments}
    for command in sorted(commands):
        report(f"subcommand {command}_s = {statistics.median(per_pass({command})):.4f} s "
               f"at reference speed ({len(rounds)} passes; raw median "
               f"{statistics.median(per_pass({command}, False)):.4f} s)")
    jobs = [d for _, d in sampler.samples]
    lo, hi = quartiles(jobs)
    report(f"reference job = {1e3 * statistics.median(jobs):.3f} ms, nominal "
           f"{1e3 * REF_NOMINAL_S:.3f} ms ({len(jobs)} samples, q1 {1e3 * lo:.3f}, "
           f"q3 {1e3 * hi:.3f})")
    samples = {
        "wall_s": (per_pass(commands), per_pass(commands, False), "s"),
        "toric-cool_s": (per_pass({"toric-cool"}), per_pass({"toric-cool"}, False), "s"),
        "cycles_per_s": ([cycles / t for t in per_pass({"toric-cool"})],
                         [cycles / t for t in per_pass({"toric-cool"}, False)], "1/s"),
        "setup_s": ([t for _, t in setups], [t for t, _ in setups], "s"),
    }
    metrics = {}
    for name, (values, raw, unit) in samples.items():
        value = statistics.median(values)
        lo, hi = quartiles(values)
        report(f"metric {name} = {value:.6g} {unit} at reference speed "
               f"({len(values)} samples, q1 {lo:.6g}, q3 {hi:.6g}; "
               f"raw median {statistics.median(raw):.6g} {unit})")
        metrics[name] = {"value": value, "unit": unit}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report(f"metric peak_rss_mb = {rss_mb:.2f} MB (whole run, 1 sample)")
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    report(f"cooling cycles attempted per pass = {cycles}")
    return metrics


def traced(workload, root: Path, seed: int, verdicts):
    from layers import TARGETS, layer_metrics
    from tracer import Tracer

    out_dir = root / OUT_DIR
    tracer = Tracer(TARGETS)
    seconds = {}
    # untraced, traced, untraced: the overhead estimate cancels linear drift
    # in machine speed; every pass must give the same bytes
    for label in ("untraced", "traced", "untraced again"):
        with tracer.installed() if label == "traced" else contextlib.nullcontext():
            t0 = time.perf_counter()
            outputs = run_pass(workload, seed, out_dir)
            seconds[label] = time.perf_counter() - t0
        verdicts.judge(outputs, label)
        if label == "traced":
            traced_outputs = outputs
    work = [cooling_work(e.argv) for e in workload.experiments]
    context = {
        "cycles": sum(cycles for cycles, _ in work),
        "cell_visits": sum(visits for _, visits in work),
        "pool_fallbacks": sum(POOL_FALLBACK in o.stderr for o in traced_outputs),
        "compare_flags": sum("3-sigma failure" in o.stderr for o in traced_outputs),
        "tracing_overhead_s": seconds["traced"] - 0.5 * (
            seconds["untraced"] + seconds["untraced again"]),
        "spans": tracer.span_count(),
    }
    metrics = layer_metrics(tracer.stats(), tracer.counts, context)
    for name, m in metrics.items():
        report(f"layer {name} = {m['value']:.6g} {m['unit']}")
    if workload.workers > 1:
        report(f"note: spans inside the {workload.workers} pool workers are not "
               "recorded; pooled work is one span of its caller")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not load_program(root):
        print(f"bench: no rydsim sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    report("machine " + json.dumps(machine_record(workload), sort_keys=True))
    verdicts = Verdicts(workload)
    if args.trace:
        metrics = traced(workload, root, args.seed, verdicts)
    else:
        metrics = end_to_end(workload, root, args.seed, args.seconds, verdicts)
    for failure in verdicts.failures:
        report(f"FAILED {failure}")
    report(f"failed_ratio = {verdicts.failed}/{verdicts.attempted}")
    print(json.dumps({
        "correct": not verdicts.failures,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
    }), flush=True)
    return 1 if verdicts.failures else 0


if __name__ == "__main__":
    sys.exit(main())
