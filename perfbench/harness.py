"""Measurement loop of one benchmark run and the metrics derived from it.

A run is a closed loop: one client issues one study at a time, each after
the previous one returned, until the run has lasted its seconds of wall time
(and at least ``MIN_STUDIES`` studies). A traced run alternates an untraced
and a traced study of the same seed, so both see the same machine conditions
and their ratio is the tracing overhead.

Study times are gated on CPU seconds of the (single-threaded) process at a
reference speed. On a shared 2-vCPU virtual machine (AVX-512, numpy 2.4.6)
the same study's wall time varied by tens of percent with the time the
process waited for a CPU, and its CPU time by up to 1.75x between phases
lasting seconds (other tenants on the same cores). So a fixed calibration
kernel that does not touch distbeam runs before and after every untraced
study, and the study's CPU time is scaled by ``REFERENCE_S`` over the mean of
the two calibration times: it reads as CPU seconds at the speed at which the
kernel takes ``REFERENCE_S``. Raw CPU and wall times are printed, not gated.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from distbeam.channel import TWO_PI, PowerConfig

from micro import run_micro
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Outcome, Workload, judge, run_study, traced_study

MIN_STUDIES = 3
SETUP_REPEATS = 7
# One CLI call that only resolves the config: interpreter start, import
# distbeam, argument parsing and config resolution, then exit.
_PROBE = ("import sys; from distbeam.cli import parse_and_dispatch; "
          "sys.exit(parse_and_dispatch(sys.argv[1:]))")
# n_s values with an experiments.point_frac metric: every sweep grid.
POINT_GRID = tuple(sorted({n for w in WORKLOADS.values() for n in w.grid}))
# CPU seconds of calibration() in the fast phase of a 2-vCPU AVX-512 virtual
# machine with numpy 2.4.6 and Python 3.11 (about its 5th percentile).
REFERENCE_S = 0.011
_CAL_PHASES = np.random.default_rng(0).uniform(0.0, TWO_PI, (100, 100))


def calibration() -> float:
    """CPU seconds of a fixed kernel mixing the two kinds of work distbeam
    does: numpy trig and sums over a 100 x 100 array, and interpreter loops."""
    start = time.process_time()
    for _ in range(50):
        np.cos(_CAL_PHASES).sum()
    total = 0
    for i in range(50_000):
        total += i
    return time.process_time() - start


@dataclass
class Run:
    workload: Workload
    outcomes: list[Outcome] = field(default_factory=list)
    traced: list[Outcome] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)  # REFERENCE_S / calibration, per outcome
    tracer: Tracer = field(default_factory=Tracer)
    micro: dict[str, float] = field(default_factory=dict)

    @property
    def studies(self) -> list[Outcome]:
        return self.outcomes + self.traced


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(w: Workload, seed: int, root: Path, env: dict[str, str]) -> list[float]:
    """Reference CPU seconds of a fresh interpreter that resolves the
    workload's config and exits, ``SETUP_REPEATS`` times (the child has ended
    when run returns)."""
    argv = [sys.executable, "-c", _PROBE, *w.setup_argv(w.master_seed(seed, 0))]
    samples = []
    before = calibration()
    for _ in range(SETUP_REPEATS):
        start = _children_cpu()
        proc = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        cpu = _children_cpu() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        after = calibration()
        samples.append(cpu * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def measure(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
            out: Path, references: dict) -> Run:
    run = Run(w)
    if trace:
        run.micro = run_micro(PowerConfig(sigma2=WORKLOADS["sweep-noisy"].sigma2,
                                          averaging_slots=WORKLOADS["sweep-noisy"].averaging_slots),
                              _fresh(out / "micro-bundle"))
    else:
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        run.setup = measure_setup(w, seed, root, env)
    seen: dict[int, str] = {}
    start = time.perf_counter()
    study = 0
    before = calibration()
    while study < MIN_STUDIES or time.perf_counter() - start < seconds:
        master = w.master_seed(seed, study)
        outcome = run_study(w, master, out / w.name)
        after = calibration()
        run.scales.append(2 * REFERENCE_S / (before + after))
        judge(w, master, outcome, references, seen)
        run.outcomes.append(outcome)
        if trace:
            run.tracer.run = study
            outcome = traced_study(w, master, out / f"{w.name}-traced", run.tracer)
            judge(w, master, outcome, references, seen)
            run.traced.append(outcome)
            after = calibration()
        before = after
        study += 1
    return run


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    for p in path.iterdir():
        p.unlink()
    return path


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100 * (n - 10) // n, sorted(samples)[n - 11]


def reference_cpu(run: Run) -> list[float]:
    """Each untraced study's CPU seconds at the reference speed."""
    return [o.cpu * k for o, k in zip(run.outcomes, run.scales)]


def end_to_end(run: Run) -> dict[str, float]:
    ref = reference_cpu(run)
    return {
        "study_s": statistics.median(ref),
        "mag_evals_per_s": statistics.median(o.evals / r for o, r in zip(run.outcomes, ref)),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_self_seconds(run: Run) -> dict[str, float]:
    """Self time per layer, summed over the traced studies."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span, self_s in zip(run.tracer.spans, run.tracer.self_times()):
        totals[span.layer] += self_s
    return totals


def per_layer(run: Run) -> dict[str, float]:
    w = run.workload
    spans = run.tracer.spans
    selfs = run.tracer.self_times()
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    total = sum(spans[i].duration for i in roots)
    m = dict(run.micro)
    for layer, seconds in layer_self_seconds(run).items():
        m[f"trace.self_frac.{layer}"] = seconds / total
    for n_s in POINT_GRID:
        name = f"experiments.point.n{n_s}"
        m[f"experiments.point_frac.n{n_s}"] = sum(s.duration for s in spans if s.name == name) / total
    m["cli.self_s"] = statistics.median(selfs[i] for i in roots)
    m["trace.cpu_s"] = statistics.median(o.cpu for o in run.traced)
    m["trace.overhead_frac"] = (m["trace.cpu_s"]
                                / statistics.median(o.cpu for o in run.outcomes) - 1.0)
    m["experiments.trial_steps"] = 0 if w.kind == "verify" else run.traced[0].evals
    m["experiments.curves_bytes"] = w.curves_bytes()
    useful = sum(o.useful[0] for o in run.traced)
    lockstep = sum(o.useful[1] for o in run.traced)
    m["experiments.lockstep_useful_ratio"] = useful / lockstep if lockstep else 0.0
    return m
