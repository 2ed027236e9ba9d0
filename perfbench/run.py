#!/usr/bin/env python3
"""distbeam benchmark: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; distbeam is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics (micro-timings, spans and counts). Both check every study's outputs.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 when
every study passed its checks, 1 when one failed, 2 when the run could not
start. Outputs and span files go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
# One thread in total: BLAS and OpenMP pools are pinned before numpy loads.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
DEFAULT_SEED = 1
HOLDOUT_SEED = 2  # never used while tuning a change; see README.md


class HarnessError(Exception):
    """The run cannot give a valid result: no source, an unknown workload, or
    metrics that disagree with BENCHMARK.json."""


def prepare() -> None:
    """Pin threads and import distbeam from the checkout's src/, nowhere else."""
    os.environ.update(THREAD_PINS)
    init = SRC / "distbeam" / "__init__.py"
    if not init.is_file():
        raise HarnessError(f"no distbeam source at {init}")
    sys.path.insert(0, str(SRC))
    import distbeam

    if Path(distbeam.__file__).resolve() != init.resolve():
        raise HarnessError(f"distbeam imported from {distbeam.__file__}, not {init}")


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks from /proc/stat: user nice system idle iowait irq softirq steal."""
    fields = _read("/proc/stat").split("\n", 1)[0].split()[1:9]
    return [int(f) for f in fields] if len(fields) == 8 else []


def machine() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": list(umath.__cpu_dispatch__),
        "simd_features": [k for k, v in umath.__cpu_features__.items() if v],
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
    }


def select(computed: dict[str, float], listed: list[dict]) -> dict[str, dict]:
    """The listed metrics with their units; the two name sets must agree."""
    names = [m["name"] for m in listed]
    if set(names) != set(computed):
        raise HarnessError(f"metrics differ from BENCHMARK.json: computed-only "
                         f"{sorted(set(computed) - set(names))}, listed-only "
                         f"{sorted(set(names) - set(computed))}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        prepare()
        spec = contract()
        sys.path.insert(0, str(HERE))
        import harness
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise HarnessError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        with open(REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)
    except (HarnessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    print(f"machine {json.dumps(machine())}")
    print(f"loadavg_start {_read('/proc/loadavg').strip()}")
    ticks = _cpu_ticks()
    print(f"workload {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"(default seed {DEFAULT_SEED}, hold-out seed {HOLDOUT_SEED})")
    run = harness.measure(w, args.seed, args.seconds, bool(args.trace), ROOT, OUT, references)
    print(f"loadavg_end {_read('/proc/loadavg').strip()}")
    end_ticks = _cpu_ticks()
    if ticks and end_ticks:
        delta = [b - a for a, b in zip(ticks, end_ticks)]
        print(f"cpu_steal_frac {delta[7] / max(sum(delta), 1)!r} (machine-wide, during the run)")

    studies = run.studies
    failed = [o for o in studies if o.failures]
    for i, o in enumerate(failed):
        print(f"failed study {i}: {'; '.join(o.failures)}")
    print(f"fail_frac = {len(failed) / len(studies)!r} ({len(failed)} of {len(studies)} studies)")
    if args.trace:
        computed = harness.per_layer(run)
        listed = spec["per_layer"]
        spans = OUT / f"spans-{w.name}-seed{args.seed}.jsonl"
        run.tracer.write(spans)
        selfs = harness.layer_self_seconds(run)
        n = len(run.traced)
        print(f"spans written to {spans.relative_to(ROOT)}")
        print("self_s per traced study: " + ", ".join(f"{k}={v / n!r}" for k, v in selfs.items())
              + f"; sum={sum(selfs.values()) / n!r} s, traced study CPU mean="
              f"{sum(o.cpu for o in run.traced) / n!r} s")
    else:
        computed = harness.end_to_end(run)
        listed = spec["end_to_end"]
        for name, samples in (("study_s", harness.reference_cpu(run)),
                              ("raw study CPU", [o.cpu for o in run.outcomes]),
                              ("wall_s", [o.wall for o in run.outcomes])):
            t = harness.tail(samples)
            tail = "no percentile has ten samples beyond it" if t is None else f"p{t[0]}={t[1]!r} s"
            print(f"{name}: median={statistics.median(samples)!r} s, {tail}, n={len(samples)}")
        print(f"speed: median REFERENCE_S / calibration = {statistics.median(run.scales)!r}")
        print(f"setup_s samples: {', '.join(repr(s) for s in run.setup)}")
    try:
        metrics = select(computed, listed)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(studies),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
