#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that:
- every workload, untraced and traced, prints each metric BENCHMARK.json
  lists, by name and with its unit, and ends with a contract-shaped JSON line;
- a stored reference hash that does not match counts the study as failed;
- a result file altered after the study counts it as failed;
- per-layer self times add up to the traced study time;
- a directory holding only BENCHMARK.json and perfbench/ makes the benchmark
  exit non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {"grid": (10, 12), "trials": 2}


def _main_output(argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    return code, buf.getvalue().splitlines()


def check_metrics_printed(spec: dict, workloads) -> None:
    for name in workloads:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = _main_output(["--workload", name, "--seed", "3",
                                        "--seconds", "0", "--trace", str(trace)])
            assert code == 0, (name, trace, lines[-3:])
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            listed = {m["name"]: m["unit"] for m in spec[section]}
            assert set(result["metrics"]) == set(listed), (name, trace)
            for metric, unit in listed.items():
                entry = result["metrics"][metric]
                assert entry["unit"] == unit, (metric, entry)
                assert isinstance(entry["value"], (int, float)), (metric, entry)
                assert any(line.startswith(f"{metric} = ") and line.endswith(f" {unit}")
                           for line in lines), (name, metric)
            for e2e in ("fail_frac = ", "wall_s: median=", "study_s: median=") if trace == 0 else ("self_s per",):
                assert any(line.startswith(e2e) for line in lines), (name, e2e)
        print(f"ok  {name}: every metric printed with its unit")


def check_wrong_reference_fails(tiny, out: Path) -> None:
    import workloads

    w = tiny["sweep-noiseless"]
    refs = out / "wrong-references.json"
    masters = {str(w.master_seed(3, i)): "0" * 64 for i in range(workloads.SEEDS_PER_RUN)}
    refs.write_text(json.dumps({w.name: masters}), encoding="utf-8")
    saved, run.REFERENCES = run.REFERENCES, refs
    try:
        code, lines = _main_output(["--workload", w.name, "--seed", "3",
                                    "--seconds", "0", "--trace", "0"])
    finally:
        run.REFERENCES = saved
    result = json.loads(lines[-1])
    assert code == 1 and result["correct"] is False, result
    assert result["failed"] == result["attempted"], result
    assert any("stored reference" in line for line in lines)
    print("ok  a wrong reference hash counts as a failure")


def check_tampered_output_fails(workloads, out: Path) -> None:
    from workloads import check_outputs, judge, run_study

    w = workloads["firstpass-earlystop"]
    good = run_study(w, 0, out / "tamper")
    assert not good.failures, good.failures
    csv_path = out / "tamper" / "avg_convergence.csv"
    csv_path.write_text(csv_path.read_text(encoding="utf-8") + "3,0.9,1.0,0.0,0\n",
                        encoding="utf-8")
    bad = check_outputs(w, [out / "tamper"], [0])
    assert any("manifest hash" in f for f in bad.failures), bad.failures
    assert any("rows" in f for f in bad.failures), bad.failures
    seen: dict[int, str] = {}
    judge(w, 0, good, {}, seen)
    judge(w, 0, bad, {}, seen)
    assert any("earlier study" in f for f in bad.failures), bad.failures
    print("ok  an altered result file counts as a failure")


def check_self_times_add_up(workloads, out: Path) -> None:
    import harness

    for w in workloads.values():
        r = harness.measure(w, 3, 0, True, run.ROOT, out, {})
        selfs = sum(harness.layer_self_seconds(r).values())
        cpu = sum(o.cpu for o in r.traced)
        assert abs(selfs - cpu) <= 1e-9 * cpu, (w.name, selfs, cpu)
    print("ok  per-layer self times add up to the traced study time")


def check_refuses_without_source(out: Path) -> None:
    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep-noisy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("ok  without src/distbeam the benchmark exits non-zero and prints no result")


def main() -> int:
    run.prepare()
    import harness  # noqa: F401  (fixes the metric names before workloads shrink)
    import micro
    import workloads

    micro._BATCH_S, micro._BATCHES = 0.001, 2
    for name, w in workloads.WORKLOADS.items():
        if w.kind != "verify":
            workloads.WORKLOADS[name] = dataclasses.replace(w, **TINY)
    tiny = dict(workloads.WORKLOADS)
    spec = run.contract()
    out = run.OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    check_metrics_printed(spec, tiny)
    check_wrong_reference_fails(tiny, out)
    check_tampered_output_fails(tiny, out)
    check_self_times_add_up(tiny, out)
    check_refuses_without_source(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
