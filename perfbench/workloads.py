"""The benchmark's workloads.

Each workload is one kind of study issued through the distbeam CLI
(``parse_and_dispatch``). This module builds a study's argv from the workload
and a master seed, checks the files the study wrote, counts the objective
evaluations those files imply, and re-composes the same study from distbeam's
public functions with a span around every call, for the traced run.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from distbeam.channel import (
    TWO_PI,
    PowerConfig,
    epsilon_region_contains,
    generate_channel,
    optimal_magnitude,
)
from distbeam.cli import emit_reproduction_bundle, parse_and_dispatch
from distbeam.experiments import (
    ConvergenceTimeResult,
    HittingTimeResult,
    avg_convergence_csv,
    config_from_items,
    hitting_time_csv,
    linear_fit,
    load_config,
    run_avg_convergence_sweep,
    run_hitting_time_sweep,
)
from distbeam.oracle import (
    GridSpec,
    estimate_improvement_probability,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)
from distbeam.search import PerturbationSpec, StopRule, run_trajectory

# The paper's parameters, shared by every sweep workload.
PAPER_ITEMS = {
    "alpha": "0.5,0.7,0.9",
    "delta0": "pi/90",
    "init_mode": "origin",
    "channel_policy": "redrawn-per-trial",
}
IDENTITY_TOL = 1e-9
# Studies in one run cycle through this many master seeds derived from the
# workload seed, so a run's median is not one seed's cost (the work of an
# avg-convergence study depends on its seed), and every seed after the first
# cycle repeats and must reproduce its earlier output.
SEEDS_PER_RUN = 8
CSV_NAMES = {"hitting-time": "hitting_time.csv", "avg-convergence": "avg_convergence.csv"}
# (output subdirectory, check, n_s, extra flags): the checks scripts/verify_claims.py runs.
VERIFY_JOBS = (
    ("shift", "shift-invariance", 50, ()),
    ("grid2", "local-global", 2, ("--resolution", "720")),
    ("grid3", "local-global", 3, ("--resolution", "180")),
    ("improve", "improvement", 10, ()),
    ("increment", "increment", 10, ()),
)
_SAMPLES = 100_000  # the CLI's default Monte Carlo sample count for `improvement`


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the study kind and its size."""

    name: str
    kind: str  # "hitting-time", "avg-convergence" or "verify"
    grid: tuple[int, ...] = ()
    trials: int = 0
    sigma2: float = 0.0
    averaging_slots: int = 1

    @property
    def noiseless(self) -> bool:
        return self.sigma2 == 0.0

    def master_seed(self, seed: int, study: int) -> int:
        return seed * SEEDS_PER_RUN + study % SEEDS_PER_RUN

    def items(self, master_seed: int) -> dict[str, str]:
        """Config-file keys of one sweep study (not used for ``verify``)."""
        items = {
            "kind": self.kind,
            "n_s": ",".join(str(n) for n in self.grid),
            "trials": str(self.trials),
            **PAPER_ITEMS,
            "master_seed": str(master_seed),
        }
        if not self.noiseless:
            items["sigma2"] = repr(self.sigma2)
            items["averaging_slots"] = str(self.averaging_slots)
        return items

    def flags(self, master_seed: int) -> list[str]:
        """The CLI flags equivalent to :meth:`items` (minus the subcommand)."""
        if self.kind == "verify":
            return ["--n-s", str(VERIFY_JOBS[0][2]), "--seed", str(master_seed)]
        out = []
        for key, value in self.items(master_seed).items():
            if key == "kind":
                continue
            out += ["--seed" if key == "master_seed" else "--" + key.replace("_", "-"), value]
        return out

    def setup_argv(self, master_seed: int) -> list[str]:
        """The CLI call that resolves this workload's config and returns."""
        return ["show-config", *self.flags(master_seed)]

    def study_argvs(self, master_seed: int, out: Path) -> list[tuple[list[str], Path]]:
        """(argv, output directory) of each CLI call that makes up one study."""
        if self.kind == "verify":
            return [
                (["verify", "--check", check, "--n-s", str(n_s), *extra,
                  "--seed", str(master_seed), "--out", str(out / sub)], out / sub)
                for sub, check, n_s, extra in VERIFY_JOBS
            ]
        return [([self.kind, *self.flags(master_seed), "--out", str(out)], out)]

    def curves_bytes(self) -> int:
        """Computed bytes of float64 magnitude curves held at once by an engine
        that keeps every (trials, horizon+1) curve array: hitting-time keeps one
        batch plus one mean curve per n_s, avg-convergence keeps every batch."""
        if self.kind == "verify":
            return 0
        rows = [200 * n + 1 for n in self.grid]  # horizon=auto is 200*n_s
        if self.kind == "avg-convergence":
            return 8 * self.trials * sum(rows)
        return 8 * (self.trials * max(rows) + sum(rows))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-noiseless", "hitting-time", grid=(10, 55, 100), trials=16),
        Workload("firstpass-earlystop", "avg-convergence", grid=(10, 55, 100), trials=100),
        Workload("sweep-noisy", "hitting-time", grid=(10, 20, 30), trials=4,
                 sigma2=1e-3, averaging_slots=4),
        Workload("verify-oracles", "verify"),
    )
}


@dataclass
class Outcome:
    """One finished study: objective evaluations implied by its outputs, a
    digest of its result files, why it failed (empty: passed), and its wall
    and CPU seconds. ``useful`` is (sum of first passages, trials x max first
    passage) summed over n_s, known only to the traced avg-convergence study."""

    evals: int
    digest: str
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    useful: tuple[int, int] = (0, 0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _float(text: str) -> float:
    """A float written with repr(); the noisy path writes numpy scalars,
    whose repr under numpy 2 reads ``np.float64(...)``."""
    match = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(match.group(1) if match else text)


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def run_study(w: Workload, master_seed: int, out: Path) -> Outcome:
    """Issue one study through the CLI and check what it wrote."""
    shutil.rmtree(out, ignore_errors=True)  # no earlier study's files can pass for this one's
    argvs = w.study_argvs(master_seed, out)
    sink = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(sink):
        codes = [parse_and_dispatch(argv) for argv, _ in argvs]
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    outcome = check_outputs(w, [d for _, d in argvs], codes)
    outcome.wall, outcome.cpu = wall, cpu
    return outcome


def check_outputs(w: Workload, dirs: list[Path], codes: list[int]) -> Outcome:
    """Structural checks on a study's files and its evaluation count."""
    failures = [f"exit code {c}" for c in codes if c != 0]
    try:
        if w.kind == "verify":
            evals, digest = _check_verify(dirs, failures)
        else:
            evals, digest = _check_sweep(w, dirs[0], failures)
    except (OSError, KeyError, ValueError) as exc:
        return Outcome(0, "", failures + [f"unreadable output: {exc!r}"])
    return Outcome(evals, digest, failures)


def _check_sweep(w: Workload, out: Path, failures: list[str]) -> tuple[int, str]:
    csv_name = CSV_NAMES[w.kind]
    text = (out / csv_name).read_text(encoding="utf-8")
    digest = _sha256(text)
    summary = _kv((out / "summary.txt").read_text(encoding="utf-8"))
    manifest = _kv((out / "manifest.txt").read_text(encoding="utf-8"))
    config = load_config(out / "resolved.cfg")
    if manifest.get(f"sha256.{csv_name}") != digest:
        failures.append(f"manifest hash of {csv_name} does not match the file")
    dev = _float(summary["increment_identity_max_dev"])
    if not dev <= IDENTITY_TOL:
        failures.append(f"increment_identity_max_dev={dev!r} > {IDENTITY_TOL}")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(config.n_s_values) * len(config.alpha):
        failures.append(f"{csv_name} has {len(rows)} rows")
    if w.kind == "hitting-time":
        unresolved = sum(r["hitting_time"] == "" for r in rows)
        if unresolved:
            failures.append(f"{unresolved} unresolved hitting times")
        evals = config.trials * sum(config.horizon_for(n) for n in config.n_s_values)
    else:
        censored = sum(int(r["censored"]) for r in rows)
        if censored:
            failures.append(f"{censored} censored first passages")
        top = max(config.alpha)
        # censored == 0, so each mean is over every trial
        evals = round(sum(float(r["mean_time"]) * config.trials
                          for r in rows if float(r["alpha"]) == top))
    return evals, digest


def _check_verify(dirs: list[Path], failures: list[str]) -> tuple[int, str]:
    texts = []
    evals = 0
    for (_, check, _, _), d in zip(VERIFY_JOBS, dirs):
        text = (d / f"verify_{check}.txt").read_text(encoding="utf-8")
        texts.append(text)
        report = _kv(text)
        if report["status"] not in ("pass", "ok"):  # `improvement` passes as "ok"
            failures.append(f"verify {check}: status={report['status']}")
        if check == "shift-invariance":
            evals += int(report["trials"])  # shift pairs
        elif check == "local-global":
            evals += int(report["resolution"]) ** (int(report["n_s"]) - 1)
        elif check == "improvement":
            evals += int(report["samples"])
        else:
            evals += int(report["n_steps"])
    return evals, _sha256("".join(texts))


def judge(w: Workload, master_seed: int, outcome: Outcome, references: dict, seen: dict) -> None:
    """Failures that need more than one study's files: a noiseless sweep CSV
    that differs from the stored reference for its seed, or any study whose
    output differs from an earlier study of the same seed in this run."""
    if w.kind != "verify" and w.noiseless:
        ref = references.get(w.name, {}).get(str(master_seed))
        if ref is not None and ref != outcome.digest:
            outcome.failures.append("csv sha256 differs from the stored reference")
    first = seen.setdefault(master_seed, outcome.digest)
    if first != outcome.digest:
        outcome.failures.append("output differs from an earlier study of the same seed")


# --- traced re-composition -------------------------------------------------


def traced_study(w: Workload, master_seed: int, out: Path, tracer) -> Outcome:
    """The same study as :func:`run_study`, composed from public functions
    with a span around each call. The root span ``cli.study`` stands for the
    CLI invocation; its self time is the CLI's own glue."""
    shutil.rmtree(out, ignore_errors=True)
    root = len(tracer.spans)
    wall = time.perf_counter()
    with tracer.span("cli.study"):
        if w.kind == "verify":
            codes = _traced_verify(master_seed, out, tracer)
            dirs = [out / sub for sub, _, _, _ in VERIFY_JOBS]
            useful = (0, 0)
        else:
            useful = _traced_sweep(w, master_seed, out, tracer)
            codes, dirs = [0], [out]
    wall = time.perf_counter() - wall
    outcome = check_outputs(w, dirs, codes)
    outcome.wall, outcome.cpu, outcome.useful = wall, tracer.spans[root].duration, useful
    return outcome


def _traced_parse(flags: list[str], tracer) -> None:
    """Argument parsing and config resolution as the CLI does them: a
    ``show-config`` call with the study's flags (its printout is dropped)."""
    with tracer.span("cli.parse_and_dispatch"), contextlib.redirect_stdout(io.StringIO()):
        code = parse_and_dispatch(["show-config", *flags])
    if code != 0:
        raise ValueError(f"show-config {' '.join(flags)} exited {code}")


def _traced_sweep(w: Workload, master_seed: int, out: Path, tracer) -> tuple[int, int]:
    _traced_parse(w.flags(master_seed), tracer)
    with tracer.span("experiments.config_from_items"):
        config = config_from_items(w.items(master_seed))
    sweep = run_hitting_time_sweep if w.kind == "hitting-time" else run_avg_convergence_sweep
    per_ns = []
    for n_s in config.n_s_values:
        with tracer.span(f"experiments.point.n{n_s}"):
            per_ns.append(sweep(dataclasses.replace(config, n_s_values=(n_s,))))
    max_dev = max(r[0].increment_identity_max_dev for r in per_ns)
    results = []
    for i, alpha in enumerate(config.alpha):
        points = tuple(r[i].points[0] for r in per_ns)
        if w.kind == "avg-convergence":
            results.append(ConvergenceTimeResult(alpha, points, max_dev))
            continue
        resolved = [(p.n_s, p.hitting_time) for p in points if p.hitting_time is not None]
        fit = (math.nan,) * 3
        if len(resolved) >= 2:
            with tracer.span("experiments.linear_fit"):
                fit = linear_fit(*zip(*resolved))
        results.append(HittingTimeResult(alpha, points, *fit, max_dev))
    with tracer.span("experiments.csv_render"):
        render = hitting_time_csv if w.kind == "hitting-time" else avg_convergence_csv
        text = render(results)
    summary = f"increment_identity_max_dev={max_dev!r}\n"
    with tracer.span("cli.emit_reproduction_bundle"):
        emit_reproduction_bundle(
            config, {CSV_NAMES[w.kind]: text, "summary.txt": summary}, out
        )
    if w.kind != "avg-convergence":
        return 0, 0
    times = [p.times for p in results[config.alpha.index(max(config.alpha))].points]
    return (int(sum(np.nansum(t) for t in times)),
            int(sum(t.size * np.nanmax(t) for t in times)))


def _traced_verify(master_seed: int, out: Path, tracer) -> list[int]:
    """The five checks, composed as ``distbeam verify`` composes each one."""
    codes = []
    for sub, check, n_s, extra in VERIFY_JOBS:
        flags = dict(zip(extra[::2], extra[1::2]))
        _traced_parse(["--n-s", str(n_s), "--seed", str(master_seed)], tracer)
        with tracer.span("experiments.config_from_items"):
            config = config_from_items({"n_s": str(n_s), "master_seed": str(master_seed)})
        rng = np.random.default_rng(config.master_seed)
        with tracer.span("channel.generate_channel"):
            channel = generate_channel(n_s, rng)
        if check == "shift-invariance":
            with tracer.span("oracle.verify_shift_invariance"):
                report = verify_shift_invariance(channel, config.P, trials=1000, rng=rng)
        elif check == "local-global":
            grid = GridSpec(resolution=int(flags["--resolution"]), n_s=n_s)
            with tracer.span("oracle.verify_local_equals_global"):
                report = verify_local_equals_global(channel, config.P, grid)
        elif check == "improvement":
            with tracer.span("channel.optimal_magnitude"):
                eps = 0.1 * optimal_magnitude(channel, config.P)
            for _ in range(10_000):  # the CLI's search for a probe outside the eps region
                theta = rng.uniform(0.0, TWO_PI, n_s)
                with tracer.span("channel.epsilon_region_contains"):
                    inside = epsilon_region_contains(channel, theta, config.P, eps)
                if not inside:
                    break
            else:
                raise ValueError("no probe point outside the eps region found")
            with tracer.span("oracle.estimate_improvement_probability"):
                report = estimate_improvement_probability(
                    channel, theta, config.P, config.delta0, eps=eps,
                    samples=_SAMPLES, rng=rng,
                )
        else:
            with tracer.span("search.run_trajectory"):
                traj = run_trajectory(
                    channel, PerturbationSpec(delta0=config.delta0),
                    PowerConfig(P=config.P), "zero",
                    StopRule.steps(config.horizon_for(n_s)), seed=rng, record_thetas=False,
                )
            with tracer.span("oracle.verify_monotone_and_increment"):
                report = verify_monotone_and_increment(traj)
        (out / sub).mkdir(parents=True, exist_ok=True)
        (out / sub / f"verify_{check}.txt").write_text(report.to_text(), encoding="utf-8")
        codes.append(0 if report.passed else 2)
    return codes
