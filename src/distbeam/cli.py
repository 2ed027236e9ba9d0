"""Command-line front end.

One subcommand per experiment plus verification checks and config
inspection. Exit codes: 0 success, 1 config/usage error (the message names
the offending key), 2 runtime flag (a check failed, a hitting time was
unresolved within the horizon, or a first-passage mean had every run
censored).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import (
    TWO_PI,
    PowerConfig,
    epsilon_region_contains,
    generate_channel,
    optimal_magnitude,
)
from .experiments import (
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    avg_convergence_csv,
    config_from_items,
    dump_config,
    hitting_time_csv,
    load_config,
    run_avg_convergence_sweep,
    run_hitting_time_sweep,
    run_sample_paths,
    sample_paths_csv,
)
from .oracle import (
    GridSpec,
    estimate_improvement_probability,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)
from .search import PerturbationSpec, StopRule, run_trajectory

VERIFY_CHECKS = ("shift-invariance", "local-global", "improvement", "increment")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class CliInvocation:
    """One parsed command: the subcommand, where config comes from and goes
    to, the seed override, and raw config-key overrides."""

    subcommand: str
    config_path: str | None
    out_dir: str
    seed_override: int | None
    overrides: dict[str, str] = field(default_factory=dict)
    runs: int = 3
    check: str = "shift-invariance"
    resolution: int = 720
    samples: int = 100_000


def _build_parser() -> _Parser:
    parser = _Parser(prog="distbeam", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, help="override the master seed")
        for key in CONFIG_SCHEMA:
            if key != "kind":  # kind comes from the subcommand
                p.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}", metavar="VALUE")

    p = sub.add_parser("sample-path", help="trajectories from random initial points over one fixed channel")
    add_common(p)
    p.add_argument("--runs", type=int, default=3, help="number of sample paths")

    for name, doc in (
        ("hitting-time", "time for the mean magnitude to reach alpha times the mean optimum, per n_s"),
        ("avg-convergence", "mean per-run first-passage time to alpha times the optimum, per n_s"),
    ):
        p = sub.add_parser(name, help=doc)
        add_common(p)

    p = sub.add_parser("verify", help="run a verification check on a generated channel")
    add_common(p)
    p.add_argument("--check", choices=VERIFY_CHECKS, default="shift-invariance")
    p.add_argument("--resolution", type=int, default=720, help="grid resolution for local-global")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples for improvement")

    p = sub.add_parser("show-config", help="print the materialized config")
    add_common(p)
    return parser


def _invocation_from_args(args) -> CliInvocation:
    overrides = {
        key: value
        for key in CONFIG_SCHEMA
        if (value := getattr(args, f"cfg_{key}", None)) is not None
    }
    return CliInvocation(
        subcommand=args.subcommand,
        config_path=args.config,
        out_dir=args.out,
        seed_override=args.seed,
        overrides=overrides,
        runs=getattr(args, "runs", 3),
        check=getattr(args, "check", "shift-invariance"),
        resolution=getattr(args, "resolution", 720),
        samples=getattr(args, "samples", 100_000),
    )


def _resolve_config(inv: CliInvocation) -> ExperimentConfig:
    if inv.config_path is not None:
        config = load_config(inv.config_path)
    else:
        config = ExperimentConfig()
    if inv.subcommand in EXPERIMENT_KINDS:
        config = dataclasses.replace(config, kind=inv.subcommand)
    if inv.overrides:
        config = config_from_items(inv.overrides, base=config)
    if inv.seed_override is not None:
        config = dataclasses.replace(config, master_seed=inv.seed_override)
    return config


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def emit_reproduction_bundle(
    config: ExperimentConfig, results: dict[str, str], outdir
) -> dict[str, str]:
    """Write result files, the materialized config, and a manifest.

    The manifest is key=value: the master seed, the config file name, the
    sorted file list, and one sha256.<name> entry per emitted file. Re-running
    from the emitted resolved.cfg reproduces identical hashes.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = dict(results)
    files["resolved.cfg"] = dump_config(config)
    for name, text in files.items():
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    manifest = {
        "seed": str(config.master_seed),
        "config": "resolved.cfg",
        "files": ",".join(sorted(files)),
    }
    for name in sorted(files):
        manifest[f"sha256.{name}"] = _sha256(files[name])
    with open(outdir / "manifest.txt", "w", encoding="utf-8", newline="\n") as fh:
        for key, value in manifest.items():
            fh.write(f"{key}={value}\n")
    return manifest


def _summary_text(fields: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in fields.items())


def _run_sample_path(inv: CliInvocation, config: ExperimentConfig) -> int:
    trajectories = run_sample_paths(config, inv.runs)
    reached = sum(t.converged is True for t in trajectories)
    summary = _summary_text(
        {
            "subcommand": "sample-path",
            "runs": inv.runs,
            "n_s": config.n_s_values[0],
            "steps": ",".join(str(t.n_steps) for t in trajectories),
            "final_mags": ",".join(repr(t.final_mag) for t in trajectories),
        }
    )
    emit_reproduction_bundle(
        config,
        {"sample_paths.csv": sample_paths_csv(trajectories), "summary.txt": summary},
        inv.out_dir,
    )
    print(
        f"sample-path: {inv.runs} runs, n_s={config.n_s_values[0]}, "
        f"wrote {inv.out_dir}/sample_paths.csv"
    )
    if config.eps is not None and reached < inv.runs:
        return 2
    return 0


def _run_hitting_time(inv: CliInvocation, config: ExperimentConfig) -> int:
    results = run_hitting_time_sweep(config)
    unresolved = sum(p.hitting_time is None for r in results for p in r.points)
    summary = _summary_text(
        {
            "subcommand": "hitting-time",
            "alphas": ",".join(repr(a) for a in config.alpha),
            "n_s": ",".join(str(n) for n in config.n_s_values),
            "trials": config.trials,
            "unresolved": unresolved,
            "increment_identity_max_dev": repr(results[0].increment_identity_max_dev),
        }
    )
    emit_reproduction_bundle(
        config,
        {"hitting_time.csv": hitting_time_csv(results), "summary.txt": summary},
        inv.out_dir,
    )
    print(
        f"hitting-time: {len(results)} alphas x {len(config.n_s_values)} n_s, "
        f"{unresolved} unresolved, wrote {inv.out_dir}/hitting_time.csv"
    )
    return 2 if unresolved else 0


def _run_avg_convergence(inv: CliInvocation, config: ExperimentConfig) -> int:
    results = run_avg_convergence_sweep(config)
    censored = sum(p.censored for r in results for p in r.points)
    empty = sum(p.trials == 0 for r in results for p in r.points)
    summary = _summary_text(
        {
            "subcommand": "avg-convergence",
            "alphas": ",".join(repr(a) for a in config.alpha),
            "n_s": ",".join(str(n) for n in config.n_s_values),
            "trials": config.trials,
            "censored_total": censored,
            "increment_identity_max_dev": repr(results[0].increment_identity_max_dev),
        }
    )
    emit_reproduction_bundle(
        config,
        {"avg_convergence.csv": avg_convergence_csv(results), "summary.txt": summary},
        inv.out_dir,
    )
    print(
        f"avg-convergence: {len(results)} alphas x {len(config.n_s_values)} n_s, "
        f"{censored} censored, wrote {inv.out_dir}/avg_convergence.csv"
    )
    return 2 if empty else 0


def _run_verify(inv: CliInvocation, config: ExperimentConfig) -> int:
    n_s = config.n_s_values[0]
    rng = np.random.default_rng(config.master_seed)
    channel = generate_channel(n_s, rng)
    if inv.check == "shift-invariance":
        report = verify_shift_invariance(channel, config.P, trials=1000, rng=rng)
    elif inv.check == "local-global":
        report = verify_local_equals_global(
            channel, config.P, GridSpec(resolution=inv.resolution, n_s=n_s)
        )
    elif inv.check == "improvement":
        eps = 0.1 * optimal_magnitude(channel, config.P)
        theta = None
        for _ in range(10_000):
            candidate = rng.uniform(0.0, TWO_PI, n_s)
            if not epsilon_region_contains(channel, candidate, config.P, eps):
                theta = candidate
                break
        if theta is None:
            raise ValueError(
                "no probe point outside the eps region found; with n_s=1 every "
                "phase vector is optimal, pick a larger n_s"
            )
        report = estimate_improvement_probability(
            channel, theta, config.P, config.delta0, eps=eps,
            samples=inv.samples, rng=rng,
        )
    else:  # increment
        traj = run_trajectory(
            channel,
            PerturbationSpec(delta0=config.delta0),
            PowerConfig(P=config.P),
            "zero",
            StopRule.steps(config.horizon_for(n_s)),
            seed=rng,
            record_thetas=False,
        )
        report = verify_monotone_and_increment(traj)
    text = report.to_text()
    print(text, end="")
    outdir = Path(inv.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"verify_{inv.check}.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0 if report.passed else 2


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write outputs; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        inv = _invocation_from_args(args)
        config = _resolve_config(inv)
        if inv.subcommand == "show-config":
            print(dump_config(config), end="")
            return 0
        if inv.subcommand == "sample-path":
            return _run_sample_path(inv, config)
        if inv.subcommand == "hitting-time":
            return _run_hitting_time(inv, config)
        if inv.subcommand == "avg-convergence":
            return _run_avg_convergence(inv, config)
        return _run_verify(inv, config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))
