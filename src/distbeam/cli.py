"""Command-line front end.

One subcommand per experiment plus verification checks and config
inspection. Exit codes: 0 success, 1 config/usage error (the message names
the offending key) or out of memory (the message names the run's sizes), 2
runtime flag (a check failed, a hitting time was unresolved within the
horizon, or a first-passage mean had every run censored).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
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
    key_value_text,
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
from .search import StopRule, run_trajectory

VERIFY_CHECKS = ("shift-invariance", "local-global", "improvement", "increment")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="distbeam", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, doc):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default="out", help="output directory")
        for key in CONFIG_SCHEMA:
            if key != "kind":  # kind comes from the subcommand
                alias = ["--seed"] if key == "master_seed" else []
                p.add_argument("--" + key.replace("_", "-"), *alias, dest=f"cfg_{key}",
                               metavar="VALUE")
        if name in EXPERIMENT_KINDS:
            p.set_defaults(cfg_kind=name)
        return p

    p = add("sample-path", "trajectories from random initial points over one fixed channel")
    p.add_argument("--runs", type=int, default=3, help="number of sample paths")
    add("hitting-time", "time for the mean magnitude to reach alpha times the mean optimum, per n_s")
    add("avg-convergence", "mean per-run first-passage time to alpha times the optimum, per n_s")
    p = add("verify", "run a verification check on a generated channel")
    p.add_argument("--check", choices=VERIFY_CHECKS, default="shift-invariance")
    p.add_argument("--resolution", type=int, default=720, help="grid resolution for local-global")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples for improvement")
    add("show-config", "print the materialized config")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the subcommand's kind and every
    given flag applied in one validating pass."""
    items = {
        key: value
        for key in CONFIG_SCHEMA
        if (value := getattr(args, f"cfg_{key}", None)) is not None
    }
    base = load_config(args.config) if args.config is not None else None
    return config_from_items(items, base=base)


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
        manifest[f"sha256.{name}"] = hashlib.sha256(files[name].encode("utf-8")).hexdigest()
    with open(outdir / "manifest.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(key_value_text(manifest))
    return manifest


def _run_sample_path(args, config: ExperimentConfig) -> int:
    trajectories = run_sample_paths(config, args.runs)
    reached = sum(t.converged is True for t in trajectories)
    summary = key_value_text(
        {
            "subcommand": "sample-path",
            "runs": args.runs,
            "n_s": config.n_s_values[0],
            "steps": ",".join(str(t.n_steps) for t in trajectories),
            "final_mags": ",".join(repr(t.final_mag) for t in trajectories),
        }
    )
    emit_reproduction_bundle(
        config,
        {"sample_paths.csv": sample_paths_csv(trajectories), "summary.txt": summary},
        args.out,
    )
    print(
        f"sample-path: {args.runs} runs, n_s={config.n_s_values[0]}, "
        f"wrote {args.out}/sample_paths.csv"
    )
    if config.eps is not None and reached < args.runs:
        return 2
    return 0


def _run_hitting_time(args, config: ExperimentConfig) -> int:
    results = run_hitting_time_sweep(config)
    unresolved = sum(p.hitting_time is None for r in results for p in r.points)
    summary = key_value_text(
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
        args.out,
    )
    print(
        f"hitting-time: {len(results)} alphas x {len(config.n_s_values)} n_s, "
        f"{unresolved} unresolved, wrote {args.out}/hitting_time.csv"
    )
    return 2 if unresolved else 0


def _run_avg_convergence(args, config: ExperimentConfig) -> int:
    results = run_avg_convergence_sweep(config)
    censored = sum(p.censored for r in results for p in r.points)
    empty = sum(p.trials == 0 for r in results for p in r.points)
    summary = key_value_text(
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
        args.out,
    )
    print(
        f"avg-convergence: {len(results)} alphas x {len(config.n_s_values)} n_s, "
        f"{censored} censored, wrote {args.out}/avg_convergence.csv"
    )
    return 2 if empty else 0


def _run_verify(args, config: ExperimentConfig) -> int:
    n_s = config.n_s_values[0]
    rng = np.random.default_rng(config.master_seed)
    channel = generate_channel(n_s, rng)
    if args.check == "shift-invariance":
        report = verify_shift_invariance(channel, config.P, trials=1000, rng=rng)
    elif args.check == "local-global":
        report = verify_local_equals_global(
            channel, config.P, GridSpec(resolution=args.resolution, n_s=n_s)
        )
    elif args.check == "improvement":
        eps = 0.1 * optimal_magnitude(channel, config.P)
        for _ in range(10_000):
            theta = rng.uniform(0.0, TWO_PI, n_s)
            if not epsilon_region_contains(channel, theta, config.P, eps):
                break
        else:
            raise ValueError(
                "no probe point outside the eps region found; with n_s=1 every "
                "phase vector is optimal, pick a larger n_s"
            )
        report = estimate_improvement_probability(
            channel, theta, config.P, config.delta0, eps=eps,
            samples=args.samples, rng=rng,
        )
    else:  # increment
        traj = run_trajectory(
            channel,
            config.perturbation(),
            PowerConfig(P=config.P),
            "zero",
            StopRule.steps(config.horizon_for(n_s)),
            seed=rng,
            record_thetas=False,
        )
        report = verify_monotone_and_increment(traj)
    text = report.to_text()
    print(text, end="")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / f"verify_{args.check}.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0 if report.passed else 2


_RUNNERS = {
    "sample-path": _run_sample_path,
    "hitting-time": _run_hitting_time,
    "avg-convergence": _run_avg_convergence,
    "verify": _run_verify,
}


def _sizes(args, config: ExperimentConfig) -> str:
    """The sizes a run allocates by, as key=value: the config's n_s, trials
    and horizon, then the subcommand's own size flags."""
    sizes = {key: CONFIG_SCHEMA[key].format(getattr(config, CONFIG_SCHEMA[key].field))
             for key in ("n_s", "trials", "horizon")}
    sizes.update((name, getattr(args, name)) for name in ("runs", "samples", "resolution")
                 if hasattr(args, name))
    return key_value_text(sizes, " ").rstrip()


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write outputs; returns the exit code."""
    config = None
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve_config(args)
        if args.subcommand == "show-config":
            print(dump_config(config), end="")
            return 0
        return _RUNNERS[args.subcommand](args, config)
    except (_UsageError, ValueError, OSError) as exc:
        message = str(exc)
    except MemoryError:  # before the config resolved there are no sizes to name
        message = "out of memory" if config is None else f"out of memory at {_sizes(args, config)}"
    print(f"error: {message}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
