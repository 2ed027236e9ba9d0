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

from .channel import generate_channel, optimal_magnitude
from .experiments import (
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    _check_fits,
    avg_convergence_csv,
    config_from_items,
    config_texts,
    dump_config,
    hitting_time_csv,
    key_value_text,
    load_config,
    run_avg_convergence_sweep,
    run_hitting_time_sweep,
    run_sample_paths,
    sample_paths_csv,
    value_text,
)
from .oracle import (
    GridSpec,
    estimate_improvement_probability,
    random_probe,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)
from .search import StopRule, run_trajectory

# peak-RSS bytes per step of verify --check increment's trajectory, its
# stored estimates, increments and bits: measured with getrusage at 100k to
# 3M steps, 40.7-40.9 bytes between two horizons, at most 41.5 over a run
_TRAJECTORY_STEP_BYTES = 42
# peak-RSS bytes per sample of verify --check improvement: its improvement
# (8), then the positive ones (up to 8), which np.median sorts in place.
# Measured with getrusage at 2M to 10M samples, slices included: 12.6-13.3
# bytes over a run at n_s 10 and 50, where half the samples improve, and
# 17.0-17.3 at an antipodal n_s = 2 probe, where every sample improves
_IMPROVEMENT_SAMPLE_BYTES = 18

_ORACLE_KEYS = ("n_s", "master_seed", "P")
_VERIFY_FLAGS = {"resolution": (720, "grid resolution for local-global"),
                 "samples": (100_000, "Monte Carlo samples for improvement")}
# the config keys and verify flags each verify check and each study reads; a
# run refuses any other key but kind, or flag, that is away from its default
_READS = {
    "shift-invariance": _ORACLE_KEYS,
    "local-global": (*_ORACLE_KEYS, "resolution"),
    "improvement": (*_ORACLE_KEYS, "delta0", "samples"),
    "increment": (*_ORACLE_KEYS, "delta0", "init_mode", "horizon"),
    "sample-path": tuple(key for key in CONFIG_SCHEMA if key != "alpha"),
    "hitting-time": tuple(key for key in CONFIG_SCHEMA if key != "eps"),
    "avg-convergence": tuple(key for key in CONFIG_SCHEMA if key != "eps"),
}


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

    add("sample-path", "one magnitude curve per trial over a single n_s")
    add("hitting-time", "time for the mean magnitude to reach alpha times the mean optimum, per n_s")
    add("avg-convergence", "mean per-run first-passage time to alpha times the optimum, per n_s")
    p = add("verify", "run a verification check on a generated channel")
    p.add_argument("--check", choices=[run for run in _READS if run not in EXPERIMENT_KINDS],
                   default="shift-invariance")
    for flag, (usual, doc) in _VERIFY_FLAGS.items():
        p.add_argument("--" + flag, type=int, default=usual, help=doc)
    add("show-config", "print the materialized config")
    return parser


_PARSER = _build_parser()  # built once a process: building it costs some 30 parses


def _resolve_config(args) -> ExperimentConfig:
    """The config file (or the defaults) with the subcommand's kind and every
    given flag applied in one validating pass."""
    # argparse (before 3.12) drops a flag's lone "--" value and stores [];
    # put the "--" back so the config names the key when it refuses it
    items = {
        key: "--" if value == [] else value
        for key in CONFIG_SCHEMA
        if (value := getattr(args, f"cfg_{key}", None)) is not None
    }
    base = load_config(args.config) if args.config is not None else None
    return config_from_items(items, base=base)


def _reads(args, config: ExperimentConfig) -> list[str]:
    """The config keys and verify flags the run reads."""
    # slots average noisy estimates: a noiseless run reads none
    return [key for key in _READS[getattr(args, "check", args.subcommand)]
            if key != "averaging_slots" or config.power().slots]


def _refuse_unread_keys(args, config: ExperimentConfig) -> None:
    """Refuse, naming it, the first key but kind, then verify flag, that the run
    does not read and that is away from its default: it would drop it silently."""
    reads = _reads(args, config)
    default = ExperimentConfig()
    texts, usual_texts = config_texts(config), config_texts(default)
    # (key, whether it is away from its default, its text, the default's text)
    settings = [(key, getattr(config, row.field) != getattr(default, row.field), texts[key],
                 usual_texts[key]) for key, row in CONFIG_SCHEMA.items() if key != "kind"]
    settings += [(flag, getattr(args, flag, usual) != usual, getattr(args, flag, usual), usual)
                 for flag, (usual, _) in _VERIFY_FLAGS.items()]
    for key, changed, text, usual in settings:
        if key not in reads and changed:
            name = f"verify --check {args.check}" if hasattr(args, "check") else args.subcommand
            raise ValueError(f"{name} does not read {key}: got {key}={text}, "
                             f"expected the default {key}={usual}")


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
        (outdir / name).write_text(text, encoding="utf-8", newline="\n")
    manifest = {
        "seed": value_text(config.master_seed),
        "config": "resolved.cfg",
        "files": value_text(sorted(files)),
    }
    for name in sorted(files):
        manifest[f"sha256.{name}"] = hashlib.sha256(files[name].encode("utf-8")).hexdigest()
    (outdir / "manifest.txt").write_text(key_value_text(manifest), encoding="utf-8", newline="\n")
    return manifest


def _run_study(args, config: ExperimentConfig) -> int:
    """Run ``config.kind``'s study, write its bundle (the CSV and a summary.txt
    of the subcommand then the study's own keys) and print one line. Exit code
    2 when the study missed: a run outside the eps region at its horizon, an
    unresolved hitting time, or a first-passage point with every run censored."""
    kind = config.kind
    if kind == "sample-path":
        curves, reached = run_sample_paths(config)
        csv_name, csv = "sample_paths.csv", sample_paths_csv(curves)
        keys = {"runs": config.trials, "n_s": config.n_s_values,
                "steps": [len(c) - 1 for c in curves], "final_mags": [c[-1] for c in curves]}
        line = f"{config.trials} runs, n_s={config.single_n_s()}"
        missed = reached is not None and not reached.all()
    else:
        hitting = kind == "hitting-time"
        results = (run_hitting_time_sweep if hitting else run_avg_convergence_sweep)(config)
        csv_name = kind.replace("-", "_") + ".csv"
        csv = (hitting_time_csv if hitting else avg_convergence_csv)(results)
        points = [p for r in results for p in r.points]
        count = sum((p.hitting_time is None) if hitting else p.censored for p in points)
        keys = {"alphas": config.alpha, "n_s": config.n_s_values, "trials": config.trials,
                "unresolved" if hitting else "censored_total": count,
                "increment_identity_max_dev": results[0].increment_identity_max_dev}
        line = (f"{len(results)} alphas x {len(config.n_s_values)} n_s, "
                f"{count} {'unresolved' if hitting else 'censored'}")
        missed = count > 0 if hitting else any(p.trials == 0 for p in points)
    summary = key_value_text({"subcommand": kind, **keys})
    emit_reproduction_bundle(config, {csv_name: csv, "summary.txt": summary}, args.out)
    print(f"{kind}: {line}, wrote {args.out}/{csv_name}")
    return 2 if missed else 0


def _run_verify(args, config: ExperimentConfig) -> int:
    n_s = config.single_n_s()
    rng = np.random.default_rng(config.master_seed)
    channel = generate_channel(n_s, rng)
    if args.check == "shift-invariance":
        report = verify_shift_invariance(channel, config.P, trials=1000, rng=rng)
    elif args.check == "local-global":
        report = verify_local_equals_global(
            channel, config.P, GridSpec(resolution=args.resolution, n_s=n_s)
        )
    elif args.check == "improvement":
        _check_fits(config, n_s, _IMPROVEMENT_SAMPLE_BYTES * args.samples, rows=1)
        eps = 0.1 * optimal_magnitude(channel, config.P)
        report = estimate_improvement_probability(
            channel, random_probe(channel, config.P, eps, rng), config.P, config.delta0,
            eps=eps, samples=args.samples, rng=rng,
        )
    else:  # increment
        _check_fits(config, n_s, _TRAJECTORY_STEP_BYTES * config.horizon_for(n_s), rows=1)
        traj = run_trajectory(
            channel,
            config.perturbation(),
            config.power(),
            config.init_mode,
            StopRule.steps(config.horizon_for(n_s)),
            seed=rng,
            record_thetas=False,
        )
        report = verify_monotone_and_increment(traj)
    text = report.to_text()
    print(text, end="")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"verify_{args.check}.txt").write_text(text, encoding="utf-8", newline="\n")
    return 0 if report.passed else 2


def _sizes(args, config: ExperimentConfig) -> str:
    """The sizes a run allocates by and reads, as key=value: the config's n_s,
    trials, averaging_slots (when noisy) and horizon, then the verify size flag
    its check reads."""
    reads = _reads(args, config)
    texts = config_texts(config)
    sizes = {key: texts[key] for key in ("n_s", "trials", "averaging_slots", "horizon")
             if key in reads}
    sizes.update((flag, getattr(args, flag)) for flag in _VERIFY_FLAGS if flag in reads)
    return key_value_text(sizes, " ").rstrip()


def parse_and_dispatch(argv: list[str]) -> int:
    """Parse argv, run the subcommand, write outputs; returns the exit code."""
    config = None
    try:
        args = _PARSER.parse_args(argv)
        config = _resolve_config(args)
        if args.subcommand == "show-config":
            print(dump_config(config), end="")
            return 0
        _refuse_unread_keys(args, config)
        return (_run_verify if args.subcommand == "verify" else _run_study)(args, config)
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
