"""Declarative experiment runners: sample paths, hitting time vs n_s, and
average convergence time vs n_s, with seed-level reproducibility.

Per-trial random streams are a pure function of (master_seed, n_s, trial), so
adding trials, n_s points, or thresholds never perturbs existing results. All
trials of one n_s advance in lockstep through the search kernel, the same one
:func:`distbeam.search.run_trajectory` runs on a single row, so the curves are
bit-identical to per-trial trajectories, with or without noise.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import generate_channel, PowerConfig
from .search import (
    PerturbationSpec,
    StopRule,
    Trajectory,
    _lockstep,
    _start,
    run_trajectory,
)

EXPERIMENT_KINDS = ("sample-path", "hitting-time", "avg-convergence")
INIT_MODES = ("origin", "zero", "uniform")
CHANNEL_POLICIES = ("redrawn-per-trial", "fixed-across-trials")


def parse_angle(text: str) -> float:
    """Parse an angle in radians; accepts plain floats and pi expressions
    like ``pi``, ``pi/90``, ``2*pi/45``, ``-pi/2``, ``0.5*pi``."""
    t = text.strip().lower().replace(" ", "")
    m = re.fullmatch(r"([+-]?\d+(?:\.\d*)?|[+-])?\*?pi(?:/([+-]?\d+(?:\.\d*)?))?", t)
    if m:
        raw_coef = m.group(1)
        if raw_coef in (None, "", "+"):
            coef = 1.0
        elif raw_coef == "-":
            coef = -1.0
        else:
            coef = float(raw_coef)
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0:
            raise ValueError(f"zero divisor in angle: {text!r}")
        return coef * math.pi / div
    try:
        return float(t)
    except ValueError:
        raise ValueError(f"cannot parse angle: {text!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, reproducible description of one experiment.

    ``alpha`` may be a single fraction or a tuple of fractions; all fractions
    share the same simulated trials (seeds do not depend on alpha).
    ``horizon=None`` means the default budget of 200*n_s steps per n_s.
    """

    kind: str = "hitting-time"
    n_s_values: tuple[int, ...] = (10,)
    trials: int = 100
    alpha: tuple[float, ...] = (0.9,)
    eps: float | None = None
    delta0: float = math.pi / 90.0
    P: float = 1.0
    sigma2: float = 0.0
    averaging_slots: int = 1
    init_mode: str = "origin"
    channel_policy: str = "redrawn-per-trial"
    horizon: int | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        ns = tuple(int(n) for n in np.atleast_1d(np.asarray(self.n_s_values)))
        if not ns:
            raise ValueError("n_s list must be non-empty")
        if any(n < 1 for n in ns):
            raise ValueError("n_s values must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_s values must be strictly increasing")
        object.__setattr__(self, "n_s_values", ns)
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        alphas = self.alpha
        if isinstance(alphas, (int, float)):
            alphas = (float(alphas),)
        alphas = tuple(float(a) for a in alphas)
        if not alphas:
            raise ValueError("alpha list must be non-empty")
        if any(not 0.0 < a <= 1.0 for a in alphas):
            raise ValueError("alpha must be in (0, 1]")
        object.__setattr__(self, "alpha", alphas)
        if self.eps is not None and not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        self.power()  # checks P, sigma2 and averaging_slots
        self.perturbation()  # checks delta0
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.channel_policy not in CHANNEL_POLICIES:
            raise ValueError(
                f"channel_policy must be one of {CHANNEL_POLICIES}, got {self.channel_policy!r}"
            )
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    def horizon_for(self, n_s: int) -> int:
        return self.horizon if self.horizon is not None else 200 * n_s

    def power(self) -> PowerConfig:
        return PowerConfig(
            P=self.P, sigma2=self.sigma2, averaging_slots=self.averaging_slots
        )

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(delta0=self.delta0)


class ConfigKey(NamedTuple):
    """One config-file key: the ExperimentConfig field it sets, the parser of
    its text and the canonical formatter. Its CLI flag is ``--`` plus the key
    with ``_`` turned into ``-``."""

    field: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# key=value config file schema; key order is the canonical dump order
CONFIG_SCHEMA = {
    "kind": ConfigKey("kind", str, str),
    "n_s": ConfigKey("n_s_values", _int_list, lambda v: ",".join(map(str, v))),
    "trials": ConfigKey("trials", int, str),
    "alpha": ConfigKey("alpha", _float_list, lambda v: ",".join(map(repr, v))),
    "eps": ConfigKey(
        "eps", lambda t: None if t == "" else float(t), lambda v: "" if v is None else repr(v)
    ),
    "delta0": ConfigKey("delta0", parse_angle, repr),
    "P": ConfigKey("P", float, repr),
    "sigma2": ConfigKey("sigma2", float, repr),
    "averaging_slots": ConfigKey("averaging_slots", int, str),
    "init_mode": ConfigKey("init_mode", str, str),
    "channel_policy": ConfigKey("channel_policy", str, str),
    "horizon": ConfigKey(
        "horizon",
        lambda t: None if t in ("", "auto") else int(t),
        lambda v: "auto" if v is None else str(v),
    ),
    "master_seed": ConfigKey("master_seed", int, str),
}


def config_from_items(items: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from string key/value pairs on top of ``base``."""
    fields = {}
    for key, text in items.items():
        if key not in CONFIG_SCHEMA:
            raise ValueError(f"unknown config key: {key!r}")
        row, text = CONFIG_SCHEMA[key], text.strip()
        try:
            fields[row.field] = row.parse(text)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key!r}: {text!r}") from exc
    if base is None:
        return ExperimentConfig(**fields)
    return dataclasses.replace(base, **fields)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the line-oriented key=value config format (# starts a comment)."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in items:
            raise ValueError(f"duplicate config key: {key!r}")
        items[key] = value.strip()
    return config_from_items(items)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def key_value_text(fields: dict, sep: str = "\n") -> str:
    """``key=value`` per field, each followed by ``sep``: the one writer of
    configs, manifests, summaries and check reports."""
    return "".join(f"{key}={value}{sep}" for key, value in fields.items())


def dump_config(config: ExperimentConfig) -> str:
    """Canonical key=value rendering; parse_config_text round-trips exactly."""
    return key_value_text(
        {key: row.format(getattr(config, row.field)) for key, row in CONFIG_SCHEMA.items()}
    )


def trial_seed_sequence(master_seed: int, n_s: int, trial: int) -> np.random.SeedSequence:
    """Seed stream for one trial; pure function of (master_seed, n_s, trial)."""
    return np.random.SeedSequence([int(master_seed), int(n_s), int(trial)])


def shared_channel_seed_sequence(master_seed: int, n_s: int) -> np.random.SeedSequence:
    """Seed stream for the channel shared across trials (fixed policy, Fig 1)."""
    return np.random.SeedSequence([int(master_seed), int(n_s)])


def _shared_channel(config: ExperimentConfig, n_s: int):
    if config.channel_policy != "fixed-across-trials":
        return None
    return generate_channel(
        n_s, np.random.default_rng(shared_channel_seed_sequence(config.master_seed, n_s))
    )


# Python objects behind one trial (its generator and channel), about 1.5 kB
_ROW_OBJECT_BYTES = 2048


def _check_fits(rows: int, n_s: int, horizon: int) -> None:
    """Refuse a run up front, before any per-row object exists, when its
    magnitude curves, phasors and per-row objects alone exceed physical memory."""
    need = rows * (8 * (horizon + 1) + 16 * n_s + _ROW_OBJECT_BYTES)
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(f"a run of {rows} rows needs at least {need} bytes")


@dataclass(frozen=True)
class _TrialBatch:
    """One n_s worth of trials: magnitude curves (trials, steps+1), the
    per-trial optimal magnitudes, and the worst relative telescoping error
    |Mag[T] - (c0 + sum I)| / Mag[T] across trials."""

    curves: np.ndarray
    opt_mags: np.ndarray
    identity_dev: float


def _run_lockstep(
    config: ExperimentConfig, n_s: int, horizon: int, stop_alpha: float | None = None
) -> _TrialBatch:
    """Advance all trials of one n_s in lockstep through the search kernel.

    Trial k runs on the stream of ``trial_seed_sequence(master_seed, n_s, k)``:
    its channel (unless shared), initial phases and perturbations, in that
    order. ``stop_alpha`` stops early (at chunk granularity) once every trial
    has reached stop_alpha times its own optimum; curves of stopped trials
    keep extending until the batch stops, which cannot change first passages.
    """
    _check_fits(config.trials, n_s, horizon)
    shared = _shared_channel(config, n_s)
    rngs = [
        np.random.default_rng(trial_seed_sequence(config.master_seed, n_s, k))
        for k in range(config.trials)
    ]
    channels = [shared if shared is not None else generate_channel(n_s, rng) for rng in rngs]
    power = config.power()
    batch, noise_rngs = _start(channels, config.init_mode, power, rngs)
    opt_mags = math.sqrt(config.P) * batch.amps.sum(axis=1)
    stop = StopRule(horizon, alpha=stop_alpha)

    curves = np.empty((config.trials, horizon + 1))
    curves[:, 0] = batch.cur
    inc_sum = np.zeros(config.trials)
    for _, _, inc in _lockstep(
        batch, config.perturbation(), power, stop, opt_mags, rngs, noise_rngs
    ):
        curves[:, batch.t] = batch.cur
        inc_sum += inc

    final = batch.cur
    dev = np.abs(final - (curves[:, 0] + inc_sum)) / np.maximum(final, 1e-30)
    return _TrialBatch(
        curves=curves[:, : batch.t + 1], opt_mags=opt_mags, identity_dev=float(dev.max())
    )


def _per_n_s(config: ExperimentConfig, summarize, stop_alpha: float | None = None):
    """``(n_s, summarize(batch))`` for every n_s of ``config`` in order, and
    the worst telescoping-identity deviation across all of them."""
    summaries, max_dev = [], 0.0
    for n_s in config.n_s_values:
        batch = _run_lockstep(config, n_s, config.horizon_for(n_s), stop_alpha)
        summaries.append((n_s, summarize(batch)))
        max_dev = max(max_dev, batch.identity_dev)
    return summaries, max_dev


def run_sample_paths(config: ExperimentConfig, count: int) -> list[Trajectory]:
    """Fig-1 style runs: one fixed channel, ``count`` trajectories from
    distinct uniform-random initial points, full curves up to the horizon
    (or the eps region when ``config.eps`` is set)."""
    if config.kind != "sample-path":
        raise ValueError(f"config kind is {config.kind!r}, expected 'sample-path'")
    if count < 1:
        raise ValueError("count must be >= 1")
    if len(config.n_s_values) != 1:
        raise ValueError("sample-path runs use a single n_s value")
    n_s = config.n_s_values[0]
    horizon = config.horizon_for(n_s)
    _check_fits(count, n_s, horizon if config.eps is None else 0)  # eps may stop at t=0
    channel = generate_channel(
        n_s, np.random.default_rng(shared_channel_seed_sequence(config.master_seed, n_s))
    )
    stop = StopRule(horizon, eps=config.eps)
    trajectories = []
    for run_id in range(count):
        trajectories.append(
            run_trajectory(
                channel,
                config.perturbation(),
                config.power(),
                "uniform",
                stop,
                seed=trial_seed_sequence(config.master_seed, n_s, run_id),
                record_thetas=False,
            )
        )
    return trajectories


def linear_fit(x, y) -> tuple[float, float, float]:
    """Ordinary least squares line; returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    centered = y - y.mean()
    ss_tot = float(np.dot(centered, centered))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class HittingTimePoint:
    """Convergence-in-mean summary for one n_s."""

    n_s: int
    hitting_time: int | None
    trials: int
    threshold: float
    mean_opt_mag: float
    mean_curve: np.ndarray


@dataclass(frozen=True)
class HittingTimeResult:
    alpha: float
    points: tuple[HittingTimePoint, ...]
    slope: float
    intercept: float
    r_squared: float
    increment_identity_max_dev: float


def run_hitting_time_sweep(config: ExperimentConfig) -> list[HittingTimeResult]:
    """Hitting times for every alpha in ``config.alpha`` over one shared
    simulation pass (all alphas see identical trials)."""
    if config.kind != "hitting-time":
        raise ValueError(f"config kind is {config.kind!r}, expected 'hitting-time'")
    if config.init_mode not in ("origin", "zero"):
        raise ValueError("hitting-time experiments start from the origin "
                         "(zero beamforming phases); set init_mode=origin")
    per_ns, max_dev = _per_n_s(
        config, lambda batch: (batch.curves.mean(axis=0), float(batch.opt_mags.mean()))
    )

    results = []
    for alpha in config.alpha:
        points = []
        for n_s, (mean_curve, mean_opt) in per_ns:
            threshold = alpha * mean_opt
            hits = np.nonzero(mean_curve >= threshold)[0]
            hitting = int(hits[0]) if hits.size else None
            points.append(
                HittingTimePoint(
                    n_s=n_s,
                    hitting_time=hitting,
                    trials=config.trials,
                    threshold=threshold,
                    mean_opt_mag=mean_opt,
                    mean_curve=mean_curve,
                )
            )
        resolved = [(p.n_s, p.hitting_time) for p in points if p.hitting_time is not None]
        if len(resolved) >= 2:
            slope, intercept, r2 = linear_fit(
                [n for n, _ in resolved], [t for _, t in resolved]
            )
        else:
            slope = intercept = r2 = float("nan")
        results.append(
            HittingTimeResult(
                alpha=alpha,
                points=tuple(points),
                slope=slope,
                intercept=intercept,
                r_squared=r2,
                increment_identity_max_dev=max_dev,
            )
        )
    return results


@dataclass(frozen=True)
class ConvergenceTimePoint:
    """First-passage summary for one n_s: sample mean/std over uncensored
    runs, with runs that never reached the threshold counted as censored."""

    n_s: int
    mean_time: float
    std_time: float
    trials: int
    censored: int
    times: np.ndarray


@dataclass(frozen=True)
class ConvergenceTimeResult:
    alpha: float
    points: tuple[ConvergenceTimePoint, ...]
    increment_identity_max_dev: float


def run_avg_convergence_sweep(config: ExperimentConfig) -> list[ConvergenceTimeResult]:
    """Per-run first-passage times to alpha times that run's own optimum,
    for every alpha in ``config.alpha`` over one shared simulation pass."""
    if config.kind != "avg-convergence":
        raise ValueError(f"config kind is {config.kind!r}, expected 'avg-convergence'")
    per_ns, max_dev = _per_n_s(config, lambda batch: batch, stop_alpha=max(config.alpha))

    results = []
    for alpha in config.alpha:
        points = []
        for n_s, batch in per_ns:
            thresholds = alpha * batch.opt_mags
            reached = batch.curves >= thresholds[:, None]
            crossed = reached.any(axis=1)
            first = np.argmax(reached, axis=1).astype(float)
            times = np.where(crossed, first, np.nan)
            n_ok = int(crossed.sum())
            ok = first[crossed]
            mean_time = float(ok.mean()) if n_ok else float("nan")
            std_time = float(ok.std(ddof=1)) if n_ok >= 2 else float("nan")
            points.append(
                ConvergenceTimePoint(
                    n_s=n_s,
                    mean_time=mean_time,
                    std_time=std_time,
                    trials=n_ok,
                    censored=int(config.trials - n_ok),
                    times=times,
                )
            )
        results.append(
            ConvergenceTimeResult(
                alpha=alpha, points=tuple(points), increment_identity_max_dev=max_dev
            )
        )
    return results


def sample_paths_csv(trajectories: list[Trajectory]) -> str:
    """CSV with columns step,run_id,mag; rows grouped by run, steps ascending."""
    lines = ["step,run_id,mag"]
    for run_id, traj in enumerate(trajectories):
        for t, mag in enumerate(traj.magnitudes()):
            lines.append(f"{t},{run_id},{float(mag)!r}")
    return "\n".join(lines) + "\n"


def hitting_time_csv(results: list[HittingTimeResult]) -> str:
    """CSV with columns n_s,alpha,hitting_time,slope,intercept,r2.

    An unresolved hitting time (mean curve never crossed within the horizon)
    renders as an empty hitting_time field; the fit covers resolved rows.
    """
    lines = ["n_s,alpha,hitting_time,slope,intercept,r2"]
    for res in results:
        for p in res.points:
            ht = "" if p.hitting_time is None else str(p.hitting_time)
            lines.append(
                f"{p.n_s},{res.alpha!r},{ht},{res.slope!r},{res.intercept!r},{res.r_squared!r}"
            )
    return "\n".join(lines) + "\n"


def avg_convergence_csv(results: list[ConvergenceTimeResult]) -> str:
    """CSV with columns n_s,alpha,mean_time,std_time,censored."""
    lines = ["n_s,alpha,mean_time,std_time,censored"]
    for res in results:
        for p in res.points:
            lines.append(
                f"{p.n_s},{res.alpha!r},{p.mean_time!r},{p.std_time!r},{p.censored}"
            )
    return "\n".join(lines) + "\n"
