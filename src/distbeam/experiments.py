"""Declarative experiment runners: sample paths, hitting time vs n_s, and
average convergence time vs n_s, with seed-level reproducibility.

Per-trial random streams are a pure function of (master_seed, n_s, trial), so
adding trials, n_s points, or thresholds never perturbs existing results. All
trials of one n_s advance in lockstep through the search driver,
:func:`distbeam.search._drive`, the same one
:func:`distbeam.search.run_trajectory` runs on a single row, so every
magnitude is bit-identical to per-trial trajectories, with or without noise.
Each study declares its goals, thresholds on a value that never decreases:
alpha times the mean optimum for the trial-order mean (hitting time), alpha
times each trial's optimum for its stored estimate (average convergence), or
each run's eps goal (sample paths). The driver finds every first passage,
retires a trial once it reaches its highest goal and stops the run on the
step where every watched value has.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import _whole, generate_channel, PowerConfig
from .search import PerturbationSpec, StopRule, _drive, _start

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


class ConfigKey(NamedTuple):
    """One config-file key: the ExperimentConfig field it sets, the parser of
    its text and the canonical formatter. Its CLI flag is ``--`` plus the key
    with ``_`` turned into ``-``."""

    field: str
    parse: Callable[[str], object]
    format: Callable[[object], str]


def _key(default, parse=str, format=str, key=None):
    """A config field: its default, the parser of its text, its canonical
    formatter and its config-file key (the field name unless given)."""
    return dataclasses.field(default=default,
                             metadata={"key": key, "parse": parse, "format": format})


def _comma_list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda text: tuple(item(v) for v in text.split(","))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, reproducible description of one experiment; each field is
    one config key, in the canonical dump order.

    ``alpha`` may be a single fraction or a tuple of fractions; all fractions
    share the same simulated trials (seeds do not depend on alpha).
    ``horizon=None`` means the default budget of 200*n_s steps per n_s.
    """

    kind: str = _key("hitting-time")
    n_s_values: tuple[int, ...] = _key(
        (10,), _comma_list(int), lambda v: ",".join(map(str, v)), key="n_s")
    trials: int = _key(100, int)
    alpha: tuple[float, ...] = _key((0.9,), _comma_list(float), lambda v: ",".join(map(repr, v)))
    eps: float | None = _key(
        None, lambda t: None if t == "" else float(t), lambda v: "" if v is None else repr(v))
    delta0: float = _key(math.pi / 90.0, parse_angle, repr)
    P: float = _key(1.0, float, repr)
    sigma2: float = _key(0.0, float, repr)
    averaging_slots: int = _key(1, int)
    init_mode: str = _key("origin")
    channel_policy: str = _key("redrawn-per-trial")
    horizon: int | None = _key(
        None, lambda t: None if t in ("", "auto") else int(t),
        lambda v: "auto" if v is None else str(v))
    master_seed: int = _key(0, int)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        ns = tuple(np.atleast_1d(np.array(self.n_s_values, dtype=object)))  # items as given
        if not ns:
            raise ValueError("n_s list must be non-empty")
        for n in ns:
            _whole("n_s", n, 1)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_s values must be strictly increasing")
        object.__setattr__(self, "n_s_values", tuple(map(int, ns)))
        _whole("trials", self.trials, 1)
        alphas = tuple(np.atleast_1d(np.array(self.alpha, dtype=object)))  # items as given
        if not alphas:
            raise ValueError("alpha list must be non-empty")
        for a in alphas:
            StopRule(0, alpha=a)  # checks each alpha before the cast
        if len(set(alphas)) < len(alphas):
            raise ValueError("alpha values must not repeat")
        object.__setattr__(self, "alpha", tuple(map(float, alphas)))
        StopRule(0, eps=self.eps)  # checks eps
        self.power()  # checks P, sigma2 and averaging_slots
        self.perturbation()  # checks delta0
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.channel_policy not in CHANNEL_POLICIES:
            raise ValueError(
                f"channel_policy must be one of {CHANNEL_POLICIES}, got {self.channel_policy!r}"
            )
        if self.horizon is not None:
            _whole("horizon", self.horizon, 1)
        _whole("master_seed", self.master_seed, 0)
        for name in ("eps", "delta0", "P", "sigma2"):  # a NumPy float dumps as np.float64(...)
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))

    def horizon_for(self, n_s: int) -> int:
        return self.horizon if self.horizon is not None else 200 * n_s

    def single_n_s(self) -> int:
        """The n_s of a run over one channel size: sample paths and verify checks."""
        if len(self.n_s_values) != 1:
            raise ValueError(f"expected a single n_s, got n_s={','.join(map(str, self.n_s_values))}")
        return self.n_s_values[0]

    def power(self) -> PowerConfig:
        return PowerConfig(
            P=self.P, sigma2=self.sigma2, averaging_slots=self.averaging_slots
        )

    def perturbation(self) -> PerturbationSpec:
        return PerturbationSpec(delta0=self.delta0)


# key=value config file schema, read off the fields; key order is the canonical dump order
CONFIG_SCHEMA = {
    f.metadata["key"] or f.name: ConfigKey(f.name, f.metadata["parse"], f.metadata["format"])
    for f in dataclasses.fields(ExperimentConfig)
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


# Python objects behind one trial (its generator and channel), about 1.5 kB
_ROW_OBJECT_BYTES = 2048
# peak-RSS bytes per averaging slot and row of a noisy run, measured with
# getrusage: one step's noise draw (16), its slot values (16) and their
# magnitudes (8), whether in the initial measurement or in a kernel chunk
_SLOT_BYTES = 40
# peak-RSS bytes per stored value of a budget sample-path run: its float in a
# block and in its run's curve, a share of its run's view of the block, then a
# line of CSV text. Measured with getrusage at 1 and 3 trials and 100k to 1M
# steps: 159-161 bytes a value between two horizons, at most 166 over a run;
# over a horizon-1 run, 161 at 200 trials of n_s 100 and 140 at 1,000 of 150
_SAMPLE_VALUE_BYTES = 168


def _check_fits(config: ExperimentConfig, n_s: int, held_bytes: int = 0,
                rows: int | None = None) -> None:
    """Refuse a run of ``rows`` (by default ``config.trials``) when its
    phasors, per-row objects, slot buffers and the ``held_bytes`` its study
    keeps alone exceed physical memory."""
    rows = config.trials if rows is None else rows
    need = rows * (16 * n_s + _SLOT_BYTES * config.power().slots + _ROW_OBJECT_BYTES) + held_bytes
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(f"a run of {rows} rows needs at least {need} bytes")


def _run_lockstep(
    config: ExperimentConfig, n_s: int, horizon: int, goals: Callable, curves: list | None = None
) -> tuple[np.ndarray, float]:
    """Step all trials of one n_s toward ``goals(opt_mags)``, the thresholds
    for their optimal magnitudes, with :func:`distbeam.search._drive` up to
    ``horizon``; returns its first passages and telescoping error. Trial k
    runs on the stream of ``trial_seed_sequence(master_seed, n_s, k)``: its
    channel (unless shared), initial phases and perturbations, in that order.

    ``curves``, when given, collects each trial's stored estimates while it is in the batch.
    The run is refused before any row exists when its rows do not fit, with
    every trial's values held to ``horizon`` under a budget run's +inf goal;
    and before its first step when those of its trials short of their highest
    goals at t = 0 do not fit.
    """
    held = (horizon + 1) * _SAMPLE_VALUE_BYTES  # one trial's value at every step
    _check_fits(config, n_s, held * config.trials * (curves is not None and config.eps is None))
    shared = None
    if config.channel_policy == "fixed-across-trials":
        seed = shared_channel_seed_sequence(config.master_seed, n_s)
        shared = generate_channel(n_s, np.random.default_rng(seed))
    rngs = [
        np.random.default_rng(trial_seed_sequence(config.master_seed, n_s, k))
        for k in range(config.trials)
    ]
    channels = [shared if shared is not None else generate_channel(n_s, rng) for rng in rngs]
    power = config.power()
    batch = _start(channels, config.init_mode, power, rngs)
    batch.theta = None  # no study reads phases
    goal = np.asarray(goals(math.sqrt(config.P) * batch.amps.sum(axis=1)), dtype=float)
    if curves is not None:  # a trial short of its goals may store a value every step
        _check_fits(config, n_s, held * int((batch.cur < goal.max(axis=0)).sum()))
    return _drive(batch, config.perturbation(), power, horizon, goal, curves)


def run_sample_paths(config: ExperimentConfig) -> tuple[list[np.ndarray], np.ndarray | None]:
    """``config.trials`` runs at one n_s, stepped as one lockstep batch; Fig 1 is
    ``init_mode="uniform"`` with ``channel_policy="fixed-across-trials"``.

    Returns each run's magnitude curve from t = 0, up to the horizon or to its
    first step inside the eps region, and whether each run reached that region
    (None without ``config.eps``)."""
    if config.kind != "sample-path":
        raise ValueError(f"config kind is {config.kind!r}, expected 'sample-path'")
    n_s = config.single_n_s()
    horizon = config.horizon_for(n_s)
    stop = StopRule(horizon, eps=config.eps)  # a budget run's goal is +inf
    curves = []
    first, _ = _run_lockstep(config, n_s, horizon, lambda opt: stop.goal(opt)[None], curves)
    mags = [np.concatenate(pieces) for pieces in curves]  # each from t = 0
    if config.eps is None:
        return mags, None
    reached = first[0] >= 0
    # a run that entered the region stepped on to the end of that block
    return [m[: end + 1] if hit else m for m, end, hit in zip(mags, first[0], reached)], reached


def _sweep(config: ExperimentConfig, goals: Callable) -> tuple[list[np.ndarray], float]:
    """Each n_s's first passages over ``goals`` and the worst telescoping error."""
    firsts, max_dev = [], 0.0
    for n_s in config.n_s_values:
        first, dev = _run_lockstep(config, n_s, config.horizon_for(n_s), goals)
        firsts.append(first)
        max_dev = max(max_dev, dev)
    return firsts, max_dev


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
    alphas = np.array(config.alpha)[:, None]
    firsts, max_dev = _sweep(config, lambda opt: alphas * float(opt.mean()))
    results = []
    for i, alpha in enumerate(config.alpha):
        points = [HittingTimePoint(n_s, int(first[i, 0]) if first[i, 0] >= 0 else None)
                  for n_s, first in zip(config.n_s_values, firsts)]
        resolved = [(p.n_s, p.hitting_time) for p in points if p.hitting_time is not None]
        fit = linear_fit(*zip(*resolved)) if len(resolved) >= 2 else (math.nan,) * 3
        results.append(HittingTimeResult(alpha, tuple(points), *fit, max_dev))
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
    alphas = np.array(config.alpha)[:, None]
    firsts, max_dev = _sweep(config, lambda opt: alphas * opt)
    results = []
    for i, alpha in enumerate(config.alpha):
        points = []
        for n_s, first in zip(config.n_s_values, firsts):
            crossed = first[i] >= 0
            times = np.where(crossed, first[i], np.nan)
            n_ok = int(crossed.sum())
            ok = times[crossed]
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


def sample_paths_csv(curves: list[np.ndarray]) -> str:
    """CSV with columns step,run_id,mag; rows grouped by run, steps ascending."""
    lines = ["step,run_id,mag"]
    for run_id, curve in enumerate(curves):
        for t, mag in enumerate(curve.tolist()):
            lines.append(f"{t},{run_id},{mag!r}")
    return "\n".join(lines) + "\n"


def hitting_time_csv(results: list[HittingTimeResult]) -> str:
    """CSV with columns n_s,alpha,hitting_time,slope,intercept,r2.

    An unresolved hitting time (the mean never crossed within the horizon)
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
