"""Local random search with one-bit keep/discard feedback.

The generic loop: sample a perturbation from a local measure, evaluate the
received magnitude at the perturbed phases, and let a decision map accept
only non-degrading moves. The canonical instance accepts exactly when the
proposed magnitude strictly exceeds the current one (ties discard).

One lockstep kernel, :func:`_lockstep`, runs this loop on a (trials, n_s)
batch. A single step, a trajectory (one row) and the experiment engine (one
row per trial) all run through it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    TWO_PI,
    ChannelRealization,
    PowerConfig,
    SeedLike,
    as_generator,
    canonical_phases,
    coherent_magnitude,
    measure_magnitude,
    optimal_magnitude,
    phasors,
    rotations,
)

_CHUNK = 256  # most steps whose perturbations one generator call draws
_CHUNK_VALUES = 1 << 17  # most random values one chunk draws across all rows


class FeedbackBit(enum.Enum):
    """Receiver broadcast: keep the perturbed phases or fall back."""

    KEEP = "keep"
    DISCARD = "discard"


class DecisionMapViolation(RuntimeError):
    """A plugged decision map accepted a magnitude-decreasing move."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling measure for phase perturbations.

    Each component is drawn i.i.d. uniform on [-delta0, delta0] (the
    uniform hypercube). An optional per-step ``schedule`` overrides delta0 for
    the first ``len(schedule)`` steps (time-varying measure); later steps fall
    back to ``delta0``.
    """

    delta0: float
    schedule: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0 < self.delta0 <= math.pi:
            raise ValueError("delta0 must be in (0, pi]")
        if self.schedule is not None:
            sched = tuple(float(d) for d in self.schedule)
            if any(not 0 < d <= math.pi for d in sched):
                raise ValueError("schedule entries must be in (0, pi]")
            object.__setattr__(self, "schedule", sched)

    def delta0_at(self, step_index: int) -> float:
        if self.schedule is not None and step_index < len(self.schedule):
            return self.schedule[step_index]
        return self.delta0


@dataclass(frozen=True)
class SearchState:
    """Accepted phases, their measured magnitude, and the step counter."""

    theta: np.ndarray
    current_mag: float
    step_index: int


@dataclass(frozen=True)
class StopRule:
    """When a trajectory ends: a hard step budget, optionally with a
    convergence threshold (epsilon region, strict >, or alpha fraction, >=).
    """

    max_steps: int
    eps: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.eps is not None and self.alpha is not None:
            raise ValueError("stop rule takes eps or alpha, not both")
        if self.eps is not None and not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.alpha is not None and not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")

    @staticmethod
    def steps(max_steps: int) -> "StopRule":
        return StopRule(max_steps=max_steps)

    @staticmethod
    def eps_region(eps: float, max_steps: int) -> "StopRule":
        return StopRule(max_steps=max_steps, eps=eps)

    @staticmethod
    def alpha_fraction(alpha: float, max_steps: int) -> "StopRule":
        return StopRule(max_steps=max_steps, alpha=alpha)

    def met(self, mag: float, opt_mag: float) -> bool | None:
        """Threshold test, or None when this is a pure step-budget rule."""
        if self.eps is not None:
            return mag > opt_mag - self.eps
        if self.alpha is not None:
            return mag >= self.alpha * opt_mag
        return None


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed record of one search run.

    ``bits[t]``, ``mags[t]`` and ``increments[t]`` describe step t+1 (the
    transition out of state t); ``magnitudes()`` prepends the initial
    magnitude. Per-step phase vectors are kept only when the run recorded
    them. ``converged`` is None for pure step-budget runs, otherwise whether
    the threshold fired within the budget.
    """

    channel: ChannelRealization
    spec: PerturbationSpec
    power: PowerConfig
    stop: StopRule
    initial_theta: np.ndarray
    initial_mag: float
    final_theta: np.ndarray
    bits: np.ndarray
    mags: np.ndarray
    increments: np.ndarray
    converged: bool | None
    proposed_thetas: np.ndarray | None = None
    thetas: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return int(self.bits.shape[0])

    @property
    def final_mag(self) -> float:
        return float(self.mags[-1]) if self.n_steps else self.initial_mag

    def magnitudes(self) -> np.ndarray:
        """Magnitude curve indexed by t = 0..n_steps (initial value first)."""
        return np.concatenate(([self.initial_mag], self.mags))


def _init_theta(channel: ChannelRealization, mode, rng: np.random.Generator) -> np.ndarray:
    if isinstance(mode, str):
        if mode in ("zero", "origin"):
            return channel.phi.copy()
        if mode == "uniform":
            return canonical_phases(rng.uniform(0.0, TWO_PI, channel.n_s))
        raise ValueError(f"unknown init mode: {mode!r}")
    theta = canonical_phases(mode)
    if theta.shape != (channel.n_s,):
        raise ValueError(
            f"explicit init vector has length {theta.shape[0] if theta.ndim == 1 else '?'}, "
            f"channel has {channel.n_s} transmitters"
        )
    return theta


def init_state(
    channel: ChannelRealization,
    mode,
    power: PowerConfig,
    rng: SeedLike = None,
) -> SearchState:
    """Initial search state.

    ``mode`` is one of the strings ``"zero"`` / ``"origin"`` (zero beamforming
    phases, so theta[0] equals the channel phases), ``"uniform"`` (each
    component i.i.d. uniform on [0, 2pi)), or an explicit phase vector.
    """
    rng = as_generator(rng)
    theta = _init_theta(channel, mode, rng)
    mag = measure_magnitude(channel, theta, power, rng)
    return SearchState(theta=theta, current_mag=mag, step_index=0)


def sample_perturbation(
    spec: PerturbationSpec, n_s: int, step_index: int, rng: SeedLike = None
) -> np.ndarray:
    """One perturbation vector: n_s i.i.d. uniform draws on [-delta0(t), delta0(t)]."""
    d0 = spec.delta0_at(step_index)
    return as_generator(rng).uniform(-d0, d0, n_s)


@dataclass
class _Batch:
    """Lockstep state of independent searches, one row per trial: the
    accepted phases (reduced to [0, 2pi) at chunk starts), their phasors,
    the stored magnitude estimates and the steps taken."""

    amps: np.ndarray
    theta: np.ndarray
    w: np.ndarray
    cur: np.ndarray
    t: int = 0


def _noise(rngs, power: PowerConfig, steps: int):
    """Slot noise for ``steps`` measurements of every row, shape
    (steps, rows, 2, k); ``steps`` Nones when noiseless."""
    if power.sigma2 == 0.0:
        return [None] * steps
    shape = (steps, 2, power.averaging_slots)
    return np.stack([rng.standard_normal(shape) for rng in rngs], axis=1)


def _start(channels, init_mode, power: PowerConfig, rngs):
    """The initial batch and the noise streams of its rows.

    Each row draws its initial phases from its own generator. Measurement
    noise, when on, comes from a child stream spawned from that generator's
    seed sequence, so the perturbation stream is the same with and without
    noise.
    """
    noise_rngs = [rng.spawn(1)[0] for rng in rngs] if power.sigma2 > 0 else None
    theta = np.stack([_init_theta(ch, init_mode, rng) for ch, rng in zip(channels, rngs)])
    amps = np.stack([ch.a for ch in channels])
    w = phasors(amps, theta)
    cur = coherent_magnitude(w.sum(axis=1), power.P, power.sigma2, _noise(noise_rngs, power, 1)[0])
    return _Batch(amps, theta, w, cur), noise_rngs


def _lockstep(batch: _Batch, spec, power, stop: StopRule, opt, rngs, noise_rngs, accept=None):
    """Advance ``batch`` in place by propose -> measure -> accept. Each step
    yields its perturbations, keep mask and increments (0 on discard).

    Row k perturbs every phase with a draw from ``spec`` on ``rngs[k]``,
    measures the proposal with slot noise from ``noise_rngs[k]``, and keeps
    the move when ``accept(current, proposed)`` holds. Without a predicate it
    keeps exactly when the proposed estimate strictly exceeds the stored one.
    Steps run up to ``stop.max_steps``, or until every row meets ``stop``
    against its optimum ``opt``, checked at the start of each chunk.

    A chunk holds up to ``_CHUNK`` steps and ``_CHUNK_VALUES`` draws across
    rows (a scheduled step is its own chunk); chunking leaves the streams as
    they are. Proposed phasors are the stored ones times e^{j(delta_i - delta_r)}.
    """
    rows, n_s = batch.theta.shape
    slots = 2 * power.averaging_slots if power.sigma2 > 0 else 0
    size_cap = min(_CHUNK, max(1, _CHUNK_VALUES // (rows * (n_s + slots))))
    n_sched = 0 if spec.schedule is None else len(spec.schedule)
    while batch.t < stop.max_steps:
        met = stop.met(batch.cur, opt)
        if met is not None and met.all():
            return
        size = 1 if batch.t < n_sched else min(size_cap, stop.max_steps - batch.t)
        d0 = spec.delta0_at(batch.t)
        deltas = np.stack([rng.uniform(-d0, d0, (size, n_s)) for rng in rngs], axis=1)
        turns = rotations(batch.amps, deltas)
        noise = _noise(noise_rngs, power, size)
        batch.theta = canonical_phases(batch.theta)
        for i in range(size):
            proposed = batch.w * turns[i]
            pm = coherent_magnitude(proposed.sum(axis=1), power.P, power.sigma2, noise[i])
            cur = batch.cur
            if accept is None:
                keep = pm > cur
            else:
                keep = np.array([bool(accept(c, p)) for c, p in zip(cur.tolist(), pm.tolist())])
                worse = keep & (pm < cur)
                if power.sigma2 == 0.0 and worse.any():
                    r = int(np.argmax(worse))
                    raise DecisionMapViolation(
                        f"decision map accepted a decrease at step {batch.t + 1}: "
                        f"{cur[r].item()!r} -> {pm[r].item()!r}"
                    )
            inc = np.where(keep, pm - cur, 0.0)
            np.copyto(batch.w, proposed, where=keep[:, None])
            np.add(batch.theta, deltas[i], out=batch.theta, where=keep[:, None])
            np.copyto(cur, pm, where=keep)
            batch.t += 1
            yield deltas[i], keep, inc


def _one_step(state, channel, spec, power, rng, accept):
    """One kernel step of a single search; ``rng`` draws both the perturbation
    and then the slot noise."""
    rng = as_generator(rng)
    amps, theta = channel.a[None], state.theta[None].copy()
    batch = _Batch(amps, theta, phasors(amps, theta), np.array([state.current_mag]),
                   state.step_index)
    stop = StopRule.steps(state.step_index + 1)
    _, keep, inc = next(_lockstep(batch, spec, power, stop, None, [rng], [rng], accept))
    if keep[0]:
        new_state = SearchState(canonical_phases(batch.theta[0]), float(batch.cur[0]), batch.t)
        return new_state, FeedbackBit.KEEP, float(inc[0])
    new_state = SearchState(state.theta, state.current_mag, batch.t)
    return new_state, FeedbackBit.DISCARD, 0.0


def one_bit_step(
    state: SearchState,
    channel: ChannelRealization,
    spec: PerturbationSpec,
    power: PowerConfig,
    rng: SeedLike = None,
) -> tuple[SearchState, FeedbackBit, float]:
    """One slot of the one-bit scheme.

    Perturb, measure, and keep exactly when the proposed magnitude strictly
    exceeds the stored magnitude of the last accepted point; ties and losses
    discard and leave the phases untouched. Returns the new state, the
    feedback bit, and the magnitude increment (0 on discard).
    """
    return _one_step(state, channel, spec, power, rng, None)


def plug_decision_map(
    accept: Callable[[float, float], bool],
) -> Callable[..., tuple[SearchState, FeedbackBit, float]]:
    """Build a step function from an accept predicate on (current, proposed).

    The framework requires accepted moves never to decrease the objective; in
    noiseless mode a decreasing accept raises :class:`DecisionMapViolation`.
    The strictly-greater predicate reproduces :func:`one_bit_step` exactly.
    """

    def step(state, channel, spec, power, rng=None):
        return _one_step(state, channel, spec, power, rng, accept)

    step.accept = accept
    return step


def run_trajectory(
    channel: ChannelRealization,
    spec: PerturbationSpec,
    power: PowerConfig,
    init_mode,
    stop: StopRule,
    seed: SeedLike = None,
    step_fn: Callable[..., tuple[SearchState, FeedbackBit, float]] | None = None,
    record_thetas: bool = True,
) -> Trajectory:
    """Run the search until the stop rule fires or the step budget runs out.

    This is the lockstep kernel on a single row. ``step_fn`` picks the
    decision map: :func:`one_bit_step` (the default) or a step built by
    :func:`plug_decision_map`. Measurement noise comes from a child stream
    spawned from the seed, perturbations from the seed's own stream.

    The threshold (if any) is also checked at t=0, so an initial point already
    past it yields a zero-step trajectory. Exhausting the budget without
    convergence is reported via ``converged=False``, not an exception.
    Identical inputs and seed give a bit-identical trajectory.
    """
    accept = getattr(step_fn, "accept", None)
    if step_fn not in (None, one_bit_step) and accept is None:
        raise TypeError("step_fn must be one_bit_step or built by plug_decision_map")
    rng = as_generator(seed)
    batch, noise_rngs = _start([channel], init_mode, power, [rng])
    initial_theta = batch.theta[0].copy()
    initial_mag = float(batch.cur[0])
    opt = optimal_magnitude(channel, power.P)

    bits, mags, incs, props, thetas = [], [], [], [], []
    for delta, keep, inc in _lockstep(
        batch, spec, power, stop, opt, [rng], noise_rngs, accept
    ):
        bits.append(keep[0])
        mags.append(batch.cur[0])
        incs.append(inc[0])
        if record_thetas:
            thetas.append(canonical_phases(batch.theta[0]))
            props.append(thetas[-1] if keep[0] else canonical_phases(batch.theta[0] + delta[0]))
        if stop.met(float(batch.cur[0]), opt):
            break  # the kernel checks only between chunks

    n = len(bits)
    return Trajectory(
        channel=channel,
        spec=spec,
        power=power,
        stop=stop,
        initial_theta=initial_theta,
        initial_mag=initial_mag,
        final_theta=canonical_phases(batch.theta[0]),
        bits=np.asarray(bits, dtype=bool),
        mags=np.asarray(mags, dtype=float),
        increments=np.asarray(incs, dtype=float),
        converged=stop.met(float(batch.cur[0]), opt),
        proposed_thetas=np.asarray(props, dtype=float).reshape(n, channel.n_s)
        if record_thetas
        else None,
        thetas=np.asarray(thetas, dtype=float).reshape(n, channel.n_s)
        if record_thetas
        else None,
    )

