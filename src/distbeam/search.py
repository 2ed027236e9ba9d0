"""Local random search with one-bit keep/discard feedback.

The loop: sample a perturbation from a local measure, measure the received
magnitude at the perturbed phases, and keep the move exactly when the
proposed magnitude strictly exceeds the stored one (ties discard). That one
keep rule never lets the stored magnitude fall.

One lockstep kernel, :func:`_lockstep`, runs this loop on a (trials, n_s)
batch. A single step, a trajectory (one row) and the experiment engine (one
row per trial) all run through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    TWO_PI,
    ChannelRealization,
    PowerConfig,
    SeedLike,
    canonical_phases,
    coherent_magnitude,
    measure_magnitude,
    optimal_magnitude,
    phasors,
    rotations,
)

_CHUNK = 256  # most steps whose perturbations one generator call draws
_CHUNK_VALUES = 1 << 17  # most random values one chunk draws across all rows


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling measure for phase perturbations.

    Each component is drawn i.i.d. uniform on [-delta0, delta0] (the
    uniform hypercube), the same measure at every step.
    """

    delta0: float

    def __post_init__(self):
        if not 0 < self.delta0 <= math.pi:
            raise ValueError("delta0 must be in (0, pi]")


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

    power: PowerConfig
    initial_theta: np.ndarray
    initial_mag: float
    final_theta: np.ndarray
    bits: np.ndarray
    mags: np.ndarray
    increments: np.ndarray
    converged: bool | None
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
    rng = np.random.default_rng(rng)
    theta = _init_theta(channel, mode, rng)
    mag = measure_magnitude(channel, theta, power, rng)
    return SearchState(theta=theta, current_mag=mag, step_index=0)


def sample_perturbation(
    spec: PerturbationSpec, n_s: int, step_index: int, rng: SeedLike = None
) -> np.ndarray:
    """One perturbation vector: n_s i.i.d. uniform draws on [-delta0, delta0].
    The measure is the same at every step, whatever ``step_index``."""
    return np.random.default_rng(rng).uniform(-spec.delta0, spec.delta0, n_s)


@dataclass
class _Batch:
    """Lockstep state of independent searches, one row per trial: the
    amplitudes, the accepted phases or None, their phasors, the stored
    magnitude estimates, each row's perturbation and noise generators (read
    only when noisy) and the steps taken. ``theta`` holds the accepted phases
    after each step of the last block, (steps, rows, n_s); before the first
    block, the initial phases as one step."""

    amps: np.ndarray
    theta: np.ndarray | None
    w: np.ndarray
    cur: np.ndarray
    rngs: list
    noise_rngs: list | None
    t: int = 0

    def keep(self, stay) -> None:
        """Drop the rows where ``stay`` is False, with their streams and phases."""
        self.rngs = [rng for rng, s in zip(self.rngs, stay) if s]
        self.noise_rngs = self.noise_rngs and [rng for rng, s in zip(self.noise_rngs, stay) if s]
        self.amps, self.w, self.cur = self.amps[stay], self.w[stay], self.cur[stay]
        self.theta = None if self.theta is None else self.theta[:, stay]


def _noise(rngs, power: PowerConfig, steps: int):
    """Slot noise w for ``steps`` measurements of every row, of variance
    sigma2 and shape (steps, rows, 2, k); ``steps`` Nones when noiseless."""
    if power.sigma2 == 0.0:
        return [None] * steps
    buf = np.empty((len(rngs), steps, 2, power.averaging_slots))
    for rng, row in zip(rngs, buf):
        rng.standard_normal(out=row)
    buf *= math.sqrt(power.sigma2 / 2.0)
    return buf.swapaxes(0, 1)


def _start(channels, init_mode, power: PowerConfig, rngs) -> _Batch:
    """The initial batch, its rows stepping on ``rngs``.

    Each row draws its initial phases from its own generator. Measurement
    noise, when on, comes from a child stream spawned from that generator's
    seed sequence, so the perturbation stream is the same with and without
    noise.
    """
    noise_rngs = [rng.spawn(1)[0] for rng in rngs] if power.sigma2 > 0 else None
    theta = np.stack([_init_theta(ch, init_mode, rng) for ch, rng in zip(channels, rngs)])
    amps = np.stack([ch.a for ch in channels])
    w = phasors(amps, theta)
    cur = coherent_magnitude(w.sum(axis=1), power.P, _noise(noise_rngs, power, 1)[0])
    return _Batch(amps, theta[None], w, cur, rngs, noise_rngs)


def _lockstep(batch: _Batch, spec, power, max_steps: int, done=None):
    """Advance ``batch`` in place by propose -> measure -> keep, one chunk of
    steps at a time. Each chunk yields a (steps, rows) block: the stored
    estimates after each of its steps.

    Row k perturbs every phase with a draw from ``spec`` on
    ``batch.rngs[k]``, measures the proposal with slot noise from
    ``batch.noise_rngs[k]``, and keeps the move exactly when the proposed
    estimate strictly exceeds the stored one; so a row's stored estimate
    rises exactly on a keep. Steps run up to ``max_steps``. ``done(cur)``,
    when given, is tested on the stored estimates at each chunk start and
    after every step: once it holds the block ends there, and the generator
    returns. The kernel steps the rows the batch holds; a caller drops rows
    with :meth:`_Batch.keep` between blocks.

    A chunk holds up to ``_CHUNK`` steps and ``_CHUNK_VALUES`` draws across
    rows; chunking leaves the streams as they are.
    """
    n_s = batch.w.shape[1]
    slots = 2 * power.averaging_slots if power.sigma2 > 0 else 0
    while batch.t < max_steps and not (done is not None and done(batch.cur)):
        size = min(_CHUNK, max(1, _CHUNK_VALUES // (len(batch.cur) * (n_s + slots))),
                   max_steps - batch.t)
        yield _chunk(batch, spec, power, size, done)


def _chunk(batch: _Batch, spec, power, size: int, done) -> np.ndarray:
    """Run up to ``size`` steps of :func:`_lockstep` on ``batch``, ending
    after the first step where ``done`` holds; returns their block.

    Each row's uniform draws land in one chunk buffer, mapped to
    [-delta0, delta0] in one pass as ``Generator.uniform`` maps them.
    Proposed phasors are the stored ones times e^{j(delta_i - delta_r)}. A
    step is a fixed set of ufunc calls into buffers allocated here and freed
    on return, before the next chunk allocates its own. Tracked phases are
    summed once, in step order, from the kept draws.
    """
    rows, n_s = batch.w.shape
    d0, k = spec.delta0, power.averaging_slots
    deltas = np.empty((rows, size, n_s))
    for rng, row in zip(batch.rngs, deltas):
        rng.random(out=row)
    deltas *= d0 - (-d0)
    deltas += -d0
    deltas = deltas.swapaxes(0, 1)
    turns = rotations(batch.amps, deltas)
    noise = _noise(batch.noise_rngs, power, size)
    block = np.empty((size, rows))
    proposed = np.empty_like(batch.w)
    total = np.empty(rows, dtype=complex)
    pm = np.empty(rows)
    out = pm if power.sigma2 == 0.0 else (pm, np.empty_like(total), np.empty((rows, 2, k)),
                                          np.empty((rows, k)))
    keep = np.empty(rows, dtype=bool)
    keep_col = keep[:, None]
    start = cur = batch.cur
    steps = size
    w, P = batch.w, power.P
    for i, (turn, slot_noise, row) in enumerate(zip(turns, noise, block)):
        np.multiply(w, turn, out=proposed)
        np.add.reduce(proposed, axis=1, out=total)
        coherent_magnitude(total, P, slot_noise, out)
        np.greater(pm, cur, out=keep)
        np.copyto(w, proposed, where=keep_col)
        cur = np.maximum(cur, pm, out=row)
        if done is not None and done(cur):
            steps = i + 1
            break
    block = block[:steps]
    if batch.theta is not None:
        # a discard adds +-0, which leaves a phase as it is
        path = deltas[:steps]
        path *= (block > np.concatenate((start[None], block[:-1])))[..., None]
        path[0] += canonical_phases(batch.theta[-1])
        batch.theta = np.add.accumulate(path, axis=0, out=path)
    batch.t += steps
    batch.cur = cur
    return block


def one_bit_step(
    state: SearchState,
    channel: ChannelRealization,
    spec: PerturbationSpec,
    power: PowerConfig,
    rng: SeedLike = None,
) -> tuple[SearchState, bool, float]:
    """One slot of the one-bit scheme, run as a one-step kernel block on a single row.

    Perturb, measure, and keep exactly when the proposed magnitude strictly
    exceeds the stored magnitude of the last accepted point; ties and losses
    discard and leave the phases untouched. ``rng`` draws the perturbation
    and then the slot noise. Returns the new state, whether the move was kept,
    and the magnitude increment (0 on discard).
    """
    rng = np.random.default_rng(rng)
    amps = channel.a[None]
    batch = _Batch(amps, state.theta[None, None], phasors(amps, state.theta[None]),
                   np.array([state.current_mag]), [rng], [rng], state.step_index)
    mag = next(_lockstep(batch, spec, power, batch.t + 1))[0, 0]
    if mag > state.current_mag:  # the stored estimate rose: the move was kept
        new_state = SearchState(canonical_phases(batch.theta[-1, 0]), float(mag), batch.t)
        return new_state, True, float(mag - state.current_mag)
    return SearchState(state.theta, state.current_mag, batch.t), False, 0.0


def run_trajectory(
    channel: ChannelRealization,
    spec: PerturbationSpec,
    power: PowerConfig,
    init_mode,
    stop: StopRule,
    seed: SeedLike = None,
    record_thetas: bool = True,
) -> Trajectory:
    """Run the search until the stop rule fires or the step budget runs out.

    This is the lockstep kernel on a single row, with the stop rule's
    threshold as its ``done`` test: a move is kept exactly when the proposed
    magnitude strictly exceeds the stored one, as in :func:`one_bit_step`, so
    ``bits`` marks the steps where the stored magnitude rose. Measurement
    noise comes from a child stream spawned from the seed, perturbations from
    the seed's own stream.

    The threshold (if any) is also checked at t=0, so an initial point already
    past it yields a zero-step trajectory. Exhausting the budget without
    convergence is reported via ``converged=False``, not an exception.
    Identical inputs and seed give a bit-identical trajectory.
    """
    rng = np.random.default_rng(seed)
    batch = _start([channel], init_mode, power, [rng])
    initial_theta = batch.theta[0, 0].copy()
    initial_mag = float(batch.cur[0])
    opt = optimal_magnitude(channel, power.P)
    done = None
    if stop.eps is not None or stop.alpha is not None:
        def done(cur):
            return stop.met(float(cur[0]), opt)

    mags, thetas = [np.empty(0)], [np.empty((0, channel.n_s))]
    for block in _lockstep(batch, spec, power, stop.max_steps, done):
        mags.append(block[:, 0])
        if record_thetas:
            thetas.append(canonical_phases(batch.theta[:, 0]))
    mags = np.concatenate(mags)
    increments = np.diff(mags, prepend=initial_mag)
    return Trajectory(
        power=power,
        initial_theta=initial_theta,
        initial_mag=initial_mag,
        final_theta=canonical_phases(batch.theta[-1, 0]),
        bits=increments > 0,
        mags=mags,
        increments=increments,
        converged=stop.met(float(batch.cur[0]), opt),
        thetas=np.concatenate(thetas) if record_thetas else None,
    )
