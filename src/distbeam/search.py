"""Local random search with one-bit keep/discard feedback.

The loop: sample a perturbation from a local measure, measure the received
magnitude at the perturbed phases, and keep the move exactly when the
proposed magnitude strictly exceeds the stored one (ties discard). That one
keep rule never lets the stored magnitude fall.

One kernel, :func:`_chunk`, runs a chunk of this loop's steps on a
(trials, n_s) batch. One driver, :func:`_drive`, is the one loop over chunks:
it sizes them, steps toward declared goals, finds first passages, retires rows
and stops the run. A trajectory is the driver on one row, a study the driver
on one row per trial.
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
    _check_theta,
    _number,
    _positive,
    _whole,
    canonical_phases,
    coherent_magnitude,
    magnitude_into,
    measure_magnitude,
    optimal_magnitude,
    phasors,
    rotations,
    slot_noise,
)

_CHUNK = 256  # most steps whose perturbations one generator call draws
_CHUNK_VALUES = 1 << 17  # most random values one chunk draws across all rows
_WINDOW = 16  # most proposals of a lone row measured in one pass


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling measure for phase perturbations.

    Each component is drawn i.i.d. uniform on [-delta0, delta0] (the
    uniform hypercube), the same measure at every step.
    """

    delta0: float

    def __post_init__(self):
        if not _number(self.delta0) or not 0 < self.delta0 <= math.pi:
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
        _whole("max_steps", self.max_steps, 0)
        if self.eps is not None and self.alpha is not None:
            raise ValueError("stop rule takes eps or alpha, not both")
        if self.eps is not None:
            _positive("eps", self.eps)
        if self.alpha is not None and not (_number(self.alpha) and 0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")

    @staticmethod
    def steps(max_steps: int) -> "StopRule":
        return StopRule(max_steps=max_steps)

    def goal(self, opt_mag):
        """The value the stored magnitude must reach, shaped as ``opt_mag``:
        the least float above opt - eps (inside the eps region is strictly
        above it), alpha * opt, or +inf for a pure step budget."""
        if self.eps is not None:
            return np.nextafter(opt_mag - self.eps, np.inf)
        if self.alpha is not None:
            return self.alpha * opt_mag
        return np.full_like(opt_mag, np.inf)


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
    theta = _check_theta(channel, mode)
    if not np.isfinite(theta).all():  # refused before reducing
        raise ValueError("explicit init vector must be finite")
    return canonical_phases(theta)


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


def _start(channels, init_mode, power: PowerConfig, rngs) -> _Batch:
    """The initial batch, its rows stepping on ``rngs``.

    Each row draws its initial phases from its own generator. When
    ``power.slots`` says the measurement is noisy, its :func:`slot_noise` comes
    from a child stream spawned from that generator's seed sequence, so the
    perturbation stream is the same with and without noise.
    """
    noise_rngs = [rng.spawn(1)[0] for rng in rngs] if power.slots else None
    theta = np.stack([_init_theta(ch, init_mode, rng) for ch, rng in zip(channels, rngs)])
    amps = np.stack([ch.a for ch in channels])
    w = phasors(amps, theta)
    cur = coherent_magnitude(w.sum(axis=1), power.P, slot_noise(noise_rngs, power, 1)[0])
    return _Batch(amps, theta[None], w, cur, rngs, noise_rngs)


def _chunk(batch: _Batch, spec, power, size: int, done) -> np.ndarray:
    """Advance ``batch`` in place by up to ``size`` steps of propose ->
    measure -> keep, ending after the first step where ``done(cur)``, when
    given, holds on the stored estimates; returns the (steps, rows) block of
    stored estimates after each step run.

    Row k perturbs every phase with a draw from ``spec`` on
    ``batch.rngs[k]``, measures the proposal over ``power.slots`` slots with
    :func:`slot_noise` from ``batch.noise_rngs[k]``, and keeps the move
    exactly when the proposed estimate strictly exceeds the stored one; so a
    row's stored estimate rises exactly on a keep. The kernel steps the rows
    the batch holds, and how steps are cut into chunks leaves the streams as
    they are.

    Each row's uniform draws land in one chunk buffer, mapped to
    [-delta0, delta0] in one pass as ``Generator.uniform`` maps them.
    Proposed phasors are the stored ones times e^{j(delta_i - delta_r)}, and
    the row sums are measured by the one magnitude formula, bound here to
    them (:func:`magnitude_into`), in buffers allocated here and freed on
    return, before the next chunk allocates its own. Rows of a wider batch
    keep on different steps, so they step in lockstep: a step is a fixed run
    of ufunc calls, and the only Python functions it calls are that
    ``measure`` and ``done``. A lone row steps to its next keep in one pass
    (:func:`_to_keeps`), with the same ufuncs on each proposal, so its
    estimates are the same bits either way. Tracked phases are summed once,
    in step order, from the kept draws.
    """
    rows, n_s = batch.w.shape
    d0 = spec.delta0
    deltas = np.empty((rows, size, n_s))
    for rng, row in zip(batch.rngs, deltas):
        rng.random(out=row)
    deltas *= d0 - (-d0)
    deltas += -d0
    deltas = deltas.swapaxes(0, 1)
    turns = rotations(batch.amps, deltas)
    noise = slot_noise(batch.noise_rngs, power, size)
    block = np.empty((size, rows))
    start = cur = batch.cur
    steps = size
    w = batch.w
    if rows == 1:
        steps = _to_keeps(w, cur[0], turns, noise, block, power, done)
    else:
        proposed = np.empty_like(w)
        total = np.empty(rows, dtype=complex)
        measure = magnitude_into(total, power.P, power.slots)
        keep = np.empty(rows, dtype=bool)
        keep_col = keep[:, None]
        for i, (turn, w_slots, row) in enumerate(zip(turns, noise, block)):
            np.multiply(w, turn, out=proposed)
            np.add.reduce(proposed, axis=1, out=total)
            pm = measure(w_slots)
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
    batch.cur = block[-1]
    return block


def _to_keeps(w, est, turns, noise, block, power, done) -> int:
    """:func:`_chunk`'s loop for one row, phasors ``w`` and stored estimate
    ``est``: fills ``block`` and returns the steps run.

    Until a keep, every proposal rotates the same phasors, so a pass
    measures the next ``_WINDOW`` proposals at once (the formula bound once
    for each window length) and commits the steps through the first strict
    rise: the stored estimate on each discard, then that proposal's phasors
    and estimate. ``done`` is tested after each step, in order, and a stop
    before the keep leaves the phasors as they were.
    """
    size = len(block)
    proposed = np.empty((min(_WINDOW, size),) + w.shape, dtype=complex)
    total = np.empty(proposed.shape[:2], dtype=complex)
    measures = {}
    i = 0
    while i < size:
        n = min(_WINDOW, size - i)
        if n not in measures:
            measures[n] = magnitude_into(total[:n], power.P, power.slots)
        np.multiply(w, turns[i:i + n], out=proposed[:n])
        np.add.reduce(proposed[:n], axis=2, out=total[:n])
        pm = measures[n](noise[i:i + n])[:, 0]
        rises = np.flatnonzero(pm > est)
        end = i + rises[0] if rises.size else i + n  # the pass's discards end here
        block[i:end] = est
        if done is not None:
            for t in range(i, end):
                if done(block[t]):
                    return t + 1
        if rises.size:
            block[end] = est = pm[rises[0]]
            w[...] = proposed[rises[0]]
            end += 1
            if done is not None and done(block[end - 1]):
                return end
        i = end
    return size


def _drive(batch: _Batch, spec, power, max_steps: int, goal, curves=None, thetas=None):
    """Step ``batch`` through the kernel and find when the values it watches
    first reach their goals: a (g, rows) ``goal`` watches each row's stored
    estimate, a (g, 1) one their mean, summed in row order (with one row the
    two are the same).

    Stored estimates never decrease, so neither does a watched value: a row
    leaves the batch between blocks once its value reaches its highest goal,
    and the run stops on the step where every value has. A stop at t = 0
    leaves the batch unstepped; a +inf goal runs to ``max_steps``. ``curves``,
    when given empty, gets a list per row of its stored estimates from t = 0,
    a piece for each block run while the row is in the batch; ``thetas``
    collects the phases in [0, 2pi) after each step, from t = 0.

    Returns the first step each value reaches each goal at (-1 if it never
    does), shaped as ``goal``, and the worst relative telescoping error
    |Mag[T] - (Mag[0] + sum I)| / Mag[T], T being each row's last step run.
    """
    n_rows = len(batch.cur)
    first = np.full(goal.shape, -1)
    top = goal.max(axis=0)  # the highest goal of each value shown, narrowed as rows leave
    per_trial = goal.shape[1] > 1
    # the kernel tests done after every step, so each is one expression
    if per_trial:
        def done(cur):
            return (cur >= top).all()
    else:
        top_mean = float(top[0])

        def done(cur):  # summed in row order, as the recorded CSVs were
            return np.add.accumulate(cur)[-1] / n_rows >= top_mean

    stop = None if np.isinf(top).all() else done  # a +inf goal never stops a chunk
    values_per_row = batch.w.shape[1] + 2 * power.slots
    initial = batch.cur.copy()
    last = initial.copy()
    inc_sum = np.zeros(n_rows)
    if curves is not None:
        curves.extend([] for _ in range(n_rows))
    rows = np.arange(n_rows)  # the trial of each batch row
    block = initial[None]  # t = 0, then each chunk
    while True:
        # each step's increments (0 on discard), added to the running sum in step order
        incs = np.diff(block, axis=0, prepend=last[rows][None])
        incs[0] += inc_sum[rows]
        inc_sum[rows] = np.add.accumulate(incs, axis=0)[-1]
        last[rows] = block[-1]
        if curves is not None:
            for row, column in zip(rows, block.T):
                curves[row].append(column)
        if thetas is not None:
            thetas.append(canonical_phases(batch.theta))
        values = block if per_trial else np.add.accumulate(block, axis=1)[:, -1:] / n_rows
        shown = rows if per_trial else [0]  # the goal column of each value
        hit = values[:, None, :] >= goal[:, shown]  # (steps, goals, values)
        # a value past a goal in the block is past it at the block's end
        seen = first[:, shown]
        new = hit[-1] & (seen < 0)
        seen[new] = batch.t - len(block) + 1 + hit.argmax(axis=0)[new]
        first[:, shown] = seen
        left = values[-1] < top
        if not left.any() or batch.t >= max_steps:
            break
        if not left.all():  # rows at their highest goals retire
            batch.keep(left)
            rows, top = rows[left], top[left]
        size = min(_CHUNK, max(1, _CHUNK_VALUES // (len(batch.cur) * values_per_row)),
                   max_steps - batch.t)
        block = _chunk(batch, spec, power, size, stop)

    dev = np.abs(last - (initial + inc_sum)) / np.maximum(last, 1e-30)
    return first, float(dev.max())


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
    theta = _check_theta(channel, state.theta)
    rng = np.random.default_rng(rng)
    amps = channel.a[None]
    batch = _Batch(amps, theta[None, None], phasors(amps, theta[None]),
                   np.array([state.current_mag]), [rng], [rng], state.step_index)
    mag = _chunk(batch, spec, power, 1, None)[0, 0]
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

    This is :func:`_drive` on a single row, its goal the stop rule's
    threshold: a move is kept exactly when the proposed magnitude strictly
    exceeds the stored one, as in :func:`one_bit_step`, so ``bits`` marks the
    steps where the stored magnitude rose. Measurement noise comes from a
    child stream spawned from the seed, perturbations from the seed's own
    stream.

    The threshold (if any) is also checked at t=0, so an initial point already
    past it yields a zero-step trajectory. Exhausting the budget without
    convergence is reported via ``converged=False``, not an exception.
    Identical inputs and seed give a bit-identical trajectory.
    """
    rng = np.random.default_rng(seed)
    batch = _start([channel], init_mode, power, [rng])
    initial_theta = batch.theta[0, 0].copy()
    goal = np.array([[stop.goal(optimal_magnitude(channel, power.P))]])
    curves, thetas = [], [] if record_thetas else None
    first, _ = _drive(batch, spec, power, stop.max_steps, goal, curves, thetas)
    mags = np.concatenate(curves[0])  # from t = 0
    increments = np.diff(mags)
    return Trajectory(
        power=power,
        initial_theta=initial_theta,
        initial_mag=float(mags[0]),
        final_theta=canonical_phases(batch.theta[-1, 0]),
        bits=increments > 0,
        mags=mags[1:],
        increments=increments,
        converged=None if stop.eps is None and stop.alpha is None else bool(first[0, 0] >= 0),
        thetas=np.concatenate(thetas)[1:, 0] if record_thetas else None,
    )
