import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distbeam import (
    TWO_PI,
    ChannelRealization,
    PerturbationSpec,
    PowerConfig,
    StopRule,
    epsilon_region_contains,
    generate_channel,
    init_state,
    magnitude,
    one_bit_step,
    optimal_magnitude,
    run_trajectory,
    sample_perturbation,
)
from distbeam import search
from distbeam.channel import _SLICE_VALUES, coherent_magnitude, phasors, rotations
from distbeam.search import _CHUNK, _CHUNK_VALUES, _WINDOW, _chunk, _drive, _start

POWER = PowerConfig()


def two_element(delta_theta):
    """Channel a=[1,1] with theta gap delta_theta has magnitude 2|cos(gap/2)|."""
    return ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0]), np.array([0.0, delta_theta])


def test_init_zero_mode_uses_channel_phases():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.3, 1.2])
    state = init_state(ch, "zero", POWER)
    assert np.array_equal(state.theta, np.array([0.3, 1.2]))
    assert state.step_index == 0
    assert state.current_mag == magnitude(ch, ch.phi, 1.0)


def test_init_origin_is_zero_beamforming_phase():
    ch = generate_channel(5, np.random.default_rng(2))
    a = init_state(ch, "origin", POWER)
    b = init_state(ch, "zero", POWER)
    assert np.array_equal(a.theta, b.theta)


def test_init_explicit_vector():
    ch = ChannelRealization(a=[1.0, 1.0, 1.0], phi=[0.5, 1.5, 2.5])
    state = init_state(ch, np.zeros(3), POWER)
    assert np.array_equal(state.theta, np.zeros(3))
    assert state.current_mag == pytest.approx(3.0)
    with pytest.raises(ValueError, match="length"):
        init_state(ch, np.zeros(2), POWER)
    with pytest.raises(ValueError, match="init mode"):
        init_state(ch, "sideways", POWER)
    # refused before reducing: a NaN start would stop a run at t = 0 with a
    # NaN magnitude, and an infinite one warns in the reduction
    for bad in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [0.0, -np.inf, 1.0]):
        with pytest.raises(ValueError, match="explicit init vector must be finite"):
            init_state(ch, bad, POWER)
        with pytest.raises(ValueError, match="explicit init vector must be finite"):
            run_trajectory(ch, PerturbationSpec(0.1), POWER, bad, StopRule(5))


def test_init_uniform_is_seeded():
    ch = generate_channel(4, np.random.default_rng(0))
    s1 = init_state(ch, "uniform", POWER, np.random.default_rng(7))
    s2 = init_state(ch, "uniform", POWER, np.random.default_rng(7))
    assert np.array_equal(s1.theta, s2.theta)
    assert np.all(s1.theta >= 0) and np.all(s1.theta < TWO_PI)


def _start_of(ch, init_mode):
    """The initial record of a zero-step run_trajectory."""
    return run_trajectory(ch, PerturbationSpec(delta0=0.1), POWER, init_mode, StopRule.steps(0))


def test_trajectory_init_modes():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.3, 1.2])
    zero = _start_of(ch, "zero")
    assert np.array_equal(zero.initial_theta, np.array([0.3, 1.2]))
    assert zero.initial_mag == magnitude(ch, ch.phi, 1.0)
    ch = generate_channel(5, np.random.default_rng(2))
    origin = _start_of(ch, "origin")
    assert np.array_equal(origin.initial_theta, _start_of(ch, "zero").initial_theta)
    ch = ChannelRealization(a=[1.0, 1.0, 1.0], phi=[0.5, 1.5, 2.5])
    explicit = _start_of(ch, np.zeros(3))
    assert np.array_equal(explicit.initial_theta, np.zeros(3))
    assert explicit.initial_mag == pytest.approx(3.0)
    with pytest.raises(ValueError, match="length"):
        _start_of(ch, np.zeros(2))
    with pytest.raises(ValueError, match="init mode"):
        _start_of(ch, "sideways")


def test_trajectory_keeps_only_strict_improvements():
    # near-antipodal two-element channel: closed form 2|cos(gap/2)|
    ch, theta = two_element(math.pi - 0.01)
    spec = PerturbationSpec(delta0=math.pi / 30)
    n_kept = 0
    for seed in range(20):
        traj = run_trajectory(ch, spec, POWER, theta, StopRule.steps(1), seed=seed)
        assert traj.n_steps == 1
        if traj.bits[0]:
            n_kept += 1
            assert traj.increments[0] > 0
            assert traj.final_mag > traj.initial_mag
            gap = float(np.diff(traj.final_theta)[0])
            assert traj.final_mag == pytest.approx(2 * abs(math.cos(gap / 2)), rel=1e-12)
        else:
            assert traj.increments[0] == 0.0
            assert np.array_equal(traj.final_theta, traj.initial_theta)
            assert traj.final_mag == traj.initial_mag
    assert 0 < n_kept < 20


def test_trajectory_ties_discard():
    # single transmitter: every proposal has the same magnitude, so nothing is kept
    ch = ChannelRealization(a=[2.0], phi=[1.0])
    spec = PerturbationSpec(delta0=0.3)
    for seed in range(5):
        traj = run_trajectory(ch, spec, POWER, "zero", StopRule.steps(5), seed=seed)
        assert not traj.bits.any()
        assert np.all(traj.increments == 0.0)
        assert np.all(traj.thetas == traj.initial_theta)
        assert np.array_equal(traj.final_theta, traj.initial_theta)


@pytest.mark.parametrize("delta0", [math.pi / 30, math.pi / 90])
def test_perturbation_support(delta0):
    spec = PerturbationSpec(delta0=delta0)
    draws = sample_perturbation(spec, 1000, 0, np.random.default_rng(1))
    assert draws.shape == (1000,)
    assert np.all(np.abs(draws) <= delta0)


def test_perturbation_mean_is_zero():
    spec = PerturbationSpec(delta0=0.5)
    rng = np.random.default_rng(3)
    draws = np.concatenate([sample_perturbation(spec, 1000, t, rng) for t in range(100)])
    se = 0.5 / math.sqrt(3) / math.sqrt(draws.size)
    assert abs(draws.mean()) < 3 * se


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(delta0=0.0)
    # a bool or a complex number is refused by name, not compared as 1 rad or raising TypeError
    for bad in (math.pi + 1e-9, math.inf, math.nan, True, np.True_, 0.05 + 0j,
                np.complex128(0.05)):
        with pytest.raises(ValueError, match=r"^delta0 must be in \(0, pi\]$"):
            PerturbationSpec(delta0=bad)
    assert PerturbationSpec(delta0=math.pi).delta0 == math.pi


def test_step_keeps_only_strict_improvements():
    # near-antipodal two-element channel: closed form 2|cos(gap/2)|
    ch, theta = two_element(math.pi - 0.01)
    spec = PerturbationSpec(delta0=math.pi / 30)
    n_kept = 0
    for seed in range(20):
        state = init_state(ch, theta, POWER)
        new, kept, inc = one_bit_step(state, ch, spec, POWER, np.random.default_rng(seed))
        assert new.step_index == 1
        assert isinstance(kept, bool)
        if kept:
            n_kept += 1
            assert inc > 0
            assert new.current_mag > state.current_mag
            gap = float(np.diff(new.theta)[0])
            assert new.current_mag == pytest.approx(2 * abs(math.cos(gap / 2)), rel=1e-12)
        else:
            assert inc == 0.0
            assert new.theta is state.theta
            assert new.current_mag == state.current_mag
    assert 0 < n_kept < 20


def test_tie_breaks_to_discard():
    # single transmitter: every proposal has the same magnitude, so nothing is kept
    ch = ChannelRealization(a=[2.0], phi=[1.0])
    spec = PerturbationSpec(delta0=0.3)
    state = init_state(ch, "zero", POWER)
    for seed in range(5):
        new, kept, inc = one_bit_step(state, ch, spec, POWER, np.random.default_rng(seed))
        assert kept is False
        assert inc == 0.0
        assert new.theta is state.theta


@pytest.mark.parametrize("n_s", [2, 6, 10, 30])
def test_noiseless_hand_stepping_matches_run_trajectory(n_s):
    # init_state plus one_bit_step on one generator walk the same stream as
    # run_trajectory on that seed. With noise on they differ: run_trajectory
    # draws noise from a child stream, a lone step from its own generator.
    ch = generate_channel(n_s, np.random.default_rng(n_s))
    spec, steps = PerturbationSpec(delta0=math.pi / 30), 300
    tol = 1e-12 * optimal_magnitude(ch, 1.0)
    for seed in range(10):
        traj = run_trajectory(ch, spec, POWER, "uniform", StopRule.steps(steps), seed=seed,
                              record_thetas=False)
        rng = np.random.default_rng(seed)
        state = init_state(ch, "uniform", POWER, rng)
        assert np.array_equal(state.theta, traj.initial_theta)
        bits, mags = [], []
        for _ in range(steps):
            state, kept, _ = one_bit_step(state, ch, spec, POWER, rng)
            bits.append(kept)
            mags.append(state.current_mag)
        assert np.array_equal(np.array(bits), traj.bits)
        assert np.max(np.abs(np.array(mags) - traj.mags)) <= tol


@pytest.mark.parametrize(
    "power,initial_mag,steps,final_theta",
    [
        (PowerConfig(P=2.5, sigma2=0.05, averaging_slots=3), 2.454009179142314,
         [(True, 2.7849676090655797), (True, 3.2740089537081407), (True, 3.866189874028226),
          (False, 3.866189874028226), (False, 3.866189874028226), (True, 3.981297957290026),
          (False, 3.981297957290026), (True, 4.214748296030595), (False, 4.214748296030595),
          (False, 4.214748296030595)],
         [6.155377965879536, 1.9135309117819608, 5.415935336141321, 4.039454451807754]),
        (PowerConfig(sigma2=0.01), 1.614122528574489,
         [(False, 1.614122528574489), (True, 2.0695386773342546), (True, 2.336959145165465),
          (False, 2.336959145165465), (True, 2.7886379146569182), (False, 2.7886379146569182),
          (False, 2.7886379146569182), (False, 2.7886379146569182), (False, 2.7886379146569182),
          (True, 3.0231816255989603)],
         [0.33795184264655914, 1.3102561849817358, 5.130092631774447, 4.555177161701136]),
    ],
    ids=["k3", "k1"],
)
def test_noisy_hand_stepping_is_pinned(power, initial_mag, steps, final_theta):
    # init_state then ten one_bit_steps on one generator, which draws the
    # initial phases and measurement, then each step's perturbation and slot noise
    ch = ChannelRealization(a=[1.0, 0.5, 2.0, 1.5], phi=[0.1, 2.0, 4.0, 5.5])
    spec = PerturbationSpec(delta0=math.pi / 10)
    rng = np.random.default_rng(3)
    state = init_state(ch, "uniform", power, rng)
    assert state.theta.tolist() == [0.5381495885689892, 1.4879242956303682, 5.034555946803014,
                                    3.6578319513973883]
    assert state.current_mag == initial_mag
    seen = []
    for _ in steps:
        prev = state.current_mag
        state, kept, inc = one_bit_step(state, ch, spec, power, rng)
        assert inc == state.current_mag - prev
        seen.append((kept, state.current_mag))
    assert seen == steps
    assert state.theta.tolist() == final_theta
    assert state.step_index == len(steps)


def test_trajectory_monotone_and_telescoping():
    ch = generate_channel(8, np.random.default_rng(10))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=math.pi / 30), POWER, "uniform",
        StopRule.steps(400), seed=10,
    )
    curve = traj.magnitudes()
    assert np.all(np.diff(curve) >= 0)
    telescoped = traj.initial_mag + traj.increments.sum()
    assert abs(traj.final_mag - telescoped) <= 1e-9 * traj.final_mag
    # keep exactly when the magnitude moved
    assert np.array_equal(traj.bits, np.diff(curve) > 0)


def test_trajectory_is_deterministic():
    ch = generate_channel(6, np.random.default_rng(1))
    spec = PerturbationSpec(delta0=math.pi / 90)
    a = run_trajectory(ch, spec, POWER, "zero", StopRule.steps(200), seed=99)
    b = run_trajectory(ch, spec, POWER, "zero", StopRule.steps(200), seed=99)
    assert np.array_equal(a.mags, b.mags)
    assert np.array_equal(a.bits, b.bits)
    assert np.array_equal(a.thetas, b.thetas)


def test_discard_leaves_theta_bit_identical():
    ch = generate_channel(5, np.random.default_rng(3))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=math.pi / 30), POWER, "uniform",
        StopRule.steps(300), seed=4,
    )
    thetas = np.vstack([traj.initial_theta, traj.thetas])
    for t in range(traj.n_steps):
        if not traj.bits[t]:
            assert np.array_equal(thetas[t + 1], thetas[t])
        else:
            assert not np.array_equal(thetas[t + 1], thetas[t])


def test_zero_step_budget_keeps_initial_record_only():
    ch = generate_channel(3, np.random.default_rng(0))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=0.1), POWER, "zero", StopRule.steps(0), seed=0
    )
    assert traj.n_steps == 0
    assert traj.converged is None
    assert traj.magnitudes().shape == (1,)
    assert traj.final_mag == traj.initial_mag


def test_alpha_stop_terminates_each_seeded_run():
    spec = PerturbationSpec(delta0=math.pi / 90)
    rng = np.random.default_rng(123)
    for seed in range(20):
        ch = generate_channel(10, rng)
        traj = run_trajectory(
            ch, spec, POWER, "zero", StopRule(4000, alpha=0.9), seed=seed,
            record_thetas=False,
        )
        assert traj.converged is True
        assert traj.final_mag >= 0.9 * optimal_magnitude(ch, 1.0)


def test_eps_stop_and_horizon_flag():
    ch = generate_channel(10, np.random.default_rng(42))
    spec = PerturbationSpec(delta0=math.pi / 90)
    eps = 0.1 * optimal_magnitude(ch, 1.0)
    traj = run_trajectory(
        ch, spec, POWER, "zero", StopRule(4000, eps=eps), seed=0,
        record_thetas=False,
    )
    assert traj.converged is True
    assert epsilon_region_contains(ch, traj.final_theta, 1.0, eps)
    # starving the budget reports failure as a flag, not an exception
    short = run_trajectory(
        ch, spec, POWER, "zero", StopRule(3, eps=eps), seed=0,
        record_thetas=False,
    )
    assert short.converged is False
    assert short.n_steps == 3


def test_threshold_met_at_initial_point_runs_zero_steps():
    ch = ChannelRealization(a=[1.0], phi=[0.4])
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=0.1), POWER, "zero",
        StopRule(100, alpha=1.0), seed=1,
    )
    assert traj.converged is True
    assert traj.n_steps == 0


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_steps=-1)
    with pytest.raises(ValueError):
        StopRule(max_steps=10, eps=1.0, alpha=0.5)
    with pytest.raises(ValueError):
        StopRule(10, alpha=1.5)
    with pytest.raises(ValueError):
        StopRule(10, eps=0.0)
    for bad in (True, np.True_, 0.5 + 0j, np.complex128(0.5)):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            StopRule(10, alpha=bad)
        with pytest.raises(ValueError, match="^eps must be positive and finite$"):
            StopRule(10, eps=bad)


@pytest.mark.parametrize("max_steps", [2.5, np.float64(3.0), True, False],
                         ids=["2.5", "float64-3.0", "True", "False"])
def test_stop_rule_refuses_a_budget_that_is_not_a_whole_number(max_steps):
    # caught when the rule is built, not inside the kernel, and a bool is no count
    with pytest.raises(ValueError, match="max_steps must be an integer >= 0"):
        StopRule(max_steps)


@pytest.mark.parametrize("delta0", [0.2, math.pi / 90, math.pi], ids=["0.2", "pi/90", "pi"])
@pytest.mark.parametrize("amps", [[2.0], [0.0, 2.0], [2.0, 0.0]], ids=["2", "0,2", "2,0"])
def test_one_nonzero_transmitter_ties_exactly(amps, delta0):
    # the strongest transmitter is the phasor frame's reference, so every
    # proposal measures exactly the initial magnitude
    ch = ChannelRealization(a=amps, phi=[1.0] * len(amps))
    r = int(np.argmax(ch.a))
    theta = np.random.default_rng(3).uniform(0.0, TWO_PI, (50, ch.n_s))
    turns = rotations(ch.a, theta)
    assert np.all(turns[:, r] == 1 + 0j)
    assert np.all(phasors(ch.a, theta)[:, r] == ch.a[r] + 0j)
    spec, stop = PerturbationSpec(delta0=delta0), StopRule.steps(2000)
    strict = run_trajectory(ch, spec, POWER, "uniform", stop, seed=3, record_thetas=False)
    assert not strict.bits.any()
    assert np.all(strict.magnitudes() == strict.initial_mag)


@pytest.mark.parametrize("delta0", [math.pi / 90, math.pi / 30, math.pi],
                         ids=["pi/90", "pi/30", "pi"])
@pytest.mark.parametrize("n_s", [2, 10, 100])
def test_kernel_magnitudes_match_direct_formula(n_s, delta0):
    ch = generate_channel(n_s, np.random.default_rng(n_s))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=delta0), POWER, "uniform", StopRule.steps(2000), seed=7,
    )
    tol = 1e-12 * optimal_magnitude(ch, 1.0)
    direct = np.array([magnitude(ch, theta, 1.0) for theta in traj.thetas])
    assert np.max(np.abs(traj.mags - direct)) <= tol
    assert np.all((traj.thetas >= 0.0) & (traj.thetas < TWO_PI))
    assert np.array_equal(traj.final_theta, traj.thetas[-1])


def _batch(n_s, rows, power, seed):
    """A kernel batch of ``rows`` uniform starts on their own channels."""
    rngs = [np.random.default_rng([seed, j]) for j in range(rows)]
    channels = [generate_channel(n_s, rng) for rng in rngs]
    return _start(channels, "uniform", power, rngs)


@pytest.mark.parametrize(
    "power,target",
    [pytest.param(POWER, k, id=str(k)) for k in (1, 255, 256, 257, 520)]
    # noisy estimates plateau sooner: past 512 their mean first rises at step 532
    + [pytest.param(PowerConfig(P=2.5, sigma2=0.05, averaging_slots=3), k, id=f"noisy-{k}")
       for k in (1, 255, 256, 257, 532)],
)
def test_a_block_ends_on_the_step_where_done_first_holds(power, target):
    # eight rows of n_s = 16 step in 256-step chunks, and their mean rises at
    # each target step k, so done holds from step k on and never before it
    spec, k = PerturbationSpec(delta0=math.pi / 30), target
    batch = _batch(16, 8, power, 1)
    curve = np.concatenate([batch.cur[None]]
                           + [_chunk(batch, spec, power, size, None) for size in (256, 256, 88)])
    means = curve.mean(axis=1)
    assert means[k] > means[k - 1]

    batch = _batch(16, 8, power, 1)
    blocks = []

    def done(cur):
        return cur.mean() >= means[k]

    while not done(batch.cur):  # a chunk ends on step k, and no chunk runs past it
        blocks.append(_chunk(batch, spec, power, 256, done))
    assert [len(b) for b in blocks] == [256] * (k // 256) + ([k % 256] if k % 256 else [])
    assert batch.t == k
    assert np.array_equal(np.concatenate(blocks), curve[1:k + 1])


def _assert_row_zero_matches(lone, pair):
    assert lone.t == pair.t
    assert np.array_equal(lone.w, pair.w[:1])
    assert np.array_equal(lone.cur, pair.cur[:1])
    assert np.array_equal(lone.theta, pair.theta[:, :1])


@pytest.mark.parametrize(
    "power", [POWER, PowerConfig(P=2.5, sigma2=0.05, averaging_slots=3)],
    ids=["noiseless", "noisy"],
)
def test_a_lone_row_steps_as_in_lockstep(power):
    # a lone row measures up to _WINDOW proposals a pass and commits through
    # its first keep; beside a second row, on its own channel and stream, it
    # steps one step a pass. Chunks of 1, 15, 16, 17 and 37 steps cut the
    # windows at many offsets, and the two give the same bits
    spec = PerturbationSpec(delta0=math.pi / 30)
    lone, pair = _batch(6, 1, power, 2), _batch(6, 2, power, 2)
    for size in (1, 15, 16, 17, 37):
        block = _chunk(lone, spec, power, size, None)
        assert np.array_equal(block, _chunk(pair, spec, power, size, None)[:, :1])
        _assert_row_zero_matches(lone, pair)

    # keeps a and b (or the start a = 0) under a window apart: the pass after a
    # measures the discard b - 1 and the keep b at once
    ref = _batch(6, 1, power, 2)
    curve = np.concatenate([ref.cur[None], _chunk(ref, spec, power, 64, None)])[:, 0]
    kept = [0] + (np.flatnonzero(curve[1:] > curve[:-1]) + 1).tolist()
    a, b = next((a, b) for a, b in zip(kept, kept[1:]) if 3 <= b - a <= _WINDOW)

    def nth_call(m):  # holds first on its m-th call, the test after step m
        calls = []

        def done(cur):
            calls.append(cur[0])
            return len(calls) >= m
        return done, calls

    # done holds first at b - 1, inside the pass, or at the keep b itself
    for stop in (b - 1, b):
        lone, pair = _batch(6, 1, power, 2), _batch(6, 2, power, 2)
        (lone_done, lone_calls), (pair_done, pair_calls) = nth_call(stop), nth_call(stop)
        block = _chunk(lone, spec, power, 64, lone_done)
        assert len(block) == stop
        assert np.array_equal(block, _chunk(pair, spec, power, 64, pair_done)[:, :1])
        assert lone_calls == pair_calls == curve[1:stop + 1].tolist()
        _assert_row_zero_matches(lone, pair)
        block = _chunk(lone, spec, power, 37, None)  # and on from there
        assert np.array_equal(block, _chunk(pair, spec, power, 37, None)[:, :1])
        _assert_row_zero_matches(lone, pair)


@pytest.mark.parametrize(
    "power,sizes",
    [
        (POWER, [(0, 8, 81), (81, 8, 81), (162, 5, 131), (293, 5, 107)]),
        (PowerConfig(P=2.5, sigma2=0.05, averaging_slots=20),
         [(0, 8, 68), (68, 8, 68), (136, 5, 109), (245, 5, 109), (354, 5, 46)]),
    ],
    ids=["noiseless", "noisy"],
)
def test_driver_sizes_each_chunk_to_its_live_rows_draws(monkeypatch, power, sizes):
    # eight rows of n_s = 200 step to 400; three reach their goals, their
    # estimates at step 119, by step 119 and retire after the block holding
    # it. A chunk draws n_s perturbations and, with noise, 2k slot values a
    # row a step, up to _CHUNK_VALUES across the rows it holds
    spec, horizon = PerturbationSpec(delta0=math.pi / 30), 400
    curve = _chunk(_batch(200, 8, power, 4), spec, power, horizon, None)
    goal = np.full((1, 8), np.inf)
    goal[0, :3] = curve[119, :3]
    seen = []

    def recording(batch, spec, power, size, done):
        seen.append((batch.t, len(batch.cur), size))
        return _chunk(batch, spec, power, size, done)

    monkeypatch.setattr(search, "_chunk", recording)
    first, _ = _drive(_batch(200, 8, power, 4), spec, power, horizon, goal)
    assert first[0, 3:].tolist() == [-1] * 5 and first[0, :3].max() == 119
    assert seen == sizes
    per_row = 200 + (2 * power.averaging_slots if power.sigma2 > 0 else 0)
    for t, rows, size in seen:
        assert size == min(_CHUNK, max(1, _CHUNK_VALUES // (rows * per_row)), horizon - t)


def _trajectory_record(ch, power, stop, seed):
    """Every output of a run_trajectory on a caller's generator, and that
    generator's next draw."""
    rng = np.random.default_rng(seed)
    traj = run_trajectory(ch, PerturbationSpec(delta0=math.pi / 30), power, "uniform", stop,
                          seed=rng)
    return [traj.initial_theta, traj.initial_mag, traj.final_theta, traj.bits, traj.mags,
            traj.increments, traj.converged, traj.thetas, rng.random()]


def _assert_same_bits(records, default):
    for record in records:
        assert len(record) == len(default)
        for got, want in zip(record, default):
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "power", [POWER, PowerConfig(P=2.5, sigma2=0.05, averaging_slots=3)],
    ids=["noiseless", "noisy"],
)
def test_trajectories_do_not_depend_on_the_block_budget(monkeypatch, power):
    # a lone row at n_s 300 steps 256-step chunks in blocks of 54 steps, whose
    # rotations it forms just before stepping them; the steps that follow a
    # stop leave their blocks unformed. Alpha and eps stops land in the first,
    # a middle and the last block of the second chunk; with one step, seven
    # steps or a whole chunk a block, every output and the caller's next draw
    # are the same bits
    n_s = 300
    ch = generate_channel(n_s, np.random.default_rng(12))
    opt = optimal_magnitude(ch, power.P)
    mags = run_trajectory(ch, PerturbationSpec(delta0=math.pi / 30), power, "uniform",
                          StopRule.steps(512), seed=13).magnitudes()
    span = _SLICE_VALUES // n_s
    stops = []
    for target, block in ((260, 0), (370, 2), (480, 4)):
        t = next(t for t in range(target, 513) if mags[t] > mags[t - 1])  # a keep
        assert (t - 257) // span == block
        goal = (mags[t - 1] + mags[t]) / 2
        stops += [(t, StopRule(512, alpha=goal / opt)), (t, StopRule(512, eps=opt - goal))]
    for t, stop in stops:
        default = _trajectory_record(ch, power, stop, 13)
        assert len(default[3]) == t and default[6] is True
        records = []
        for budget in (1, 7 * n_s, 1 << 20):
            monkeypatch.setattr(search, "_SLICE_VALUES", budget)
            records.append(_trajectory_record(ch, power, stop, 13))
        monkeypatch.undo()
        _assert_same_bits(records, default)


@pytest.mark.parametrize("n_s", [300, 800])
def test_lone_rows_do_not_depend_on_the_block_budget(monkeypatch, n_s):
    # chunks of 256 and 163 steps span 5 and 9 blocks by default; a step
    # budget runs without done, an unreachable alpha tests it after every step
    ch = generate_channel(n_s, np.random.default_rng(14))
    for stop in (StopRule.steps(400), StopRule(400, alpha=1.0)):
        default = _trajectory_record(ch, POWER, stop, 15)
        assert len(default[3]) == 400 and 0 < default[3].sum() < 400
        records = []
        for budget in (1, 7 * n_s, 1 << 20):
            monkeypatch.setattr(search, "_SLICE_VALUES", budget)
            records.append(_trajectory_record(ch, POWER, stop, 15))
        monkeypatch.undo()
        _assert_same_bits(records, default)


@pytest.mark.parametrize("k", [1, 3])
def test_kernel_noisy_estimates_match_coherent_magnitude(k):
    # the kernel measures through the formula bound once a chunk to its buffers;
    # a step at a time through coherent_magnitude, on the same draws, gives the same bits
    spec, steps = PerturbationSpec(delta0=math.pi / 30), 40
    power = PowerConfig(P=2.5, sigma2=0.05, averaging_slots=k)
    batch = _batch(5, 3, power, 11)
    block = _chunk(batch, spec, power, steps, None)  # each row's perturbations, then its noise
    ref = _batch(5, 3, power, 11)
    deltas = np.stack([rng.uniform(-spec.delta0, spec.delta0, (steps, 5)) for rng in ref.rngs],
                      axis=1)
    noise = math.sqrt(power.sigma2 / 2) * np.stack(
        [rng.standard_normal((steps, 2, k)) for rng in ref.noise_rngs], axis=1)
    w, cur, kept = ref.w, ref.cur, 0
    for t in range(steps):
        proposed = w * rotations(ref.amps, deltas[t])
        pm = coherent_magnitude(proposed.sum(axis=1), power.P, noise[t])
        keep = pm > cur
        w, cur = np.where(keep[:, None], proposed, w), np.where(keep, pm, cur)
        kept += keep.sum()
        assert np.array_equal(block[t], cur)
    assert 0 < kept < 3 * steps


@pytest.mark.parametrize(
    "power", [PowerConfig(), PowerConfig(P=2.5, sigma2=0.05, averaging_slots=3)],
    ids=["noiseless", "noisy"],
)
def test_dropped_rows_leave_with_their_streams(power):
    # rows 1 and 3 leave after the first 256-step block; rows 0 and 2 step
    # on with their own generators and tracked phases, as if never batched
    spec = PerturbationSpec(delta0=math.pi / 30)
    ref = _batch(6, 4, power, 5)
    full = np.concatenate([_chunk(ref, spec, power, size, None) for size in (256, 44)])
    batch = _batch(6, 4, power, 5)
    first = _chunk(batch, spec, power, 256, None)
    batch.keep([True, False, True, False])
    assert len(batch.rngs) == 2
    rest = _chunk(batch, spec, power, 44, None)
    assert np.array_equal(np.concatenate([first[:, [0, 2]], rest]), full[:, [0, 2]])
    assert np.array_equal(batch.theta, ref.theta[:, [0, 2]])


def test_batched_uniform_draws_match_sequential():
    # the lockstep kernel draws a chunk of perturbations per row straight into
    # one (rows, steps, n_s) buffer and maps it to [-d0, d0] in one pass; the
    # values and what each generator draws next must be those of per-step draws
    seeds = (9, 10, 11)
    for d0 in (0.1, math.pi / 90, math.pi, 1e-300):
        r1 = [np.random.default_rng(s) for s in seeds]
        r2 = [np.random.default_rng(s) for s in seeds]
        r3 = [np.random.default_rng(s) for s in seeds]
        batch = np.stack([r.uniform(-d0, d0, (64, 7)) for r in r1])
        seq = np.stack([np.stack([r.uniform(-d0, d0, 7) for _ in range(64)]) for r in r2])
        buf = np.empty((len(seeds), 64, 7))
        for r, row in zip(r3, buf):
            r.random(out=row)
        buf *= d0 - (-d0)
        buf += -d0
        assert np.array_equal(batch, seq)
        assert np.array_equal(buf, seq)
        for a, b, c in zip(r1, r2, r3):
            assert a.random() == b.random() == c.random()


def test_convergence_in_probability_fraction_is_monotone():
    spec = PerturbationSpec(delta0=math.pi / 30)
    rng = np.random.default_rng(77)
    horizon = 1200
    inside = np.zeros((30, horizon + 1), dtype=bool)
    for k in range(30):
        ch = generate_channel(5, rng)
        eps = 0.1 * optimal_magnitude(ch, 1.0)
        traj = run_trajectory(
            ch, spec, POWER, "uniform", StopRule.steps(horizon), seed=k,
            record_thetas=False,
        )
        inside[k] = traj.magnitudes() > optimal_magnitude(ch, 1.0) - eps
    fraction = inside.mean(axis=0)
    assert np.all(np.diff(fraction) >= 0)
    assert fraction[-1] == 1.0


def test_noisy_step_compares_against_stored_estimate():
    # with noise on, the comparison baseline is the estimate stored at the
    # last accepted step, and trajectories stay seeded-reproducible
    ch = generate_channel(4, np.random.default_rng(14))
    power = PowerConfig(P=1.0, sigma2=0.05, averaging_slots=4)
    spec = PerturbationSpec(delta0=math.pi / 30)
    a = run_trajectory(ch, spec, power, "zero", StopRule.steps(150), seed=5)
    b = run_trajectory(ch, spec, power, "zero", StopRule.steps(150), seed=5)
    assert np.array_equal(a.mags, b.mags)
    kept = a.mags[a.bits]
    # accepted estimates strictly increase (each beat the stored baseline)
    assert np.all(np.diff(np.concatenate(([a.initial_mag], kept))) > 0)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
@settings(max_examples=25, deadline=None)
def test_trajectory_invariants_hold_for_any_seed(seed, n_s):
    ch = generate_channel(n_s, np.random.default_rng(seed + 1))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=math.pi / 30), POWER, "uniform",
        StopRule.steps(60), seed=seed, record_thetas=False,
    )
    curve = traj.magnitudes()
    assert np.all(np.diff(curve) >= 0)
    assert np.all(traj.increments >= 0)
    assert np.all(curve <= optimal_magnitude(ch, 1.0) * (1 + 1e-12))
    assert abs(traj.final_mag - (traj.initial_mag + traj.increments.sum())) <= max(
        1e-9 * traj.final_mag, 1e-15
    )
