import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distbeam import (
    ExperimentConfig,
    StopRule,
    avg_convergence_csv,
    dump_config,
    generate_channel,
    hitting_time_csv,
    linear_fit,
    parse_angle,
    parse_config_text,
    run_avg_convergence_sweep,
    run_hitting_time_sweep,
    run_sample_paths,
    run_trajectory,
    sample_paths_csv,
    shared_channel_seed_sequence,
    trial_seed_sequence,
)
from distbeam import experiments, search
from distbeam.experiments import (
    CHANNEL_POLICIES,
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    INIT_MODES,
    _run_lockstep,
)
from distbeam.search import _CHUNK, _CHUNK_VALUES, _chunk


def small_config(**kw):
    base = dict(
        kind="hitting-time",
        n_s_values=(6,),
        trials=5,
        alpha=(0.9,),
        delta0=math.pi / 30,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "text,value",
    [
        ("pi", math.pi),
        ("pi/90", math.pi / 90),
        ("2*pi/45", 2 * math.pi / 45),
        ("-pi/2", -math.pi / 2),
        ("0.10472", 0.10472),
        (" PI / 30 ", math.pi / 30),
    ],
)
def test_parse_angle(text, value):
    assert parse_angle(text) == pytest.approx(value, rel=1e-12)


def test_parse_angle_rejects_garbage():
    with pytest.raises(ValueError):
        parse_angle("two pies")


def test_config_roundtrip_through_text():
    cfg = ExperimentConfig(
        kind="avg-convergence",
        n_s_values=(10, 20, 30),
        trials=17,
        alpha=(0.5, 0.7, 0.9),
        eps=0.25,
        delta0=math.pi / 90,
        P=2.0,
        sigma2=0.0,
        averaging_slots=3,
        init_mode="uniform",
        channel_policy="fixed-across-trials",
        horizon=555,
        master_seed=99,
    )
    again = parse_config_text(dump_config(cfg))
    assert again == cfg
    assert dump_config(again) == dump_config(cfg)


def _or_numpy(floats):
    """``floats``, or the same values as NumPy float64 scalars."""
    return floats | floats.map(np.float64)


_positive_finite = _or_numpy(st.floats(min_value=1e-300, max_value=1e300))

# one strategy per schema key, drawing only values the config accepts
_KEY_VALUES = {
    "kind": st.sampled_from(EXPERIMENT_KINDS),
    "n_s": st.lists(st.integers(1, 10_000), min_size=1, max_size=5, unique=True).map(
        lambda v: tuple(sorted(v))
    ),
    "trials": st.integers(1, 10**9),
    "alpha": st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=4,
        unique=True,
    ).map(tuple),
    "eps": st.none() | _positive_finite,
    "delta0": _or_numpy(st.floats(min_value=0.0, max_value=math.pi, exclude_min=True)),
    "P": _positive_finite,
    "sigma2": _or_numpy(st.floats(min_value=0.0, max_value=1e300)),
    "averaging_slots": st.integers(1, 10**6),
    "init_mode": st.sampled_from(INIT_MODES),
    "channel_policy": st.sampled_from(CHANNEL_POLICIES),
    "horizon": st.none() | st.integers(1, 10**12),
    "master_seed": st.integers(0, 2**63),
}


def test_schema_strategies_cover_every_key():
    assert list(_KEY_VALUES) == list(CONFIG_SCHEMA)


@given(st.fixed_dictionaries(
    {CONFIG_SCHEMA[key].field: values for key, values in _KEY_VALUES.items()}
))
@settings(max_examples=200, deadline=None)
def test_config_text_roundtrip_for_any_valid_config(fields):
    cfg = ExperimentConfig(**fields)
    assert parse_config_text(dump_config(cfg)) == cfg


def test_config_defaults_and_auto_horizon():
    cfg = ExperimentConfig()
    assert cfg.delta0 == pytest.approx(math.pi / 90)
    assert cfg.alpha == (0.9,)
    assert cfg.horizon_for(10) == 2000
    assert dataclasses.replace(cfg, horizon=77).horizon_for(10) == 77
    assert "horizon=auto" in dump_config(cfg)


def test_config_accepts_scalar_alpha():
    cfg = ExperimentConfig(alpha=0.5)
    assert cfg.alpha == (0.5,)


@pytest.mark.parametrize(
    "kw",
    [
        dict(kind="nope"),
        dict(n_s_values=()),
        dict(n_s_values=(10, 10)),
        dict(n_s_values=(20, 10)),
        dict(n_s_values=(0,)),
        dict(trials=0),
        dict(alpha=(0.0,)),
        dict(alpha=(1.1,)),
        dict(alpha=(0.5, 0.5)),
        dict(eps=-1.0),
        dict(eps=math.inf),
        dict(eps=math.nan),
        dict(delta0=0.0),
        dict(delta0=math.inf),
        dict(delta0=1e308),
        dict(delta0=math.nan),
        dict(P=0.0),
        dict(P=math.inf),
        dict(P=math.nan),
        dict(sigma2=-0.5),
        dict(sigma2=math.inf),
        dict(sigma2=math.nan),
        dict(averaging_slots=0),
        dict(init_mode="middle"),
        dict(channel_policy="sometimes"),
        dict(horizon=0),
        dict(master_seed=-1),
        dict(n_s_values=(10.5,)),
        dict(trials=2.5),
        dict(horizon=2.5),
        dict(averaging_slots=1.5),
        dict(master_seed=1.5),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("field,key", [("n_s_values", "n_s")] + [
    (field, field) for field in ("trials", "horizon", "averaging_slots", "master_seed")])
def test_config_refuses_a_non_integral_size_or_seed_naming_it(field, key):
    ints = dict(n_s_values=np.array([4, 8]), trials=np.int64(3), horizon=np.int32(9),
                averaging_slots=2, master_seed=np.uint32(1))
    ExperimentConfig(**ints)  # Python and NumPy ints pass
    # a bool is an int to Python, but no size or seed
    for bad in [(4.0,), (True,)] if field == "n_s_values" else [1.5, True, False]:
        with pytest.raises(ValueError, match=rf"^{key} must be an integer"):
            ExperimentConfig(**{**ints, field: bad})


def test_config_text_errors_name_the_key():
    with pytest.raises(ValueError, match="frobnicate"):
        parse_config_text("frobnicate=1\n")
    with pytest.raises(ValueError, match="trials"):
        parse_config_text("trials=many\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config_text("trials=5\ntrials=6\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("just some words\n")


def test_config_text_ignores_comments_and_blanks():
    cfg = parse_config_text("# a comment\n\ntrials=9\n")
    assert cfg.trials == 9


def test_trial_seeds_are_pure_and_distinct():
    a = np.random.default_rng(trial_seed_sequence(1, 10, 3)).uniform(size=4)
    b = np.random.default_rng(trial_seed_sequence(1, 10, 3)).uniform(size=4)
    c = np.random.default_rng(trial_seed_sequence(1, 10, 4)).uniform(size=4)
    d = np.random.default_rng(shared_channel_seed_sequence(1, 10)).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def manual_trajectories(cfg, n_s, horizon, stop_alpha=None):
    """Reference implementation: compose run_trajectory per trial."""
    shared = None
    if cfg.channel_policy == "fixed-across-trials":
        shared = generate_channel(
            n_s, np.random.default_rng(shared_channel_seed_sequence(cfg.master_seed, n_s))
        )
    trajs, opts = [], []
    for k in range(cfg.trials):
        rng = np.random.default_rng(trial_seed_sequence(cfg.master_seed, n_s, k))
        ch = shared if shared is not None else generate_channel(n_s, rng)
        stop = (
            StopRule.steps(horizon)
            if stop_alpha is None
            else StopRule(horizon, alpha=stop_alpha)
        )
        traj = run_trajectory(
            ch, cfg.perturbation(), cfg.power(), cfg.init_mode, stop,
            seed=rng, record_thetas=False,
        )
        trajs.append(traj)
        opts.append(math.sqrt(cfg.P) * ch.a.sum())
    return trajs, np.array(opts)


def manual_trial_curves(cfg, n_s, horizon):
    """Each trial's magnitude curve from run_trajectory, and its optimum."""
    trajs, opts = manual_trajectories(cfg, n_s, horizon)
    return [traj.magnitudes() for traj in trajs], opts


def lockstep_curves(cfg, n_s, horizon):
    """The engine's per-trial curves to the horizon, collected under a goal no
    trial reaches, and the trials' optimal magnitudes."""
    blocks, opts = [], []

    def unreachable(opt):
        opts.append(opt)
        return np.full((1, len(opt)), np.inf)

    _run_lockstep(cfg, n_s, horizon, unreachable, blocks)
    return np.concatenate(blocks).T, opts[0]


@pytest.mark.parametrize(
    "policy,init_mode,sigma2,trials,n_s",
    [
        pytest.param(policy, init_mode, sigma2, 4, 6,
                     id=f"{policy}-{init_mode}" + ("-noisy" if sigma2 else ""))
        for sigma2 in (0.0, 0.01)
        for policy in ("redrawn-per-trial", "fixed-across-trials")
        for init_mode in ("origin", "uniform")
    ]
    + [
        # the batch's chunks are cut by the value budget, a lone trajectory's are not
        pytest.param("redrawn-per-trial", "origin", sigma2, 64, 100,
                     id="redrawn-per-trial-origin-budget" + ("-noisy" if sigma2 else ""))
        for sigma2 in (0.0, 0.01)
    ],
)
def test_engine_matches_sequential_runs_exactly(init_mode, policy, sigma2, trials, n_s):
    cfg = small_config(
        init_mode=init_mode, channel_policy=policy, trials=trials, sigma2=sigma2,
        averaging_slots=2, n_s_values=(n_s,),
    )
    horizon = 150
    engine, opt_mags = lockstep_curves(cfg, n_s, horizon)
    curves, opts = manual_trial_curves(cfg, n_s, horizon)
    assert np.array_equal(opt_mags, opts)
    for k in range(cfg.trials):
        assert np.array_equal(engine[k], curves[k])


@given(
    n_s=st.integers(1, 8),
    trials=st.integers(1, 5),
    delta0=st.floats(0.0, math.pi, exclude_min=True),
    init_mode=st.sampled_from(INIT_MODES),
    policy=st.sampled_from(CHANNEL_POLICIES),
    sigma2=st.sampled_from((0.0, 0.01)),
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_engine_matches_sequential_runs_for_random_configs(
    n_s, trials, delta0, init_mode, policy, sigma2, horizon, seed
):
    cfg = small_config(
        init_mode=init_mode, channel_policy=policy, trials=trials, sigma2=sigma2,
        averaging_slots=2, n_s_values=(n_s,), delta0=delta0, master_seed=seed,
    )
    engine, opt_mags = lockstep_curves(cfg, n_s, horizon)
    curves, opts = manual_trial_curves(cfg, n_s, horizon)
    assert np.array_equal(opt_mags, opts)
    for k in range(trials):
        assert np.array_equal(engine[k], curves[k])


def test_budget_case_cuts_chunks():
    # the -budget cases above draw fewer steps per chunk than a lone trajectory
    assert _CHUNK_VALUES // (64 * 100) < min(_CHUNK, 150) <= _CHUNK_VALUES // 100


def test_engine_first_passages_match_sequential_alpha_stop():
    cfg = small_config(kind="avg-convergence", trials=6, n_s_values=(5,))
    horizon = cfg.horizon_for(5)
    result = run_avg_convergence_sweep(cfg)[0]
    point = result.points[0]
    trajs, opts = manual_trajectories(cfg, 5, horizon, stop_alpha=0.9)
    for k, traj in enumerate(trajs):
        thr = 0.9 * opts[k]
        expected = int(np.nonzero(traj.magnitudes() >= thr)[0][0])
        assert point.times[k] == expected
        # each trajectory stops on its first passage
        assert traj.converged
        assert traj.n_steps == point.times[k]


def recording_chunk(tested, stepped=None):
    """The kernel, recording what it tests done on and the steps it runs."""
    def counting(batch, spec, power, size, done):
        def recorded(cur):
            tested.append(cur.copy())
            return done(cur)

        block = _chunk(batch, spec, power, size, recorded)
        if stepped is not None:
            stepped.extend(range(batch.t - len(block) + 1, batch.t + 1))
        return block

    return counting


@pytest.mark.parametrize("k", [0, 2, 37])
@pytest.mark.parametrize("watch", ["each", "mean"])
def test_driver_stops_on_the_step_every_value_reaches_its_goal(monkeypatch, watch, k):
    # the 50 steps are one chunk: the kernel tests done after each step, and
    # the run stops on the first step where each trial's
    # estimate, or their mean, is at its goal, its value at step k; some
    # trial rises at step k
    cfg = small_config(trials=3)
    full, _ = lockstep_curves(cfg, 6, 50)
    assert k == 0 or (full[:, k] > full[:, k - 1]).any()
    if watch == "each":
        goal = full[None, :, k]
        stay = full[:, 0] < goal[0]  # the others leave before the first step
    else:
        goal = (np.add.accumulate(full, axis=0)[-1] / cfg.trials)[None, None, k]
        stay = np.ones(cfg.trials, dtype=bool)
    stepped, tested, blocks = [], [], []
    monkeypatch.setattr(search, "_chunk", recording_chunk(tested, stepped))
    first, _ = _run_lockstep(cfg, 6, 50, lambda opt: goal, blocks)
    seen = list(enumerate(np.concatenate(blocks)))
    assert [t for t, _ in seen] == list(range(k + 1))
    assert stepped == list(range(1, k + 1))
    # a stop at t = 0 leaves the kernel untested
    assert len(tested) == k
    assert first.max() == k
    for t, cur in seen:
        assert np.array_equal(cur, full[:, t])
    for t, cur in enumerate(tested, start=1):
        assert np.array_equal(cur, full[stay, t])


def test_a_trial_past_its_goal_keeps_its_magnitude(monkeypatch):
    cfg = small_config(trials=4)
    full, _ = lockstep_curves(cfg, 6, 60)
    done_at = np.array([0, 10, 25, 35])  # the step each trial first reaches its goal
    goal = full[np.arange(4), done_at]
    assert np.array_equal((full >= goal[:, None]).argmax(axis=1), done_at)
    tested, blocks = [], []
    monkeypatch.setattr(search, "_chunk", recording_chunk(tested))
    first, _ = _run_lockstep(cfg, 6, 60, lambda opt: goal[None], blocks)
    seen = np.concatenate(blocks)
    # tested after each step of the one 60-step chunk
    assert [len(cur) for cur in tested] == [3] * done_at.max()
    # the run stops once every trial is past its goal
    assert len(seen) == done_at.max() + 1
    assert np.array_equal(first[0], done_at)
    # rows leave at chunk starts: trial 0, past its goal at t = 0, before the
    # first step; the others step on through the one 60-step chunk until the run stops
    last_step = np.array([0, 60, 60, 60])
    for t, cur in enumerate(seen):
        assert np.array_equal(cur, full[np.arange(4), np.minimum(t, last_step)])


def rises(curve):
    """The steps where a curve's stored estimate rose."""
    return np.nonzero(np.diff(curve) > 0)[0] + 1


@pytest.mark.parametrize("trials", [1, 3])
def test_an_estimate_at_opt_minus_eps_is_outside_the_eps_region(trials):
    # eps = opt - m_k is exact for m_k >= opt / 2 (Sterbenz), and so is
    # opt - eps = m_k: the run is inside only on its next rise past m_k
    cfg = small_config(kind="sample-path", trials=trials, horizon=400)
    full, opts = lockstep_curves(cfg, 6, 400)
    curve, opt = full[0], opts[0]
    k, after = [t for t in rises(curve) if curve[t] >= opt / 2][:2]
    eps = opt - curve[k]
    assert opt - eps == curve[k]
    curves, reached = run_sample_paths(dataclasses.replace(cfg, eps=eps))
    assert reached[0]
    assert len(curves[0]) - 1 == after
    assert np.array_equal(curves[0], curve[: after + 1])


def test_an_estimate_at_alpha_times_opt_is_a_first_passage():
    cfg = small_config(kind="avg-convergence", trials=3, horizon=400)
    full, opts = lockstep_curves(cfg, 6, 400)
    curve, opt = full[0], opts[0]
    # the first rise whose estimate is exactly some alpha times the optimum
    k, alpha = next((t, curve[t] / opt) for t in rises(curve) if curve[t] / opt * opt == curve[t])
    point = run_avg_convergence_sweep(dataclasses.replace(cfg, alpha=(alpha,)))[0].points[0]
    assert point.times[0] == k


@pytest.mark.parametrize("sigma2", [0.0, 0.001])
def test_avg_convergence_trials_leave_the_batch_after_their_crossings(monkeypatch, sigma2):
    # 40 trials of n_s=16 take 204-step chunks, and their 0.9 crossings spread
    # from step 121 to past step 300, so rows leave at one or two chunk starts
    cfg = small_config(
        kind="avg-convergence", n_s_values=(16,), trials=40, alpha=(0.5, 0.9),
        sigma2=sigma2, averaging_slots=2,
    )
    rows = []  # the rows of each step run

    def counting(batch, *args):
        block = _chunk(batch, *args)
        rows.extend([block.shape[1]] * len(block))
        return block

    monkeypatch.setattr(search, "_chunk", counting)
    point = run_avg_convergence_sweep(cfg)[-1].points[0]
    assert point.censored == 0
    assert all(b <= a for a, b in zip(rows, rows[1:]))
    assert sum(rows) < cfg.trials * len(rows)
    # a trial runs at least up to its top-alpha first passage
    assert sum(rows) >= point.times.sum()


@pytest.mark.parametrize("kind", ["hitting-time", "avg-convergence"])
def test_sweep_batches_carry_no_phases(monkeypatch, kind):
    def no_phases(theta):
        raise AssertionError("a sweep reduced phases")

    monkeypatch.setattr(search, "canonical_phases", no_phases)
    cfg = small_config(kind=kind, n_s_values=(4, 6), trials=5, alpha=(0.5, 0.9))
    (run_hitting_time_sweep if kind == "hitting-time" else run_avg_convergence_sweep)(cfg)


@pytest.mark.parametrize("sigma2", [0.0, 0.001])
def test_avg_convergence_first_passages_match_full_curves(sigma2):
    # by step 120 every n_s=4 run reaches 0.9, so the reducer stops the batch
    # early, while some n_s=12 runs stay censored and the batch runs to the end
    cfg = small_config(
        kind="avg-convergence", n_s_values=(4, 12), trials=6, alpha=(0.5, 0.7, 0.9),
        horizon=200, sigma2=sigma2, averaging_slots=2,
    )
    results = run_avg_convergence_sweep(cfg)
    for i, n_s in enumerate(cfg.n_s_values):
        curves, opt_mags = lockstep_curves(cfg, n_s, 200)
        for res in results:
            expected = []
            for curve, opt in zip(curves, opt_mags):
                hits = np.nonzero(curve >= res.alpha * opt)[0]
                expected.append(hits[0] if hits.size else np.nan)
            np.testing.assert_array_equal(res.points[i].times, expected)
    assert results[-1].points[0].censored == 0
    assert results[-1].points[1].censored > 0


def shared_channel(cfg):
    n_s = cfg.n_s_values[0]
    return generate_channel(
        n_s, np.random.default_rng(shared_channel_seed_sequence(cfg.master_seed, n_s))
    )


def test_sample_paths_protocol():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(10,), delta0=math.pi / 30,
        horizon=300, master_seed=12,
        trials=3, init_mode="uniform", channel_policy="fixed-across-trials",
    )
    curves, reached = run_sample_paths(cfg)
    assert len(curves) == 3
    assert reached is None
    # distinct initial points
    assert len({c[0] for c in curves}) == 3
    for c in curves:
        assert c.shape == (301,)
        assert np.all(np.diff(c) >= 0)
    again, _ = run_sample_paths(cfg)
    for a, b in zip(curves, again):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    # a row inside the eps region leaves the batch: 0.5 stops all four runs
    # early, each at its own step, 0.001 three of four, 1e-9 none
    "eps,expected",
    [(None, None), (0.5, [True] * 4), (0.001, [True, False, True, True]), (1e-9, [False] * 4)],
)
def test_sample_paths_match_trajectories_on_the_shared_channel(eps, expected):
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(6,), delta0=math.pi / 30,
        horizon=400, master_seed=4, eps=eps,
        trials=4, init_mode="uniform", channel_policy="fixed-across-trials",
    )
    curves, reached = run_sample_paths(cfg)
    channel = shared_channel(cfg)
    for k, curve in enumerate(curves):
        traj = run_trajectory(
            channel, cfg.perturbation(), cfg.power(), "uniform",
            StopRule(400, eps=eps), seed=trial_seed_sequence(4, 6, k), record_thetas=False,
        )
        assert np.array_equal(curve, traj.magnitudes())
        assert (None if eps is None else bool(reached[k])) == traj.converged
    assert (None if reached is None else reached.tolist()) == expected


def test_sample_paths_reach_near_optimum():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(10,), delta0=math.pi / 30,
        horizon=10_000, master_seed=21,
        trials=3, init_mode="uniform", channel_policy="fixed-across-trials",
    )
    opt = math.sqrt(cfg.P) * shared_channel(cfg).a.sum()
    for curve in run_sample_paths(cfg)[0]:
        assert np.any(curve >= 0.99 * opt)


def test_sample_paths_validation():
    cfg = ExperimentConfig(kind="sample-path", n_s_values=(5, 10), trials=2)
    with pytest.raises(ValueError, match="single n_s"):
        run_sample_paths(cfg)
    with pytest.raises(ValueError, match="kind"):
        run_sample_paths(ExperimentConfig(kind="hitting-time"))
    with pytest.raises(ValueError, match="trials"):
        run_sample_paths(ExperimentConfig(kind="sample-path", trials=0))


def test_sample_paths_csv_format():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(4,), delta0=math.pi / 30, horizon=5,
        master_seed=3,
        trials=2, init_mode="uniform", channel_policy="fixed-across-trials",
    )
    text = sample_paths_csv(run_sample_paths(cfg)[0])
    lines = text.strip().splitlines()
    assert lines[0] == "step,run_id,mag"
    assert len(lines) == 1 + 2 * 6
    assert lines[1].startswith("0,0,")
    assert lines[7].startswith("0,1,")


def test_linear_fit_recovers_line():
    x = np.array([10, 20, 30, 40.0])
    slope, intercept, r2 = linear_fit(x, 3.0 * x + 2.0)
    assert slope == pytest.approx(3.0)
    assert intercept == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)
    _, _, r2_const = linear_fit(x, np.full(4, 5.0))
    assert r2_const == 1.0
    with pytest.raises(ValueError):
        linear_fit([1.0], [2.0])


def test_hitting_time_single_transmitter_is_zero():
    cfg = small_config(n_s_values=(1,), trials=10)
    res = run_hitting_time_sweep(cfg)[0]
    assert res.points[0].hitting_time == 0


def test_hitting_time_monotone_in_alpha_and_threshold_semantics():
    cfg = small_config(n_s_values=(4, 8), trials=12, alpha=(0.5, 0.7, 0.9))
    results = run_hitting_time_sweep(cfg)
    assert [r.alpha for r in results] == [0.5, 0.7, 0.9]
    for low, high in zip(results, results[1:]):
        for p_low, p_high in zip(low.points, high.points):
            assert p_low.hitting_time <= p_high.hitting_time


def test_hitting_time_unresolved_is_flagged_not_extrapolated():
    cfg = small_config(n_s_values=(6, 8), trials=4, horizon=3, alpha=(0.95,))
    res = run_hitting_time_sweep(cfg)[0]
    assert all(p.hitting_time is None for p in res.points)
    assert math.isnan(res.slope)
    text = hitting_time_csv([res])
    row = text.strip().splitlines()[1]
    assert row.split(",")[2] == ""


@pytest.mark.parametrize("sigma2,horizon", [(0.0, 150), (0.01, 250)])
def test_hitting_time_stops_at_the_top_alpha_crossing(monkeypatch, sigma2, horizon):
    # n_s=4 crosses every alpha within the horizon, n_s=12 never reaches 0.9
    cfg = small_config(
        n_s_values=(4, 12), trials=6, alpha=(0.5, 0.7, 0.9), horizon=horizon,
        sigma2=sigma2, averaging_slots=2,
    )
    stepped = dict.fromkeys(cfg.n_s_values, 0)  # the steps each n_s's batch runs

    def counting(batch, *args):
        block = _chunk(batch, *args)
        stepped[batch.w.shape[1]] += len(block)
        return block

    monkeypatch.setattr(search, "_chunk", counting)
    results = run_hitting_time_sweep(cfg)
    monkeypatch.undo()
    for i, n_s in enumerate(cfg.n_s_values):
        curves, opt_mags = lockstep_curves(cfg, n_s, horizon)
        # every step to the horizon, summed in trial order
        full = np.add.accumulate(curves, axis=0)[-1] / cfg.trials
        mean_opt = float(opt_mags.mean())
        for res in results:
            hits = np.nonzero(full >= res.alpha * mean_opt)[0]
            p = res.points[i]
            assert p.hitting_time == (int(hits[0]) if hits.size else None)
        top = results[-1].points[i].hitting_time
        assert stepped[n_s] == (horizon if top is None else top)
    assert results[-1].points[0].hitting_time is not None
    assert results[-1].points[1].hitting_time is None


def test_hitting_time_requires_origin_init():
    with pytest.raises(ValueError, match="origin"):
        run_hitting_time_sweep(small_config(init_mode="uniform"))


def test_hitting_time_reproducible():
    cfg = small_config(n_s_values=(4, 6), trials=8)
    r1 = run_hitting_time_sweep(cfg)[0]
    r2 = run_hitting_time_sweep(cfg)[0]
    assert [p.hitting_time for p in r1.points] == [p.hitting_time for p in r2.points]


def test_hitting_time_csv_format():
    cfg = small_config(n_s_values=(4, 6), trials=6, alpha=(0.5, 0.9))
    text = hitting_time_csv(run_hitting_time_sweep(cfg))
    lines = text.strip().splitlines()
    assert lines[0] == "n_s,alpha,hitting_time,slope,intercept,r2"
    assert len(lines) == 1 + 4
    n_s, alpha, ht, slope, intercept, r2 = lines[1].split(",")
    assert (n_s, alpha) == ("4", "0.5")
    assert ht.isdigit()
    float(slope), float(intercept), float(r2)


def test_avg_convergence_single_transmitter_is_zero():
    cfg = small_config(kind="avg-convergence", n_s_values=(1,), trials=10)
    res = run_avg_convergence_sweep(cfg)[0]
    p = res.points[0]
    assert p.mean_time == 0.0
    assert p.censored == 0


def test_avg_convergence_alpha_ordering_and_censoring():
    cfg = small_config(
        kind="avg-convergence", n_s_values=(4, 8), trials=12, alpha=(0.5, 0.9)
    )
    low, high = run_avg_convergence_sweep(cfg)
    for p_low, p_high in zip(low.points, high.points):
        assert p_low.censored == 0 and p_high.censored == 0
        assert p_low.mean_time <= p_high.mean_time
        ok = ~np.isnan(p_high.times)
        # per-path ordering on shared seeds
        assert np.all(p_low.times[ok] <= p_high.times[ok])
    starved = dataclasses.replace(cfg, horizon=2, alpha=(0.95,))
    res = run_avg_convergence_sweep(starved)[0]
    for p in res.points:
        assert p.censored > 0
        assert p.trials + p.censored == cfg.trials
        if p.trials == 0:
            assert math.isnan(p.mean_time)


def test_avg_convergence_csv_format():
    cfg = small_config(kind="avg-convergence", n_s_values=(4,), trials=6)
    text = avg_convergence_csv(run_avg_convergence_sweep(cfg))
    lines = text.strip().splitlines()
    assert lines[0] == "n_s,alpha,mean_time,std_time,censored"
    n_s, alpha, mean_time, std_time, censored = lines[1].split(",")
    assert n_s == "4" and alpha == "0.9" and censored == "0"
    float(mean_time), float(std_time)


def test_noisy_fallback_has_same_result_shape():
    cfg = small_config(
        n_s_values=(3,), trials=3, sigma2=0.01, averaging_slots=2, horizon=40
    )
    res = run_hitting_time_sweep(cfg)[0]
    # a plain float, whose repr is what summary.txt carries
    assert type(res.increment_identity_max_dev) is float
