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
from distbeam.experiments import (
    CHANNEL_POLICIES,
    CONFIG_SCHEMA,
    EXPERIMENT_KINDS,
    INIT_MODES,
    _run_lockstep,
)
from distbeam.search import _CHUNK, _CHUNK_VALUES


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


_positive_finite = st.floats(min_value=1e-300, max_value=1e300)

# one strategy per schema key, drawing only values the config accepts
_KEY_VALUES = {
    "kind": st.sampled_from(EXPERIMENT_KINDS),
    "n_s": st.lists(st.integers(1, 10_000), min_size=1, max_size=5, unique=True).map(
        lambda v: tuple(sorted(v))
    ),
    "trials": st.integers(1, 10**9),
    "alpha": st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=4
    ).map(tuple),
    "eps": st.none() | _positive_finite,
    "delta0": st.floats(min_value=0.0, max_value=math.pi, exclude_min=True),
    "P": _positive_finite,
    "sigma2": st.floats(min_value=0.0, max_value=1e300),
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
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


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


def manual_trial_curves(cfg, n_s, horizon, stop_alpha=None):
    """Reference implementation: compose run_trajectory per trial."""
    shared = None
    if cfg.channel_policy == "fixed-across-trials":
        shared = generate_channel(
            n_s, np.random.default_rng(shared_channel_seed_sequence(cfg.master_seed, n_s))
        )
    curves, opts = [], []
    for k in range(cfg.trials):
        rng = np.random.default_rng(trial_seed_sequence(cfg.master_seed, n_s, k))
        ch = shared if shared is not None else generate_channel(n_s, rng)
        stop = (
            StopRule.steps(horizon)
            if stop_alpha is None
            else StopRule.alpha_fraction(stop_alpha, horizon)
        )
        traj = run_trajectory(
            ch, cfg.perturbation(), cfg.power(), cfg.init_mode, stop,
            seed=rng, record_thetas=False,
        )
        curves.append(traj.magnitudes())
        opts.append(math.sqrt(cfg.P) * ch.a.sum())
    return curves, np.array(opts)


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
    batch = _run_lockstep(cfg, n_s, horizon)
    curves, opts = manual_trial_curves(cfg, n_s, horizon)
    assert np.array_equal(batch.opt_mags, opts)
    for k in range(cfg.trials):
        assert np.array_equal(batch.curves[k], curves[k])


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
    batch = _run_lockstep(cfg, n_s, horizon)
    curves, opts = manual_trial_curves(cfg, n_s, horizon)
    assert np.array_equal(batch.opt_mags, opts)
    for k in range(trials):
        assert np.array_equal(batch.curves[k], curves[k])


def test_budget_case_cuts_chunks():
    # the -budget cases above draw fewer steps per chunk than a lone trajectory
    assert _CHUNK_VALUES // (64 * 100) < min(_CHUNK, 150) <= _CHUNK_VALUES // 100


def test_engine_first_passages_match_sequential_alpha_stop():
    cfg = small_config(kind="avg-convergence", trials=6, n_s_values=(5,))
    horizon = cfg.horizon_for(5)
    result = run_avg_convergence_sweep(cfg)[0]
    point = result.points[0]
    curves, opts = manual_trial_curves(cfg, 5, horizon, stop_alpha=None)
    for k in range(cfg.trials):
        thr = 0.9 * opts[k]
        expected = int(np.nonzero(curves[k] >= thr)[0][0])
        assert point.times[k] == expected


def test_sample_paths_protocol():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(10,), delta0=math.pi / 30,
        horizon=300, master_seed=12,
    )
    trajs = run_sample_paths(cfg, count=3)
    assert len(trajs) == 3
    # one fixed channel, distinct initial points
    assert all(t.channel is trajs[0].channel for t in trajs)
    inits = [t.initial_theta for t in trajs]
    assert not np.array_equal(inits[0], inits[1])
    for t in trajs:
        assert t.n_steps == 300
        assert np.all(np.diff(t.magnitudes()) >= 0)
    again = run_sample_paths(cfg, count=3)
    for a, b in zip(trajs, again):
        assert np.array_equal(a.mags, b.mags)


def test_sample_paths_reach_near_optimum():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(10,), delta0=math.pi / 30,
        horizon=10_000, master_seed=21,
    )
    for traj in run_sample_paths(cfg, count=3):
        opt = math.sqrt(cfg.P) * traj.channel.a.sum()
        assert np.any(traj.magnitudes() >= 0.99 * opt)


def test_sample_paths_validation():
    cfg = ExperimentConfig(kind="sample-path", n_s_values=(5, 10))
    with pytest.raises(ValueError, match="single n_s"):
        run_sample_paths(cfg, 2)
    with pytest.raises(ValueError, match="kind"):
        run_sample_paths(ExperimentConfig(kind="hitting-time"), 2)
    with pytest.raises(ValueError, match="count"):
        run_sample_paths(ExperimentConfig(kind="sample-path"), 0)


def test_sample_paths_csv_format():
    cfg = ExperimentConfig(
        kind="sample-path", n_s_values=(4,), delta0=math.pi / 30, horizon=5,
        master_seed=3,
    )
    text = sample_paths_csv(run_sample_paths(cfg, count=2))
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
    for res in results:
        for p in res.points:
            assert p.threshold == pytest.approx(res.alpha * p.mean_opt_mag, rel=1e-15)
            curve = p.mean_curve
            assert np.all(np.diff(curve) >= -1e-15)
            assert np.all(curve <= p.mean_opt_mag * (1 + 1e-12))
            assert curve[p.hitting_time] >= p.threshold
            if p.hitting_time > 0:
                assert curve[p.hitting_time - 1] < p.threshold


def test_hitting_time_unresolved_is_flagged_not_extrapolated():
    cfg = small_config(n_s_values=(6, 8), trials=4, horizon=3, alpha=(0.95,))
    res = run_hitting_time_sweep(cfg)[0]
    assert all(p.hitting_time is None for p in res.points)
    assert math.isnan(res.slope)
    text = hitting_time_csv([res])
    row = text.strip().splitlines()[1]
    assert row.split(",")[2] == ""


def test_hitting_time_requires_origin_init():
    with pytest.raises(ValueError, match="origin"):
        run_hitting_time_sweep(small_config(init_mode="uniform"))


def test_hitting_time_reproducible():
    cfg = small_config(n_s_values=(4, 6), trials=8)
    r1 = run_hitting_time_sweep(cfg)[0]
    r2 = run_hitting_time_sweep(cfg)[0]
    assert [p.hitting_time for p in r1.points] == [p.hitting_time for p in r2.points]
    for p1, p2 in zip(r1.points, r2.points):
        assert np.array_equal(p1.mean_curve, p2.mean_curve)


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
    assert res.points[0].mean_curve.shape == (41,)
    # a plain float, whose repr is what summary.txt carries
    assert type(res.increment_identity_max_dev) is float
