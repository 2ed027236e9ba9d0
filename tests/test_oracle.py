import math

import numpy as np
import pytest

from distbeam import (
    TWO_PI,
    ChannelRealization,
    GridSpec,
    PerturbationSpec,
    PowerConfig,
    StopRule,
    Trajectory,
    epsilon_region_contains,
    estimate_improvement_probability,
    generate_channel,
    magnitude,
    optimal_magnitude,
    run_trajectory,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=7, n_s=2)
    with pytest.raises(ValueError):
        GridSpec(resolution=100, n_s=5)
    with pytest.raises(ValueError):
        GridSpec(resolution=1000, n_s=4)  # 1e9 grid points
    assert GridSpec(resolution=464, n_s=4).cell == pytest.approx(TWO_PI / 464)


def test_two_element_grid_has_no_nonglobal_maxima():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    report = verify_local_equals_global(ch, 1.0, GridSpec(resolution=720, n_s=2))
    assert report.passed
    assert report.violations == 0
    # the unique quotient-grid maximum is the aligned point
    assert report.best_point == (0.0, 0.0)
    assert report.best_mag == pytest.approx(2.0)
    # theta=[0, pi] is the global minimum there, never a local max
    assert magnitude(ch, [0.0, math.pi], 1.0) == pytest.approx(0.0, abs=1e-12)


def test_three_element_grid_has_no_nonglobal_maxima():
    ch = ChannelRealization(a=[1.0, 2.0, 0.5], phi=[0.0, 0.0, 0.0])
    report = verify_local_equals_global(ch, 1.0, GridSpec(resolution=180, n_s=3))
    assert report.passed
    assert report.opt_mag == pytest.approx(3.5)


def test_grid_rediscovers_optimum_within_quantization_bound():
    rng = np.random.default_rng(8)
    for n_s, res in ((2, 720), (3, 180), (4, 48)):
        ch = generate_channel(n_s, rng)
        report = verify_local_equals_global(ch, 1.0, GridSpec(resolution=res, n_s=n_s))
        assert report.passed
        bound = report.opt_mag * (1 - math.pi**2 * n_s / (2 * res**2))
        assert report.best_mag >= bound


def test_grid_single_transmitter_degenerates_to_pass():
    ch = ChannelRealization(a=[1.5], phi=[0.3])
    report = verify_local_equals_global(ch, 1.0, GridSpec(resolution=8, n_s=1))
    assert report.passed
    assert report.best_mag == pytest.approx(1.5)


def test_grid_channel_mismatch():
    ch = generate_channel(3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="match"):
        verify_local_equals_global(ch, 1.0, GridSpec(resolution=64, n_s=2))


def test_local_max_report_text():
    ch = generate_channel(2, np.random.default_rng(1))
    text = verify_local_equals_global(ch, 1.0, GridSpec(resolution=64, n_s=2)).to_text()
    lines = text.strip().splitlines()
    assert lines[0] == "check=local-global"
    assert lines[1] == "status=pass"
    fields = dict(line.split("=", 1) for line in lines)
    assert fields["violations"] == "0"
    assert float(fields["best_mag"]) <= float(fields["opt_mag"])


def test_improvement_probability_two_element_probe():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    theta = np.array([0.0, math.pi / 2])
    est = estimate_improvement_probability(
        ch, theta, 1.0, math.pi / 30, eps=0.2, samples=10**5,
        rng=np.random.default_rng(0),
    )
    assert est.status == "ok"
    assert est.gamma_hat > 0
    assert 0 < est.eta_hat <= 1
    assert est.k0_diag == math.ceil(1.0 / (est.gamma_hat * est.eta_hat))
    assert est.mag_at_theta == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_improvement_probability_respects_given_gamma():
    ch = generate_channel(6, np.random.default_rng(2))
    theta = np.random.default_rng(3).uniform(0, TWO_PI, 6)
    eps = 0.1 * optimal_magnitude(ch, 1.0)
    if epsilon_region_contains(ch, theta, 1.0, eps):
        pytest.skip("probe accidentally inside the region")
    gamma = 1e-3
    est = estimate_improvement_probability(
        ch, theta, 1.0, math.pi / 30, eps=eps, samples=20_000, gamma=gamma,
        rng=np.random.default_rng(4),
    )
    assert est.gamma_hat == gamma
    assert 0 <= est.eta_hat <= 1
    with pytest.raises(ValueError):
        estimate_improvement_probability(
            ch, theta, 1.0, math.pi / 30, eps=eps, samples=100, gamma=-1.0
        )


def test_improvement_probability_rejects_in_region_probe():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.4, 0.4])
    est = estimate_improvement_probability(
        ch, np.array([1.0, 1.0]), 1.0, math.pi / 30, eps=0.5, samples=100,
        rng=np.random.default_rng(0),
    )
    assert est.status == "in-epsilon-region"
    assert est.gamma_hat is None and est.eta_hat is None and est.k0_diag is None
    assert "status=in-epsilon-region" in est.to_text()


def test_improvement_probability_eta_concentration_under_doubling():
    # same seed makes the 2N-sample run a superset of the N-sample run
    ch = generate_channel(4, np.random.default_rng(5))
    theta = np.random.default_rng(6).uniform(0, TWO_PI, 4)
    eps = 0.1 * optimal_magnitude(ch, 1.0)
    assert not epsilon_region_contains(ch, theta, 1.0, eps)
    gamma = 5e-3
    n = 2000
    failures = 0
    for rep in range(100):
        small = estimate_improvement_probability(
            ch, theta, 1.0, math.pi / 30, eps=eps, samples=n, gamma=gamma,
            rng=np.random.default_rng(1000 + rep),
        )
        big = estimate_improvement_probability(
            ch, theta, 1.0, math.pi / 30, eps=eps, samples=2 * n, gamma=gamma,
            rng=np.random.default_rng(1000 + rep),
        )
        band = 3 * math.sqrt(small.eta_hat * (1 - small.eta_hat) / n)
        if abs(big.eta_hat - small.eta_hat) >= band:
            failures += 1
    assert failures <= 1


def test_shift_invariance_report():
    ch = generate_channel(50, np.random.default_rng(9))
    report = verify_shift_invariance(ch, 1.0, trials=1000, rng=np.random.default_rng(10))
    assert report.passed
    assert report.max_dev_rel <= 1e-12
    lines = report.to_text().strip().splitlines()
    assert lines[0] == "check=shift-invariance"
    assert lines[1] == "status=pass"


def test_shift_invariance_degenerate_shifts():
    ch = generate_channel(12, np.random.default_rng(11))
    theta = np.random.default_rng(12).uniform(0, TWO_PI, 12)
    base = magnitude(ch, theta, 1.0)
    assert magnitude(ch, theta + 0.0, 1.0) == base
    wrapped = magnitude(
        ch, np.remainder(theta + TWO_PI, TWO_PI), 1.0
    )
    assert abs(wrapped - base) <= 1e-12 * optimal_magnitude(ch, 1.0)


def _noiseless_trajectory(seed=0, steps=200):
    ch = generate_channel(6, np.random.default_rng(seed + 50))
    return run_trajectory(
        ch, PerturbationSpec(delta0=math.pi / 30), PowerConfig(), "uniform",
        StopRule.steps(steps), seed=seed, record_thetas=False,
    )


def test_increment_check_passes_on_real_trajectory():
    report = verify_monotone_and_increment(_noiseless_trajectory())
    assert report.passed
    assert report.first_violation_step is None
    assert report.telescope_dev_rel <= 1e-9


def test_increment_check_flags_decreasing_step():
    good = _noiseless_trajectory(seed=1, steps=10)
    bad = Trajectory(
        channel=good.channel,
        spec=good.spec,
        power=good.power,
        stop=good.stop,
        initial_theta=good.initial_theta,
        initial_mag=1.0,
        final_theta=good.final_theta,
        bits=np.array([True, True]),
        mags=np.array([1.1, 0.9]),
        increments=np.array([0.1, 0.0]),
        converged=None,
    )
    report = verify_monotone_and_increment(bad)
    assert not report.passed
    assert report.first_violation_step == 2


def test_increment_check_zero_steps_vacuous():
    ch = generate_channel(3, np.random.default_rng(1))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=0.1), PowerConfig(), "zero", StopRule.steps(0),
        seed=0,
    )
    report = verify_monotone_and_increment(traj)
    assert report.passed
    assert report.n_steps == 0


def test_increment_check_rejects_noisy_trajectory():
    ch = generate_channel(3, np.random.default_rng(2))
    traj = run_trajectory(
        ch, PerturbationSpec(delta0=0.1), PowerConfig(sigma2=0.1), "zero",
        StopRule.steps(5), seed=0,
    )
    with pytest.raises(ValueError, match="noiseless"):
        verify_monotone_and_increment(traj)
