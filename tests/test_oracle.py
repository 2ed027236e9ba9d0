import math
import tracemalloc

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
from distbeam.oracle import (
    ImprovementEstimate,
    IncrementReport,
    LocalMaxReport,
    ShiftInvarianceReport,
    random_probe,
)
from distbeam import oracle


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(resolution=7, n_s=2)
    with pytest.raises(ValueError):
        GridSpec(resolution=100, n_s=5)
    with pytest.raises(ValueError):
        GridSpec(resolution=1000, n_s=4)  # 1e9 grid points
    assert GridSpec(resolution=464, n_s=4).cell == pytest.approx(TWO_PI / 464)
    assert GridSpec(resolution=np.int64(16), n_s=np.int32(2)).cell == TWO_PI / 16  # NumPy ints pass


@pytest.mark.parametrize("resolution, n_s, key", [
    (8.5, 3, "resolution"), (16.0, 2, "resolution"), (True, 2, "resolution"),
    (16, 2.0, "n_s"), (16, np.float64(3.0), "n_s"), (16, True, "n_s"), (16, 0, "n_s"),
])
def test_grid_spec_refuses_sizes_that_are_not_whole_numbers(resolution, n_s, key):
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        GridSpec(resolution=resolution, n_s=n_s)


@pytest.mark.parametrize("trials", [2.5, True, np.float64(3.0), 0, -1])
def test_shift_invariance_refuses_trials_that_are_not_whole_numbers(trials):
    ch = generate_channel(3, np.random.default_rng(9))
    with pytest.raises(ValueError, match="^trials must be an integer >= 1"):
        verify_shift_invariance(ch, 1.0, trials=trials, rng=np.random.default_rng(10))


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
    assert report.violations == 0
    assert report.best_point == (0.0,)
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


def test_random_probe_is_the_first_draw_outside_the_region():
    ch = generate_channel(6, np.random.default_rng(2))
    eps = 0.85 * optimal_magnitude(ch, 1.0)  # the third draw is the first outside
    draws = np.random.default_rng(3)
    inside = []
    while epsilon_region_contains(ch, theta := draws.uniform(0.0, TWO_PI, 6), 1.0, eps):
        inside.append(theta)
    rng = np.random.default_rng(3)
    assert np.array_equal(random_probe(ch, 1.0, eps, rng), theta)
    # it draws nothing past the probe
    assert rng.random() == draws.random()
    assert len(inside) == 2


def test_random_probe_refuses_a_channel_with_no_point_outside():
    # with one transmitter every phase vector is optimal
    ch = generate_channel(1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="pick a larger n_s"):
        random_probe(ch, 1.0, 0.1, np.random.default_rng(0))


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


@pytest.mark.parametrize("delta0", [math.inf, 3.5, 0.0, math.nan, True, 0.05 + 0j],
                         ids=["inf", "3.5", "0", "nan", "bool", "complex"])
def test_improvement_probability_refuses_a_delta0_the_search_refuses(delta0):
    ch = generate_channel(6, np.random.default_rng(2))
    theta = np.random.default_rng(3).uniform(0, TWO_PI, 6)
    with pytest.raises(ValueError, match=r"delta0 must be in \(0, pi\]"):
        estimate_improvement_probability(ch, theta, 1.0, delta0, eps=0.1, samples=100)


@pytest.mark.parametrize("samples", [0, 2.5, True, np.float64(100.0)],
                         ids=["0", "2.5", "True", "np.float64"])
def test_improvement_probability_refuses_samples_that_are_not_a_count(samples):
    ch = generate_channel(6, np.random.default_rng(2))
    theta = np.random.default_rng(3).uniform(0, TWO_PI, 6)
    with pytest.raises(ValueError, match=r"samples must be an integer >= 1"):
        estimate_improvement_probability(ch, theta, 1.0, math.pi / 30, eps=0.1, samples=samples)


def test_improvement_probability_rejects_in_region_probe():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.4, 0.4])
    est = estimate_improvement_probability(
        ch, np.array([1.0, 1.0]), 1.0, math.pi / 30, eps=0.5, samples=100,
        rng=np.random.default_rng(0),
    )
    assert est.status == "in-epsilon-region"
    assert est.gamma_hat is None and est.eta_hat is None and est.k0_diag is None
    assert "status=in-epsilon-region" in est.to_text()


_OFF_PROBE = (0.0, math.pi / 2)  # magnitude sqrt 2 of the optimum 2, outside eps = 0.2


@pytest.mark.parametrize(
    "theta,samples,gamma,seed,text,next_draw",
    [
        (_OFF_PROBE, 200, None, 0,
         "status=ok\ngamma_hat=0.046394485684608355\neta_hat=0.275\nk0_diag=79\n"
         "samples=200\nmag_at_theta=1.4142135623730951\n", 0.20216809397548463),
        (_OFF_PROBE, 200, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.54\nk0_diag=1852\n"
         "samples=200\nmag_at_theta=1.4142135623730951\n", 0.20216809397548463),
        # the lone sample lowers the magnitude: no positive improvement to take a median of
        (_OFF_PROBE, 1, None, 1,
         "status=no-improvement-observed\ngamma_hat=\neta_hat=\nk0_diag=\n"
         "samples=1\nmag_at_theta=1.4142135623730951\n", 0.14415961271963373),
        # no perturbation of delta0 = pi/30 gains 1.0
        (_OFF_PROBE, 200, 1.0, 0,
         "status=no-improvement-observed\ngamma_hat=1.0\neta_hat=0.0\nk0_diag=\n"
         "samples=200\nmag_at_theta=1.4142135623730951\n", 0.20216809397548463),
        # inside the region nothing is drawn and a given gamma goes unused
        ((0.1, 0.1), 200, 1e-3, 0,
         "status=in-epsilon-region\ngamma_hat=\neta_hat=\nk0_diag=\n"
         "samples=200\nmag_at_theta=2.0\n", 0.6369616873214543),
        # samples are drawn in slices of 8192 at n_s = 2: one slice - 1, one
        # slice, one slice + 1 and two slices + 3
        # at numpy's X86_V2 SIMD level the median at 8191 and 8192 samples reads
        # 0.04288439254299359, since complex abs rounds differently there (the
        # README's note on SIMD levels), so these two rows hold both levels' texts
        (_OFF_PROBE, 8191, None, 0, tuple(
            f"status=ok\ngamma_hat={g}\neta_hat=0.2519838847515566\nk0_diag=93\n"
            "samples=8191\nmag_at_theta=1.4142135623730951\n"
            for g in ("0.0428843925429937", "0.04288439254299359")), 0.38116893275153974),
        (_OFF_PROBE, 8191, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.4972530826516909\nk0_diag=2012\n"
         "samples=8191\nmag_at_theta=1.4142135623730951\n", 0.38116893275153974),
        (_OFF_PROBE, 8192, None, 0, tuple(
            f"status=ok\ngamma_hat={g}\neta_hat=0.251953125\nk0_diag=93\n"
            "samples=8192\nmag_at_theta=1.4142135623730951\n"
            for g in ("0.0428843925429937", "0.04288439254299359")), 0.8917240014657541),
        (_OFF_PROBE, 8192, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.4971923828125\nk0_diag=2012\n"
         "samples=8192\nmag_at_theta=1.4142135623730951\n", 0.8917240014657541),
        (_OFF_PROBE, 8193, None, 0,
         "status=ok\ngamma_hat=0.04281776306473728\neta_hat=0.25204442817038936\nk0_diag=93\n"
         "samples=8193\nmag_at_theta=1.4142135623730951\n", 0.39797803740073145),
        (_OFF_PROBE, 8193, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.4972537532039546\nk0_diag=2012\n"
         "samples=8193\nmag_at_theta=1.4142135623730951\n", 0.39797803740073145),
        (_OFF_PROBE, 16387, None, 0,
         "status=ok\ngamma_hat=0.042746286333382066\neta_hat=0.2525782632574602\nk0_diag=93\n"
         "samples=16387\nmag_at_theta=1.4142135623730951\n", 0.6987782056112514),
        (_OFF_PROBE, 16387, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.4990541282724111\nk0_diag=2004\n"
         "samples=16387\nmag_at_theta=1.4142135623730951\n", 0.6987782056112514),
        # many slices; these sizes are the slice boundaries of an earlier budget of
        # 65536 samples a slice at n_s = 2, pinned before it changed
        (_OFF_PROBE, 65535, None, 0,
         "status=ok\ngamma_hat=0.0425885334212055\neta_hat=0.2495155260547799\nk0_diag=95\n"
         "samples=65535\nmag_at_theta=1.4142135623730951\n", 0.25750875941497353),
        (_OFF_PROBE, 65535, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.49213397421225297\nk0_diag=2032\n"
         "samples=65535\nmag_at_theta=1.4142135623730951\n", 0.25750875941497353),
        (_OFF_PROBE, 65536, None, 0,
         "status=ok\ngamma_hat=0.0425885334212055\neta_hat=0.24951171875\nk0_diag=95\n"
         "samples=65536\nmag_at_theta=1.4142135623730951\n", 0.570875222669256),
        (_OFF_PROBE, 65536, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.49212646484375\nk0_diag=2032\n"
         "samples=65536\nmag_at_theta=1.4142135623730951\n", 0.570875222669256),
        (_OFF_PROBE, 65537, None, 0,
         "status=ok\ngamma_hat=0.0425885334212055\neta_hat=0.24950791156140806\nk0_diag=95\n"
         "samples=65537\nmag_at_theta=1.4142135623730951\n", 0.11257173540539878),
        (_OFF_PROBE, 65537, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.4921189557044113\nk0_diag=2033\n"
         "samples=65537\nmag_at_theta=1.4142135623730951\n", 0.11257173540539878),
        (_OFF_PROBE, 131075, None, 0,
         "status=ok\ngamma_hat=0.04259640391021913\neta_hat=0.2504444020598894\nk0_diag=94\n"
         "samples=131075\nmag_at_theta=1.4142135623730951\n", 0.3297681483096705),
        (_OFF_PROBE, 131075, 1e-3, 0,
         "status=ok\ngamma_hat=0.001\neta_hat=0.49396147243944305\nk0_diag=2025\n"
         "samples=131075\nmag_at_theta=1.4142135623730951\n", 0.3297681483096705),
    ],
    ids=["ok", "ok-given-gamma", "none-positive", "eta-zero", "in-region",
         "l2-slice-minus-1", "l2-slice-minus-1-given-gamma", "l2-slice", "l2-slice-given-gamma",
         "l2-slice-plus-1", "l2-slice-plus-1-given-gamma", "l2-two-slices-plus-3",
         "l2-two-slices-plus-3-given-gamma",
         "slice-minus-1", "slice-minus-1-given-gamma", "slice", "slice-given-gamma",
         "slice-plus-1", "slice-plus-1-given-gamma", "two-slices-plus-3",
         "two-slices-plus-3-given-gamma"],
)
def test_improvement_probability_outcomes_are_pinned(theta, samples, gamma, seed, text,
                                                     next_draw):
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    rng = np.random.default_rng(seed)
    est = estimate_improvement_probability(
        ch, np.array(theta), 1.0, math.pi / 30, eps=0.2, samples=samples, gamma=gamma, rng=rng
    )
    texts = (text,) if isinstance(text, str) else text  # a tuple: one text per SIMD level
    assert est.to_text() in [f"check=improvement-probability\n{t}opt_mag=2.0\neps=0.2\n"
                             for t in texts]
    assert rng.random() == next_draw


@pytest.mark.parametrize("gamma", [None, 1e-3], ids=["median-gamma", "given-gamma"])
@pytest.mark.parametrize("n_s,samples", [(2, 9_000), (7, 2_500)], ids=["n2", "n7"])
def test_improvement_report_does_not_depend_on_the_slice_budget(monkeypatch, n_s, samples,
                                                                gamma):
    # slices draw in sequence from one generator, so any budget gives the same
    # report and leaves the generator at the same state
    ch = generate_channel(n_s, np.random.default_rng(8))
    theta = random_probe(ch, 1.0, 0.1, np.random.default_rng(9))

    def run():
        rng = np.random.default_rng(10)
        est = estimate_improvement_probability(ch, theta, 1.0, math.pi / 30, eps=0.1,
                                               samples=samples, gamma=gamma, rng=rng)
        assert est.status == "ok"
        return est.to_text(), rng.random()

    default = run()
    for budget in (n_s, 7 * n_s, 1 << 17):  # one sample, seven samples, the kernel's budget
        monkeypatch.setattr(oracle, "_SLICE_VALUES", budget)
        assert run() == default


def test_improvement_probability_keeps_one_float_a_sample():
    # the samples stream in slices of the oracle's own budget; only their
    # improvements outlive a slice
    n_s, samples = 50, 50_000
    ch = generate_channel(n_s, np.random.default_rng(0))
    theta = np.random.default_rng(1).uniform(0, TWO_PI, n_s)
    slice_values = max(1, oracle._SLICE_VALUES // n_s) * n_s
    tracemalloc.start()
    try:
        est = estimate_improvement_probability(
            ch, theta, 1.0, math.pi / 30, eps=0.1 * optimal_magnitude(ch, 1.0),
            samples=samples, rng=np.random.default_rng(2),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.status == "ok"
    assert peak < 32 * samples + 64 * slice_values


def test_improvement_probability_checks_gamma_up_front():
    # refused beside samples and delta0, whether or not the probe is in the region
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    for theta in (_OFF_PROBE, (0.1, 0.1)):
        for gamma in (-1.0, 0.0, math.inf, math.nan):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="gamma must be positive"):
                estimate_improvement_probability(
                    ch, np.array(theta), 1.0, math.pi / 30, eps=0.2, samples=200,
                    gamma=gamma, rng=rng,
                )
            assert rng.random() == 0.6369616873214543  # nothing was drawn


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
        power=good.power,
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


_THETA = np.array([0.1, 0.2])


@pytest.mark.parametrize(
    "report,text",
    [
        (LocalMaxReport(2, 720, 2.5e-09, 0, 1.9999619230641712, 2.0, (0.0, 6.274458616817094)),
         "check=local-global\nstatus=pass\nn_s=2\nresolution=720\ntol=2.5e-09\n"
         "violations=0\nbest_mag=1.9999619230641712\nopt_mag=2.0\n"),
        (LocalMaxReport(3, 180, 1e-09, 4, 3.25, 3.5, (0.0, 1.0, 2.0)),
         "check=local-global\nstatus=fail\nn_s=3\nresolution=180\ntol=1e-09\n"
         "violations=4\nbest_mag=3.25\nopt_mag=3.5\n"),
        (ShiftInvarianceReport(50, 1000, 3.3306690738754696e-16, 1e-12),
         "check=shift-invariance\nstatus=pass\nn_s=50\ntrials=1000\n"
         "max_dev_rel=3.3306690738754696e-16\ntol=1e-12\n"),
        (ShiftInvarianceReport(50, 1000, 2.5e-12, 1e-12),
         "check=shift-invariance\nstatus=fail\nn_s=50\ntrials=1000\n"
         "max_dev_rel=2.5e-12\ntol=1e-12\n"),
        (IncrementReport(2000, None, 1.1102230246251565e-16, 1e-09),
         "check=monotone-increment\nstatus=pass\nn_steps=2000\nfirst_violation_step=\n"
         "telescope_dev_rel=1.1102230246251565e-16\ntol=1e-09\n"),
        (IncrementReport(40, 17, 0.0, 1e-09),
         "check=monotone-increment\nstatus=fail\nn_steps=40\nfirst_violation_step=17\n"
         "telescope_dev_rel=0.0\ntol=1e-09\n"),
        (IncrementReport(40, None, 3e-07, 1e-09),
         "check=monotone-increment\nstatus=fail\nn_steps=40\nfirst_violation_step=\n"
         "telescope_dev_rel=3e-07\ntol=1e-09\n"),
        (ImprovementEstimate("ok", 0.012345678901234568, 0.25, 412, 100000, _THETA, 1.25,
                             2.0, 0.2),
         "check=improvement-probability\nstatus=ok\ngamma_hat=0.012345678901234568\n"
         "eta_hat=0.25\nk0_diag=412\nsamples=100000\nmag_at_theta=1.25\nopt_mag=2.0\n"
         "eps=0.2\n"),
        (ImprovementEstimate("in-epsilon-region", None, None, None, 1000, _THETA, 1.95, 2.0,
                             0.2),
         "check=improvement-probability\nstatus=in-epsilon-region\ngamma_hat=\neta_hat=\n"
         "k0_diag=\nsamples=1000\nmag_at_theta=1.95\nopt_mag=2.0\neps=0.2\n"),
        (ImprovementEstimate("no-improvement-observed", None, None, None, 500, _THETA, 0.5,
                             2.0, 0.2),
         "check=improvement-probability\nstatus=no-improvement-observed\ngamma_hat=\n"
         "eta_hat=\nk0_diag=\nsamples=500\nmag_at_theta=0.5\nopt_mag=2.0\neps=0.2\n"),
        (ImprovementEstimate("no-improvement-observed", 0.5, 0.0, None, 500, _THETA, 0.5,
                             2.0, 0.2),
         "check=improvement-probability\nstatus=no-improvement-observed\ngamma_hat=0.5\n"
         "eta_hat=0.0\nk0_diag=\nsamples=500\nmag_at_theta=0.5\nopt_mag=2.0\neps=0.2\n"),
        (ImprovementEstimate("in-epsilon-region", None, None, None, 1000, _THETA,
                             np.float64(1.95), np.float32(2.0), np.float64(0.2)),
         "check=improvement-probability\nstatus=in-epsilon-region\ngamma_hat=\neta_hat=\n"
         "k0_diag=\nsamples=1000\nmag_at_theta=1.95\nopt_mag=2.0\neps=0.2\n"),
    ],
    ids=["local-max-pass", "local-max-fail", "shift-pass", "shift-fail", "increment-pass",
         "increment-drop", "increment-telescope", "improvement-ok", "improvement-in-region",
         "improvement-none-seen", "improvement-eta-zero", "improvement-numpy-floats"],
)
def test_report_text_is_pinned(report, text):
    # check, status, then every scalar field in order, NumPy floats as Python
    # floats; tuples and arrays left out
    assert report.to_text() == text
