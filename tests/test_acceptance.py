"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The scaling sweeps dominate the module's run time.
"""

import math

import numpy as np
import pytest

from distbeam import (
    ExperimentConfig,
    GridSpec,
    PerturbationSpec,
    PowerConfig,
    StopRule,
    dump_config,
    estimate_improvement_probability,
    generate_channel,
    linear_fit,
    optimal_magnitude,
    run_trajectory,
    trial_seed_sequence,
    verify_local_equals_global,
    verify_shift_invariance,
)
from distbeam.cli import parse_and_dispatch
from distbeam.oracle import random_probe

MASTER_SEED = 7
NS_GRID = tuple(range(10, 101, 10))
ALPHAS = (0.5, 0.7, 0.9)
DELTA0 = math.pi / 90


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def criterion1_runs():
    spec = PerturbationSpec(delta0=DELTA0)
    power = PowerConfig(P=1.0)
    trajectories = []
    for k in range(100):
        rng = np.random.default_rng(trial_seed_sequence(MASTER_SEED, 10, k))
        channel = generate_channel(10, rng)
        eps = 0.1 * optimal_magnitude(channel, 1.0)
        trajectories.append(
            run_trajectory(
                channel, spec, power, "origin",
                StopRule(200 * 10, eps=eps), seed=rng, record_thetas=False,
            )
        )
    return trajectories


def sweep_config(kind):
    return ExperimentConfig(
        kind=kind,
        n_s_values=NS_GRID,
        trials=100,
        alpha=ALPHAS,
        delta0=DELTA0,
        P=1.0,
        init_mode="origin",
        channel_policy="redrawn-per-trial",
        horizon=None,
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="module")
def hitting_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("hitting")
    cfg_path = root / "hitting.cfg"
    cfg_path.write_text(dump_config(sweep_config("hitting-time")), encoding="utf-8")
    out = root / "run1"
    rc = parse_and_dispatch(["hitting-time", "--config", str(cfg_path), "--out", str(out)])
    return root, out, rc


@pytest.fixture(scope="module")
def avg_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("avg")
    cfg_path = root / "avg.cfg"
    cfg_path.write_text(dump_config(sweep_config("avg-convergence")), encoding="utf-8")
    out = root / "run1"
    rc = parse_and_dispatch(["avg-convergence", "--config", str(cfg_path), "--out", str(out)])
    return root, out, rc


def read_hitting_csv(path):
    rows = {}
    fits = {}
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "n_s,alpha,hitting_time,slope,intercept,r2"
    for line in lines[1:]:
        n_s, alpha, ht, slope, intercept, r2 = line.split(",")
        rows[(int(n_s), float(alpha))] = None if ht == "" else int(ht)
        fits[float(alpha)] = (float(slope), float(intercept), float(r2))
    return rows, fits


def read_avg_csv(path):
    rows = {}
    censored = {}
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "n_s,alpha,mean_time,std_time,censored"
    for line in lines[1:]:
        n_s, alpha, mean_time, _, cens = line.split(",")
        rows[(int(n_s), float(alpha))] = float(mean_time)
        censored[(int(n_s), float(alpha))] = int(cens)
    return rows, censored


def read_summary(path):
    return dict(
        line.split("=", 1)
        for line in path.read_text(encoding="utf-8").strip().splitlines()
    )


def test_criterion_1_monotone_convergence(criterion1_runs):
    monotone = all(np.all(np.diff(t.magnitudes()) >= 0) for t in criterion1_runs)
    converged = sum(t.converged is True for t in criterion1_runs)
    report(
        1,
        monotone and converged == 100,
        f"100 seeded runs (n_s=10, delta0=pi/90, origin init): "
        f"all monotone={monotone}, {converged}/100 reached the eps region "
        f"(eps=0.1 optimum) within 2000 steps",
    )


def test_criterion_2_local_maxima_are_global():
    rng = np.random.default_rng(20)
    violations = 0
    for n_s, resolution in ((2, 720), (3, 180)):
        for _ in range(5):
            channel = generate_channel(n_s, rng)
            rep = verify_local_equals_global(
                channel, 1.0, GridSpec(resolution=resolution, n_s=n_s)
            )
            violations += rep.violations
    report(
        2,
        violations == 0,
        f"grid search (n_s=2 res 720, n_s=3 res 180, 5 channels each, "
        f"theta_1 quotiented, tol=1e-9 optimum): {violations} non-global local maxima",
    )


def test_criterion_3_shift_invariance():
    channel = generate_channel(50, np.random.default_rng(30))
    rep = verify_shift_invariance(
        channel, 1.0, trials=1000, rng=np.random.default_rng(31)
    )
    report(
        3,
        rep.passed,
        f"max common-shift deviation over 1000 random (theta, c) pairs at n_s=50: "
        f"{rep.max_dev_rel:.3e} relative (tol 1e-12)",
    )


def test_criterion_4_linear_scaling_of_hitting_time(hitting_bundle):
    _, out, rc = hitting_bundle
    rows, fits = read_hitting_csv(out / "hitting_time.csv")
    resolved = all(rows[(n, a)] is not None for n in NS_GRID for a in ALPHAS)
    r2_ok = all(fits[a][2] >= 0.95 for a in ALPHAS)
    ordered = all(
        rows[(n, 0.5)] <= rows[(n, 0.7)] <= rows[(n, 0.9)] for n in NS_GRID
    )
    r2s = ", ".join(f"alpha={a}: R2={fits[a][2]:.3f}" for a in ALPHAS)
    report(
        4,
        rc == 0 and resolved and r2_ok and ordered,
        f"hitting times over n_s=10..100, 100 trials/point: {r2s}; "
        f"alpha-ordering holds at every n_s={ordered}",
    )


def test_criterion_5_linear_scaling_of_avg_convergence(avg_bundle):
    _, out, rc = avg_bundle
    rows, censored = read_avg_csv(out / "avg_convergence.csv")
    cens_total = sum(censored.values())
    r2s = {}
    for a in ALPHAS:
        means = [rows[(n, a)] for n in NS_GRID]
        _, _, r2 = linear_fit(NS_GRID, means)
        r2s[a] = r2
    r2_ok = all(r2s[a] >= 0.95 for a in ALPHAS)
    ordered = all(
        rows[(n, 0.5)] <= rows[(n, 0.7)] <= rows[(n, 0.9)] for n in NS_GRID
    )
    detail = ", ".join(f"alpha={a}: R2={r2s[a]:.3f}" for a in ALPHAS)
    report(
        5,
        rc == 0 and cens_total == 0 and r2_ok and ordered,
        f"first-passage means over n_s=10..100: {detail}; "
        f"censored runs={cens_total}; alpha-ordering={ordered}",
    )


def test_criterion_6_increment_identity(criterion1_runs, hitting_bundle):
    dev1 = max(
        abs(t.final_mag - (t.initial_mag + t.increments.sum()))
        / max(t.final_mag, 1e-30)
        for t in criterion1_runs
    )
    _, out, _ = hitting_bundle
    dev4 = float(read_summary(out / "summary.txt")["increment_identity_max_dev"])
    report(
        6,
        dev1 <= 1e-9 and dev4 <= 1e-9,
        f"max relative telescoping deviation: criterion-1 runs {dev1:.3e}, "
        f"criterion-4 sweep {dev4:.3e} (tol 1e-9)",
    )


def test_criterion_7_improvement_probability(hitting_bundle):
    _, out, _ = hitting_bundle
    rows, _ = read_hitting_csv(out / "hitting_time.csv")
    measured = rows[(10, 0.9)]  # eps = 0.1 optimum is the alpha=0.9 region
    channel = generate_channel(10, np.random.default_rng(70))
    eps = 0.1 * optimal_magnitude(channel, 1.0)
    probe_rng = np.random.default_rng(71)
    estimates = []
    for _ in range(20):
        theta = random_probe(channel, 1.0, eps, probe_rng)
        estimates.append(
            estimate_improvement_probability(
                channel, theta, 1.0, DELTA0, eps=eps, samples=10**5, rng=probe_rng
            )
        )
    all_ok = all(
        e.status == "ok" and e.gamma_hat > 0 and e.eta_hat > 0 for e in estimates
    )
    min_budget = min(e.k0_diag for e in estimates) * 10
    report(
        7,
        all_ok and min_budget >= measured,
        f"20 probes outside the eps region: all gamma_hat>0 and eta_hat>0={all_ok}; "
        f"min k0_diag*n_s={min_budget} >= measured hitting time {measured}",
    )


def test_criterion_8_determinism_of_reproduction_bundle(hitting_bundle):
    root, out1, _ = hitting_bundle
    out2 = root / "run2"
    rc = parse_and_dispatch(
        ["hitting-time", "--config", str(out1 / "resolved.cfg"), "--out", str(out2)]
    )
    same_csv = (out1 / "hitting_time.csv").read_bytes() == (
        out2 / "hitting_time.csv"
    ).read_bytes()
    same_cfg = (out1 / "resolved.cfg").read_bytes() == (out2 / "resolved.cfg").read_bytes()
    same_manifest = (out1 / "manifest.txt").read_bytes() == (
        out2 / "manifest.txt"
    ).read_bytes()
    report(
        8,
        rc == 0 and same_csv and same_cfg and same_manifest,
        f"re-run from emitted resolved.cfg: csv byte-identical={same_csv}, "
        f"config byte-identical={same_cfg}, manifest identical={same_manifest}",
    )
