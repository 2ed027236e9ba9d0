"""Micro-timings of single public distbeam calls on fixed-seed inputs.

Every input is drawn from ``MICRO_SEED`` before any timing starts, so the
inputs do not depend on the workload seed or on how many calls a timing
needed. Calls that draw random numbers use a separate generator.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from distbeam.channel import (
    TWO_PI,
    PowerConfig,
    canonical_phases,
    epsilon_region_contains,
    generate_channel,
    magnitude_batch,
    measure_magnitude,
    optimal_magnitude,
)
from distbeam.cli import emit_reproduction_bundle
from distbeam.experiments import config_from_items, hitting_time_csv, run_hitting_time_sweep
from distbeam.oracle import (
    GridSpec,
    estimate_improvement_probability,
    verify_local_equals_global,
    verify_monotone_and_increment,
    verify_shift_invariance,
)
from distbeam.search import (
    PerturbationSpec,
    StopRule,
    init_state,
    one_bit_step,
    run_trajectory,
    sample_perturbation,
)

MICRO_SEED = 0
_BATCH_S = 0.02  # a timed batch repeats the call until it lasts this long
_BATCHES = 7


def per_call(fn) -> float:
    """Median CPU seconds per call over several batches of back-to-back calls."""
    n = 1
    while True:
        start = time.process_time()
        for _ in range(n):
            fn()
        elapsed = time.process_time() - start
        if elapsed >= _BATCH_S:
            break
        n = max(2 * n, math.ceil(1.2 * n * _BATCH_S / max(elapsed, 1e-9)))
    samples = []
    for _ in range(_BATCHES):
        start = time.process_time()
        for _ in range(n):
            fn()
        samples.append((time.process_time() - start) / n)
    return statistics.median(samples)


def run_micro(noisy: PowerConfig, out: Path) -> dict[str, float]:
    """The micro-timed per-layer metrics. ``noisy`` is the noise setting of
    the noisy workload; ``out`` receives one small reproduction bundle."""
    rng = np.random.default_rng(MICRO_SEED)
    d0 = math.pi / 90.0
    spec = PerturbationSpec(delta0=d0)
    quiet = PowerConfig()
    ch100 = generate_channel(100, rng)
    thetas = rng.uniform(0.0, TWO_PI, (100, 100))
    stepped = thetas + rng.uniform(-d0, d0, (100, 100))
    ch30 = generate_channel(30, rng)
    ch3 = generate_channel(3, rng)
    ch10 = generate_channel(10, rng)
    eps10 = 0.1 * optimal_magnitude(ch10)
    probe = rng.uniform(0.0, TWO_PI, 10)
    if epsilon_region_contains(ch10, probe, 1.0, eps10):
        raise ValueError("micro-timing probe lies in the eps region")
    ch50 = generate_channel(50, rng)
    draws = np.random.default_rng(MICRO_SEED + 1)

    m: dict[str, float] = {}
    m["channel.magnitude_batch.us"] = 1e6 * per_call(lambda: magnitude_batch(ch100, thetas))
    # computed: the phase matrix and amplitudes read, one magnitude per row written
    m["channel.magnitude_batch.bytes"] = thetas.nbytes + ch100.a.nbytes + 8 * thetas.shape[0]
    m["channel.canonical_phases.us"] = 1e6 * per_call(lambda: canonical_phases(stepped))
    m["channel.measure_magnitude_noisy.us"] = 1e6 * per_call(
        lambda: measure_magnitude(ch30, ch30.phi, noisy, draws))
    m["channel.generate_channel.us"] = 1e6 * per_call(lambda: generate_channel(100, draws))
    m["search.sample_perturbation.us"] = 1e6 * per_call(
        lambda: sample_perturbation(spec, 30, 0, draws))
    for name, power in (("search.one_bit_step.us", quiet), ("search.one_bit_step_noisy.us", noisy)):
        state = init_state(ch30, "origin", power, draws)

        def step():
            nonlocal state
            state, _, _ = one_bit_step(state, ch30, spec, power, draws)

        m[name] = 1e6 * per_call(step)

    steps = 3000
    seconds = []
    for _ in range(3):
        start = time.process_time()
        run_trajectory(ch30, spec, noisy, "origin", StopRule.steps(steps),
                       seed=MICRO_SEED, record_thetas=False)
        seconds.append(time.process_time() - start)
    m["search.run_trajectory.steps_per_s"] = steps / statistics.median(seconds)
    traj = run_trajectory(ch30, spec, quiet, "origin", StopRule.steps(200 * 30),
                          seed=MICRO_SEED, record_thetas=False)
    m["search.keep_rate"] = int(traj.bits.sum()) / traj.n_steps

    m["oracle.verify_local_equals_global.s"] = per_call(
        lambda: verify_local_equals_global(ch3, 1.0, GridSpec(resolution=180, n_s=3)))
    m["oracle.estimate_improvement_probability.s"] = per_call(
        lambda: estimate_improvement_probability(ch10, probe, 1.0, d0, eps=eps10,
                                                 samples=100_000, rng=draws))
    m["oracle.verify_shift_invariance.s"] = per_call(
        lambda: verify_shift_invariance(ch50, 1.0, trials=1000, rng=draws))
    m["oracle.verify_monotone_and_increment.us"] = 1e6 * per_call(
        lambda: verify_monotone_and_increment(traj))

    config = config_from_items({"kind": "hitting-time", "n_s": "4,8", "trials": "4",
                                "alpha": "0.5,0.7,0.9", "master_seed": str(MICRO_SEED)})
    results = run_hitting_time_sweep(config)
    m["experiments.csv_render.us"] = 1e6 * per_call(lambda: hitting_time_csv(results))
    files = {"hitting_time.csv": hitting_time_csv(results), "summary.txt": "micro=1\n"}
    m["cli.emit_reproduction_bundle.ms"] = 1e3 * per_call(
        lambda: emit_reproduction_bundle(config, files, out))
    m["cli.bundle_bytes"] = sum(p.stat().st_size for p in out.iterdir())
    return m
