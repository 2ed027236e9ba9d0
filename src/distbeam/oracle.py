"""Independent verification of the structural properties the search relies on:
no non-global local maxima, common-phase-shift invariance, uniform positive
improvement probability off the optimum, and the per-trajectory monotone /
telescoping-increment identities.

Grid checks evaluate the objective through a separable complex-broadcast
formulation, deliberately not the production magnitude kernel. Reports render
as machine-parsable key=value lines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .channel import (
    TWO_PI,
    _SLICE_VALUES,
    ChannelRealization,
    SeedLike,
    _check_theta,
    _positive,
    _whole,
    canonical_phases,
    epsilon_region_contains,
    magnitude,
    magnitude_batch,
    optimal_magnitude,
)
from .experiments import key_value_text
from .search import PerturbationSpec, Trajectory


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive grid over the phase torus with the first phase fixed at 0
    (shift invariance makes the quotient exact). The local-max test compares
    each point with its L-inf neighbors one grid cell away."""

    resolution: int
    n_s: int

    def __post_init__(self):
        _whole("resolution", self.resolution, 8)
        _whole("n_s", self.n_s, 1)
        if self.n_s > 4:
            raise ValueError("grid verification supports n_s <= 4")
        if self.resolution ** max(self.n_s - 1, 0) > 10**8:
            raise ValueError("grid too large: resolution**(n_s-1) must be <= 1e8")

    @property
    def cell(self) -> float:
        return TWO_PI / self.resolution


class _Report:
    """A check's result. ``to_text`` renders ``check``, then ``status`` (the
    report's own field if it has one, else pass or fail), then every scalar
    field in declaration order as :func:`distbeam.experiments.value_text` writes it."""

    check: ClassVar[str]

    def to_text(self) -> str:
        # a status field overwrites the pass/fail value in its place
        text = {"check": self.check, "status": "pass" if self.passed else "fail"}
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, (tuple, np.ndarray)):
                text[f.name] = value
        return key_value_text(text)


@dataclass(frozen=True)
class LocalMaxReport(_Report):
    check = "local-global"

    n_s: int
    resolution: int
    tol: float
    violations: int
    best_mag: float
    opt_mag: float
    best_point: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.violations == 0



def _grid_magnitudes(channel: ChannelRealization, P: float, resolution: int):
    """Objective over the quotient grid (theta_1 = 0), shape (resolution,)*(n_s-1)."""
    d = channel.n_s - 1
    axis = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    phasor = np.exp(1j * axis)
    total = np.asarray(channel.a[0], dtype=complex)
    for i in range(d):
        shape = [1] * d
        shape[i] = resolution
        total = total + channel.a[i + 1] * phasor.reshape(shape)
    return math.sqrt(P) * np.abs(total)


def verify_local_equals_global(
    channel: ChannelRealization,
    P: float,
    grid: GridSpec,
) -> LocalMaxReport:
    """Flag grid points that beat every neighbor by more than ``tol``, 1e-9 of
    the optimum, yet sit more than ``tol`` below it. Expected: none."""
    if grid.n_s != channel.n_s:
        raise ValueError("grid n_s does not match the channel")
    opt = optimal_magnitude(channel, P)
    tol = 1e-9 * opt
    mags = _grid_magnitudes(channel, P, grid.resolution)
    d = channel.n_s - 1
    best_idx = np.unravel_index(np.argmax(mags), mags.shape)
    best_mag = float(mags[best_idx])
    cell = grid.cell
    best_point = (0.0,) + tuple(float(i * cell) for i in best_idx)

    neighbor_max = np.full_like(mags, -np.inf)
    for offset in itertools.product((-1, 0, 1), repeat=d):
        if all(o == 0 for o in offset):
            continue
        np.maximum(neighbor_max, np.roll(mags, offset, axis=tuple(range(d))), out=neighbor_max)

    strict_local_max = mags - neighbor_max > tol
    non_global = mags < opt - tol
    violating = strict_local_max & non_global
    return LocalMaxReport(
        n_s=channel.n_s,
        resolution=grid.resolution,
        tol=tol,
        violations=int(violating.sum()),
        best_mag=best_mag,
        opt_mag=opt,
        best_point=best_point,
    )


@dataclass(frozen=True)
class ImprovementEstimate(_Report):
    """Monte Carlo estimate of the improvement margin and its probability at
    one probe point, plus the step-budget diagnostic
    k0_diag = ceil(sqrt(P) max_i a_i / (gamma_hat eta_hat))."""

    check = "improvement-probability"

    status: str
    gamma_hat: float | None
    eta_hat: float | None
    k0_diag: int | None
    samples: int
    theta: np.ndarray
    mag_at_theta: float
    opt_mag: float
    eps: float

    @property
    def passed(self) -> bool:
        return self.status == "ok"



def estimate_improvement_probability(
    channel: ChannelRealization,
    theta,
    P: float,
    delta0: float,
    eps: float,
    samples: int = 100_000,
    gamma: float | None = None,
    rng: SeedLike = None,
) -> ImprovementEstimate:
    """Estimate Pr[Mag(theta+delta) - Mag(theta) >= gamma] by Monte Carlo.

    The probe must lie outside the eps-convergence region; otherwise the
    estimate is meaningless and the status says so. When ``gamma`` is not
    given, gamma_hat is the median positive improvement and eta_hat is the
    fraction of samples improving by at least gamma_hat. Samples are drawn and
    evaluated in slices of ``_SLICE_VALUES`` values, whose temporaries fit in
    L2; only one float a sample, its improvement, outlives its slice.
    """
    _whole("samples", samples, 1)
    PerturbationSpec(delta0)  # the search's own check
    if gamma is not None:
        _positive("gamma", gamma)
    theta = canonical_phases(_check_theta(channel, theta))
    mag0 = magnitude(channel, theta, P)
    status, gamma_hat, eta_hat, k0 = "in-epsilon-region", None, None, None
    if not epsilon_region_contains(channel, theta, P, eps):
        rng = np.random.default_rng(rng)
        rows = max(1, _SLICE_VALUES // channel.n_s)
        improvements = np.empty(samples)
        for start in range(0, samples, rows):  # sliced draws equal one draw of all
            part = improvements[start:start + rows]
            phases = rng.uniform(-delta0, delta0, (len(part), channel.n_s))
            phases += theta
            np.subtract(magnitude_batch(channel, canonical_phases(phases), P), mag0, out=part)
        if gamma is None:
            positive = improvements[improvements > 0]
            gamma_hat = float(np.median(positive, overwrite_input=True)) if positive.size else None
        else:
            gamma_hat = float(gamma)
        if gamma_hat is not None:
            eta_hat = float(np.mean(improvements >= gamma_hat))
        status = "ok" if eta_hat else "no-improvement-observed"  # eta_hat None or 0.0
        if eta_hat:
            k0 = math.ceil(math.sqrt(P) * float(channel.a.max()) / (gamma_hat * eta_hat))
    return ImprovementEstimate(
        status=status, gamma_hat=gamma_hat, eta_hat=eta_hat, k0_diag=k0, samples=samples,
        theta=theta, mag_at_theta=mag0, opt_mag=optimal_magnitude(channel, P), eps=eps,
    )


def random_probe(channel: ChannelRealization, P: float, eps: float,
                 rng: np.random.Generator) -> np.ndarray:
    """A point to probe the improvement probability at: the first of up to
    10,000 draws of uniform phases in [0, 2pi) that lies outside the eps region."""
    for _ in range(10_000):
        theta = rng.uniform(0.0, TWO_PI, channel.n_s)
        if not epsilon_region_contains(channel, theta, P, eps):
            return theta
    raise ValueError("no probe point outside the eps region found; with n_s=1 every "
                     "phase vector is optimal, pick a larger n_s")


@dataclass(frozen=True)
class ShiftInvarianceReport(_Report):
    check = "shift-invariance"

    n_s: int
    trials: int
    max_dev_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev_rel <= self.tol



def verify_shift_invariance(
    channel: ChannelRealization,
    P: float = 1.0,
    trials: int = 1000,
    rng: SeedLike = None,
) -> ShiftInvarianceReport:
    """Max |Mag(theta + c e) - Mag(theta)| over random (theta, c) pairs,
    relative to the optimum; must sit at double-precision noise, 1e-12."""
    _whole("trials", trials, 1)
    rng = np.random.default_rng(rng)
    thetas = rng.uniform(0.0, TWO_PI, (trials, channel.n_s))
    shifts = rng.uniform(0.0, TWO_PI, trials)
    base = magnitude_batch(channel, thetas, P)
    shifted = magnitude_batch(channel, canonical_phases(thetas + shifts[:, None]), P)
    opt = optimal_magnitude(channel, P)
    max_dev = float(np.max(np.abs(shifted - base))) / opt
    return ShiftInvarianceReport(
        n_s=channel.n_s, trials=trials, max_dev_rel=max_dev, tol=1e-12
    )


@dataclass(frozen=True)
class IncrementReport(_Report):
    check = "monotone-increment"

    n_steps: int
    first_violation_step: int | None
    telescope_dev_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.first_violation_step is None and self.telescope_dev_rel <= self.tol



def verify_monotone_and_increment(traj: Trajectory) -> IncrementReport:
    """Check a noiseless trajectory is non-decreasing and that the final
    magnitude telescopes to the initial one plus the recorded increments, to 1e-9."""
    if traj.power.slots:
        raise ValueError("increment verification is defined for noiseless trajectories")
    curve = traj.magnitudes()
    drops = np.nonzero(np.diff(curve) < 0)[0]
    first_violation = int(drops[0] + 1) if drops.size else None
    final = float(curve[-1])
    dev = abs(final - (traj.initial_mag + float(traj.increments.sum())))
    dev_rel = dev / max(final, 1e-30)
    return IncrementReport(
        n_steps=traj.n_steps,
        first_violation_step=first_violation,
        telescope_dev_rel=dev_rel,
        tol=1e-9,
    )
