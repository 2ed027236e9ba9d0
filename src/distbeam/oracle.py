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
from dataclasses import dataclass

import numpy as np

from .channel import (
    TWO_PI,
    ChannelRealization,
    SeedLike,
    as_generator,
    canonical_phases,
    epsilon_region_contains,
    magnitude,
    magnitude_batch,
    optimal_magnitude,
)
from .experiments import key_value_text
from .search import Trajectory


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive grid over the phase torus with the first phase fixed at 0
    (shift invariance makes the quotient exact). The local-max test compares
    each point with its L-inf neighbors one grid cell away."""

    resolution: int
    n_s: int

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if not 1 <= self.n_s <= 4:
            raise ValueError("grid verification supports n_s <= 4")
        if self.resolution ** max(self.n_s - 1, 0) > 10**8:
            raise ValueError("grid too large: resolution**(n_s-1) must be <= 1e8")

    @property
    def cell(self) -> float:
        return TWO_PI / self.resolution


@dataclass(frozen=True)
class LocalMaxReport:
    n_s: int
    resolution: int
    tol: float
    violations: int
    violation_points: tuple[tuple[float, ...], ...]
    best_mag: float
    opt_mag: float
    best_point: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_text(self) -> str:
        return key_value_text(
            {
                "check": "local-global",
                "status": "pass" if self.passed else "fail",
                "n_s": self.n_s,
                "resolution": self.resolution,
                "tol": repr(self.tol),
                "violations": self.violations,
                "best_mag": repr(self.best_mag),
                "opt_mag": repr(self.opt_mag),
            },
        )


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
    tol: float | None = None,
) -> LocalMaxReport:
    """Flag grid points that beat every neighbor by more than ``tol`` yet sit
    more than ``tol`` below the global optimum. Expected: none."""
    if grid.n_s != channel.n_s:
        raise ValueError("grid n_s does not match the channel")
    opt = optimal_magnitude(channel, P)
    if tol is None:
        tol = 1e-9 * opt
    mags = _grid_magnitudes(channel, P, grid.resolution)
    d = channel.n_s - 1
    best_idx = np.unravel_index(np.argmax(mags), mags.shape) if d else ()
    best_mag = float(mags[best_idx]) if d else float(mags)
    cell = grid.cell
    best_point = (0.0,) + tuple(float(i * cell) for i in best_idx)

    if d == 0:
        # single transmitter: the quotient grid is one point, the optimum
        return LocalMaxReport(
            n_s=channel.n_s,
            resolution=grid.resolution,
            tol=tol,
            violations=0,
            violation_points=(),
            best_mag=best_mag,
            opt_mag=opt,
            best_point=best_point,
        )

    neighbor_max = np.full_like(mags, -np.inf)
    for offset in itertools.product((-1, 0, 1), repeat=d):
        if all(o == 0 for o in offset):
            continue
        np.maximum(neighbor_max, np.roll(mags, offset, axis=tuple(range(d))), out=neighbor_max)

    strict_local_max = mags - neighbor_max > tol
    non_global = mags < opt - tol
    violating = strict_local_max & non_global
    idxs = np.argwhere(violating)
    points = tuple(
        (0.0,) + tuple(float(i * cell) for i in idx) for idx in idxs[:10]
    )
    return LocalMaxReport(
        n_s=channel.n_s,
        resolution=grid.resolution,
        tol=tol,
        violations=int(violating.sum()),
        violation_points=points,
        best_mag=best_mag,
        opt_mag=opt,
        best_point=best_point,
    )


@dataclass(frozen=True)
class ImprovementEstimate:
    """Monte Carlo estimate of the improvement margin and its probability at
    one probe point, plus the step-budget diagnostic
    k0_diag = ceil(sqrt(P) max_i a_i / (gamma_hat eta_hat))."""

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

    def to_text(self) -> str:
        return key_value_text(
            {
                "check": "improvement-probability",
                "status": self.status,
                "gamma_hat": "" if self.gamma_hat is None else repr(self.gamma_hat),
                "eta_hat": "" if self.eta_hat is None else repr(self.eta_hat),
                "k0_diag": "" if self.k0_diag is None else self.k0_diag,
                "samples": self.samples,
                "mag_at_theta": repr(self.mag_at_theta),
                "opt_mag": repr(self.opt_mag),
                "eps": repr(self.eps),
            },
        )


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
    fraction of samples improving by at least gamma_hat.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not delta0 > 0:
        raise ValueError("delta0 must be positive")
    theta = canonical_phases(theta)
    mag0 = magnitude(channel, theta, P)
    opt = optimal_magnitude(channel, P)
    base = dict(
        samples=samples, theta=theta, mag_at_theta=mag0, opt_mag=opt, eps=eps
    )
    if epsilon_region_contains(channel, theta, P, eps):
        return ImprovementEstimate(
            status="in-epsilon-region", gamma_hat=None, eta_hat=None, k0_diag=None, **base
        )
    rng = as_generator(rng)
    deltas = rng.uniform(-delta0, delta0, (samples, channel.n_s))
    mags = magnitude_batch(channel, canonical_phases(theta + deltas), P)
    improvements = mags - mag0
    if gamma is None:
        positive = improvements[improvements > 0]
        if positive.size == 0:
            return ImprovementEstimate(
                status="no-improvement-observed",
                gamma_hat=None,
                eta_hat=None,
                k0_diag=None,
                **base,
            )
        gamma_hat = float(np.median(positive))
    else:
        if not gamma > 0:
            raise ValueError("gamma must be positive")
        gamma_hat = float(gamma)
    eta_hat = float(np.mean(improvements >= gamma_hat))
    if eta_hat == 0.0:
        return ImprovementEstimate(
            status="no-improvement-observed",
            gamma_hat=gamma_hat,
            eta_hat=0.0,
            k0_diag=None,
            **base,
        )
    k0 = math.ceil(math.sqrt(P) * float(channel.a.max()) / (gamma_hat * eta_hat))
    return ImprovementEstimate(
        status="ok", gamma_hat=gamma_hat, eta_hat=eta_hat, k0_diag=k0, **base
    )


@dataclass(frozen=True)
class ShiftInvarianceReport:
    n_s: int
    trials: int
    max_dev_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev_rel <= self.tol

    def to_text(self) -> str:
        return key_value_text(
            {
                "check": "shift-invariance",
                "status": "pass" if self.passed else "fail",
                "n_s": self.n_s,
                "trials": self.trials,
                "max_dev_rel": repr(self.max_dev_rel),
                "tol": repr(self.tol),
            },
        )


def verify_shift_invariance(
    channel: ChannelRealization,
    P: float = 1.0,
    trials: int = 1000,
    rng: SeedLike = None,
    tol: float = 1e-12,
) -> ShiftInvarianceReport:
    """Max |Mag(theta + c e) - Mag(theta)| over random (theta, c) pairs,
    relative to the optimum; must sit at double-precision noise."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = as_generator(rng)
    thetas = rng.uniform(0.0, TWO_PI, (trials, channel.n_s))
    shifts = rng.uniform(0.0, TWO_PI, trials)
    base = magnitude_batch(channel, thetas, P)
    shifted = magnitude_batch(channel, canonical_phases(thetas + shifts[:, None]), P)
    opt = optimal_magnitude(channel, P)
    max_dev = float(np.max(np.abs(shifted - base))) / opt
    return ShiftInvarianceReport(
        n_s=channel.n_s, trials=trials, max_dev_rel=max_dev, tol=tol
    )


@dataclass(frozen=True)
class IncrementReport:
    n_steps: int
    first_violation_step: int | None
    telescope_dev_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.first_violation_step is None and self.telescope_dev_rel <= self.tol

    def to_text(self) -> str:
        return key_value_text(
            {
                "check": "monotone-increment",
                "status": "pass" if self.passed else "fail",
                "n_steps": self.n_steps,
                "first_violation_step": ""
                if self.first_violation_step is None
                else self.first_violation_step,
                "telescope_dev_rel": repr(self.telescope_dev_rel),
                "tol": repr(self.tol),
            },
        )


def verify_monotone_and_increment(
    traj: Trajectory, tol: float = 1e-9
) -> IncrementReport:
    """Check a noiseless trajectory is non-decreasing and that the final
    magnitude telescopes to the initial one plus the recorded increments."""
    if traj.power.sigma2 != 0:
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
        tol=tol,
    )
