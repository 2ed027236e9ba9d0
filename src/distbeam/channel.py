"""Slow-fading multi-transmitter channel and the received-signal-magnitude objective.

Phases are plain float ndarrays kept in the canonical range [0, 2pi); use
:func:`canonical_phases` after any additive update. All randomness flows
through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

SeedLike = int | np.random.SeedSequence | np.random.Generator | None


def as_generator(seed) -> np.random.Generator:
    """Return ``seed`` itself if it is a Generator, else ``default_rng(seed)``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def canonical_phases(theta) -> np.ndarray:
    """Reduce phases to [0, 2pi).

    ``remainder(x, 2pi)`` can round up to exactly 2pi for tiny negative x;
    those entries are snapped to 0 so the half-open invariant holds.
    """
    out = np.remainder(np.asarray(theta, dtype=float), TWO_PI)
    out[out >= TWO_PI] = 0.0
    return out


@dataclass(frozen=True)
class ChannelRealization:
    """Per-transmitter fading amplitudes ``a`` and phases ``phi`` (radians).

    Amplitudes are nonnegative with at least one strictly positive entry;
    phases are stored canonically in [0, 2pi). Instances are immutable and
    safe to share across threads.
    """

    a: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if a.ndim != 1 or phi.ndim != 1:
            raise ValueError("channel gains must be 1-d arrays")
        if a.shape != phi.shape:
            raise ValueError(
                f"amplitude/phase length mismatch: {a.shape[0]} vs {phi.shape[0]}"
            )
        if a.shape[0] < 1:
            raise ValueError("channel needs at least one transmitter")
        if not np.all(np.isfinite(a)) or not np.all(np.isfinite(phi)):
            raise ValueError("channel gains must be finite")
        if np.any(a < 0):
            raise ValueError("amplitudes must be nonnegative")
        if not np.any(a > 0):
            raise ValueError("all-zero channel rejected: no signal can be received")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "phi", canonical_phases(phi))

    @property
    def n_s(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class PowerConfig:
    """Transmit power, receiver noise variance, and the number of slots
    averaged per magnitude estimate when noise is on."""

    P: float = 1.0
    sigma2: float = 0.0
    averaging_slots: int = 1

    def __post_init__(self):
        if not 0 < self.P < math.inf:
            raise ValueError("P must be positive and finite")
        if not 0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be nonnegative and finite")
        if self.averaging_slots < 1:
            raise ValueError("averaging_slots must be >= 1")


def rotations(a, x) -> np.ndarray:
    """e^{j(x_i - x_r)} over the last axis of ``x``, relative to its entry at
    the strongest transmitter r = argmax a (one r per row of ``a``)."""
    r = np.broadcast_to(np.argmax(a, axis=-1)[..., None], x.shape[:-1] + (1,))
    out = np.empty(x.shape, dtype=complex)  # the differences wait in out.imag
    rel = np.subtract(x, np.take_along_axis(x, r, axis=-1), out=out.imag)
    np.cos(rel, out=out.real)
    np.sin(rel, out=rel)
    return out


def phasors(a, theta) -> np.ndarray:
    """a_i e^{j(theta_i - theta_r)}. Their sum has the magnitude of sum_i a_i
    e^{j theta_i} (shift invariance), and the term at r is exactly a_r + 0j."""
    out = rotations(a, np.asarray(theta, dtype=float))
    out *= a
    return out


def coherent_magnitude(total, P: float, sigma2: float = 0.0, noise=None) -> np.ndarray:
    """The one formula behind every magnitude, from the sums ``total`` of
    :func:`phasors` that :func:`received_magnitude` and the search kernel form.

    Noiseless: sqrt(P) * |total|. With ``noise`` (standard normals of shape
    (..., 2, k): real parts, then imaginary parts), the mean over k slots of
    |sqrt(P) total + w| with w of variance sigma2.
    """
    sqrt_p = math.sqrt(P)
    if noise is None:
        return sqrt_p * np.abs(total)
    scale = math.sqrt(sigma2 / 2.0)
    slots = np.hypot(
        sqrt_p * total.real[..., None] + scale * noise[..., 0, :],
        sqrt_p * total.imag[..., None] + scale * noise[..., 1, :],
    )
    return slots.mean(axis=-1)


def received_magnitude(a, theta, P: float, sigma2: float = 0.0, noise=None) -> np.ndarray:
    """:func:`coherent_magnitude` of phases ``theta`` (over its last axis)."""
    return coherent_magnitude(phasors(a, theta).sum(axis=-1), P, sigma2, noise)


def _check_theta(channel: ChannelRealization, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.shape[0] != channel.n_s:
        raise ValueError(
            f"theta has length {theta.shape[-1] if theta.ndim else 0}, "
            f"channel has {channel.n_s} transmitters"
        )
    return theta


def magnitude(channel: ChannelRealization, theta, P: float = 1.0) -> float:
    """Noiseless received signal magnitude sqrt(P) * |sum_i a_i e^{j theta_i}|.

    2pi-periodic in every component of ``theta``.
    """
    theta = _check_theta(channel, theta)
    if not P > 0:
        raise ValueError("P must be positive")
    return float(received_magnitude(channel.a, theta, P))


def magnitude_batch(channel: ChannelRealization, thetas, P: float = 1.0) -> np.ndarray:
    """Vectorized :func:`magnitude` over rows of a (m, n_s) phase matrix.

    Elementwise-identical to calling :func:`magnitude` on each row.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != channel.n_s:
        raise ValueError("thetas must be (m, n_s)")
    if not P > 0:
        raise ValueError("P must be positive")
    return received_magnitude(channel.a, thetas, P)


def optimal_magnitude(channel: ChannelRealization, P: float = 1.0) -> float:
    """Global maximum of the magnitude, sqrt(P) * sum_i a_i (all phases aligned)."""
    if not P > 0:
        raise ValueError("P must be positive")
    return float(math.sqrt(P) * channel.a.sum())


def measure_magnitude(
    channel: ChannelRealization,
    theta,
    power: PowerConfig,
    rng: SeedLike = None,
) -> float:
    """Receiver-side magnitude estimate.

    With ``sigma2 == 0`` this is bit-identical to :func:`magnitude` and draws
    nothing from ``rng``. Otherwise it averages ``averaging_slots`` noisy
    magnitudes |sqrt(P) sum_i a_i e^{j theta_i} + w_k| with w_k i.i.d.
    circularly-symmetric complex Gaussian of variance sigma2.
    """
    if power.sigma2 == 0.0:
        return magnitude(channel, theta, power.P)
    theta = _check_theta(channel, theta)
    noise = as_generator(rng).standard_normal((2, power.averaging_slots))
    return float(received_magnitude(channel.a, theta, power.P, power.sigma2, noise))


def generate_channel(n_s: int, rng: SeedLike = None) -> ChannelRealization:
    """Draw h_i i.i.d. complex Gaussian, zero mean, unit variance (E|h|^2 = 1)."""
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    rng = as_generator(rng)
    scale = math.sqrt(0.5)
    re = scale * rng.standard_normal(n_s)
    im = scale * rng.standard_normal(n_s)
    a = np.hypot(re, im)
    phi = canonical_phases(np.arctan2(im, re))
    return ChannelRealization(a=a, phi=phi)


def epsilon_region_contains(
    channel: ChannelRealization, theta, P: float, eps: float
) -> bool:
    """True iff magnitude(theta) > optimal_magnitude - eps (strict)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return magnitude(channel, theta, P) > optimal_magnitude(channel, P) - eps
