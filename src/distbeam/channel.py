"""Slow-fading multi-transmitter channel and the received-signal-magnitude objective.

Phases are plain float ndarrays kept in the canonical range [0, 2pi); use
:func:`canonical_phases` after any additive update. All randomness flows
through an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# most values worked on at once in one slice of draws, so that its
# temporaries stay in a core's L2: an improvement slice holds ~40 B a value,
# a kernel block of rotations 16 B
_SLICE_VALUES = 1 << 14

SeedLike = int | np.random.SeedSequence | np.random.Generator | None


def _real(theta) -> np.ndarray:
    """``theta`` as floats, refused unless real (checked before the cast drops
    an imaginary part)."""
    if np.iscomplexobj(theta):
        raise ValueError("theta must be real")
    return np.asarray(theta, dtype=float)


def canonical_phases(theta) -> np.ndarray:
    """Reduce phases to [0, 2pi): a new float array (0-d for a scalar).

    Bit for bit this is ``remainder(x, 2pi)``, except that a tiny negative x,
    which remainder rounds up to 2pi, gives 0. When every x lies in (-2pi, 4pi),
    as a phase plus a perturbation or a shift does, exact adds replace the
    division: on [0, 2pi) remainder is x, and x + 0.0 turns -0.0 into +0.0 as
    remainder does; on [2pi, 4pi) fmod and x - 2pi are both exact (Sterbenz's
    lemma); on (-2pi, 0) fmod is x and remainder adds 2pi with one rounding,
    which is x + 2pi. Other input, NaN and infinities included, takes remainder.
    Complex input is refused.
    """
    x = _real(theta)
    out = np.empty_like(x)  # filled whole before any where= writes into it
    if x.size and -TWO_PI < x.min() and x.max() < 2.0 * TWO_PI:  # NaN fails both
        np.add(x, 0.0, out=out)
        np.add(out, TWO_PI, out=out, where=out < 0.0)
    else:
        np.remainder(x, TWO_PI, out=out)
    np.subtract(out, TWO_PI, out=out, where=out >= TWO_PI)  # a rounded-up 2pi becomes 0.0
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
        if np.iscomplexobj(self.a) or np.iscomplexobj(self.phi):  # before the cast drops it
            raise ValueError("channel gains must be real")
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


def _number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a ``kind`` of number; a bool, an int to Python, is none."""
    return isinstance(value, kind) and not isinstance(value, bool)  # numbers counts no NumPy bool


def _whole(name: str, value, low: int) -> None:
    """Refuse ``value``, naming ``name``, unless it is an integer >= ``low`` (not a bool)."""
    if not _number(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _positive(name: str, value) -> None:
    """Refuse ``value``, naming ``name``, unless it is a finite real > 0 (not a bool)."""
    if not _number(value) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class PowerConfig:
    """Transmit power, receiver noise variance, and the number of slots
    averaged per magnitude estimate when noise is on."""

    P: float = 1.0
    sigma2: float = 0.0
    averaging_slots: int = 1

    def __post_init__(self):
        _positive("P", self.P)
        if not _number(self.sigma2) or not 0 <= self.sigma2 < math.inf:
            raise ValueError("sigma2 must be nonnegative and finite")
        _whole("averaging_slots", self.averaging_slots, 1)

    @property
    def slots(self) -> int:
        """The one noise rule: the noisy slots a measurement averages,
        ``averaging_slots`` when sigma2 > 0 and none when noiseless."""
        return self.averaging_slots if self.sigma2 > 0 else 0


def slot_noise(rngs, power: PowerConfig, steps: int):
    """The one slot-noise draw: w for ``steps`` measurements of each row r, from
    ``rngs[r]``, of variance sigma2 and shape (steps, rows, 2, ``power.slots``)
    (real parts, then imaginary parts); ``steps`` Nones, drawing nothing, when noiseless."""
    if not power.slots:
        return [None] * steps
    buf = np.empty((len(rngs), steps, 2, power.slots))
    for rng, row in zip(rngs, buf):
        rng.standard_normal(out=row)
    buf *= math.sqrt(power.sigma2 / 2.0)
    return buf.swapaxes(0, 1)


def rotations(a, x) -> np.ndarray:
    """e^{j(x_i - x_r)} over the last axis of ``x``, relative to its entry at
    the strongest transmitter r = argmax a (one r per row of ``a``)."""
    r = np.broadcast_to(np.argmax(a, axis=-1)[..., None], x.shape[:-1] + (1,))
    return _rotate(x, np.take_along_axis(x, r, axis=-1), np.empty(x.shape, dtype=complex))


def _rotate(x, ref, out) -> np.ndarray:
    """e^{j(x - ref)} written into ``out``, a complex array shaped as ``x``;
    the differences wait in out.imag."""
    rel = np.subtract(x, ref, out=out.imag)
    np.cos(rel, out=out.real)
    np.sin(rel, out=rel)
    return out


def phasors(a, theta) -> np.ndarray:
    """a_i e^{j(theta_i - theta_r)}. Their sum has the magnitude of sum_i a_i
    e^{j theta_i} (shift invariance), and the term at r is exactly a_r + 0j."""
    out = rotations(a, np.asarray(theta, dtype=float))
    out *= a
    return out


def magnitude_into(total, P: float, k: int = 0):
    """The one formula behind every magnitude, bound to the sums ``total`` of
    :func:`phasors`: returns ``measure(noise)``, which reads ``total`` as it is
    at the call and returns the magnitudes, one array (floats shaped like
    ``total``) filled anew on every call.

    Noiseless (``k`` 0, ``noise`` None): sqrt(P) * |total|. With k slots
    (slot noise w of shape total.shape + (2, k): real parts, then imaginary
    parts, each of variance sigma2/2), the mean over the slots of
    |sqrt(P) total + w|. The buffers and views are made here, once, so that a
    call runs only the formula's ufuncs and allocates nothing.
    """
    sqrt_p = math.sqrt(P)
    mags = np.empty(np.shape(total))
    if k == 0:
        def measure(noise):
            return np.multiply(np.abs(total, out=mags), sqrt_p, out=mags)
        return measure
    signal = np.empty(np.shape(total), dtype=complex)
    # (re, im) of sqrt(P) total viewed as (..., 2, 1) floats; a 0-d total views only once 1-d
    pair = signal[..., None].view(float)[..., None]
    slots = np.empty(pair.shape[:-1] + (k,))
    re, im = slots[..., 0, :], slots[..., 1, :]
    slot_mags = np.empty(re.shape)
    n_slots = float(k)  # the same quotient as int k, without converting it on every call

    def measure(noise):
        np.multiply(total, sqrt_p, out=signal)
        np.add(pair, noise, out=slots)
        np.hypot(re, im, out=slot_mags)
        np.add.reduce(slot_mags, axis=-1, out=mags)
        return np.divide(mags, n_slots, out=mags)
    return measure


def coherent_magnitude(total, P: float, noise=None) -> np.ndarray:
    """:func:`magnitude_into` measured once: sqrt(P) * |total|, or with slot
    ``noise`` of shape total.shape + (2, k), the mean over its k slots."""
    return magnitude_into(total, P, 0 if noise is None else noise.shape[-1])(noise)


def _check_theta(channel: ChannelRealization, theta, ndim: int = 1) -> np.ndarray:
    """The one check of phases passed in: ``theta`` as floats, refused unless real,
    with ``ndim`` axes (1 for a vector, 2 for rows), the last of length n_s."""
    theta = _real(theta)
    if theta.ndim != ndim:
        raise ValueError(f"theta has {theta.ndim} axes, not {ndim}")
    if theta.shape[-1] != channel.n_s:
        raise ValueError(f"theta has length {theta.shape[-1]}, "
                         f"channel has {channel.n_s} transmitters")
    return theta


def magnitude(channel: ChannelRealization, theta, P: float = 1.0) -> float:
    """Noiseless received signal magnitude sqrt(P) * |sum_i a_i e^{j theta_i}|, 2pi-periodic
    in every phase: :func:`magnitude_batch` of the one row ``theta``, bit for bit."""
    return float(magnitude_batch(channel, _check_theta(channel, theta)[None], P)[0])


def magnitude_batch(channel: ChannelRealization, thetas, P: float = 1.0) -> np.ndarray:
    """:func:`magnitude` of each row of a (m, n_s) phase matrix: the one
    evaluation of the objective behind every public caller."""
    thetas = _check_theta(channel, thetas, ndim=2)
    _positive("P", P)
    return coherent_magnitude(phasors(channel.a, thetas).sum(axis=-1), P)


def optimal_magnitude(channel: ChannelRealization, P: float = 1.0) -> float:
    """Global maximum of the magnitude, sqrt(P) * sum_i a_i (all phases aligned)."""
    _positive("P", P)
    return float(math.sqrt(P) * channel.a.sum())


def measure_magnitude(
    channel: ChannelRealization,
    theta,
    power: PowerConfig,
    rng: SeedLike = None,
) -> float:
    """Receiver-side magnitude estimate: :func:`coherent_magnitude` of the phasor
    sum at ``theta`` with one measurement's :func:`slot_noise` from ``rng``, the
    mean over ``power.slots`` slots of |sqrt(P) sum_i a_i e^{j theta_i} + w_k|.
    Noiseless, it is bit-identical to :func:`magnitude` and builds no generator."""
    theta = _check_theta(channel, theta)
    noise = slot_noise([np.random.default_rng(rng)] if power.slots else None, power, 1)[0]
    total = phasors(channel.a, theta[None]).sum(axis=-1)
    return float(coherent_magnitude(total, power.P, noise)[0])


def generate_channel(n_s: int, rng: SeedLike = None) -> ChannelRealization:
    """Draw h_i i.i.d. complex Gaussian, zero mean, unit variance (E|h|^2 = 1)."""
    _whole("n_s", n_s, 1)
    rng = np.random.default_rng(rng)
    scale = math.sqrt(0.5)
    re = scale * rng.standard_normal(n_s)
    im = scale * rng.standard_normal(n_s)
    a = np.hypot(re, im)
    return ChannelRealization(a=a, phi=np.arctan2(im, re))  # ChannelRealization reduces phi


def epsilon_region_contains(
    channel: ChannelRealization, theta, P: float, eps: float
) -> bool:
    """True iff magnitude(theta) > optimal_magnitude - eps (strict), a Python bool
    whatever the types of ``P`` and ``eps``."""
    _positive("eps", eps)
    return bool(magnitude(channel, theta, P) > optimal_magnitude(channel, P) - eps)
