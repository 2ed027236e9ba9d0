import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from distbeam import (
    TWO_PI,
    ChannelRealization,
    PerturbationSpec,
    PowerConfig,
    SearchState,
    StopRule,
    canonical_phases,
    epsilon_region_contains,
    estimate_improvement_probability,
    generate_channel,
    magnitude,
    magnitude_batch,
    measure_magnitude,
    one_bit_step,
    optimal_magnitude,
    run_trajectory,
)
from distbeam.channel import coherent_magnitude, magnitude_into


@st.composite
def channels(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    amps = [draw(st.floats(min_value=0.1, max_value=10.0))]
    amps += draw(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=n - 1, max_size=n - 1))
    phases = draw(st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=n, max_size=n))
    return ChannelRealization(a=np.array(amps), phi=np.array(phases))


def phase_vectors(n):
    return st.lists(
        st.floats(min_value=-10.0, max_value=10.0), min_size=n, max_size=n
    ).map(np.array)


def test_single_transmitter_unit_gain():
    ch = ChannelRealization(a=[1.0], phi=[0.0])
    assert magnitude(ch, [0.0], 1.0) == pytest.approx(1.0, abs=0)


def test_antipodal_cancellation():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    assert magnitude(ch, [0.0, math.pi], 1.0) == pytest.approx(0.0, abs=1e-12)


def test_two_transmitters_by_hand():
    # |2 e^{j0} + 1 e^{j pi/2}| = |2 + j| = sqrt(5), times sqrt(P)=2
    ch = ChannelRealization(a=[2.0, 1.0], phi=[0.0, 0.0])
    assert magnitude(ch, [0.0, math.pi / 2], 4.0) == pytest.approx(
        2.0 * math.sqrt(5.0), rel=1e-15
    )


@given(channels(), st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_common_phase_value_hits_optimum(ch, common, P):
    theta = np.full(ch.n_s, common)
    assert magnitude(ch, theta, P) == pytest.approx(optimal_magnitude(ch, P), rel=1e-12)


@pytest.mark.parametrize(
    "amps,P,expected",
    [([1.0, 1.0, 1.0], 1.0, 3.0), ([0.5, 2.5], 4.0, 6.0)],
)
def test_optimal_magnitude_values(amps, P, expected):
    ch = ChannelRealization(a=amps, phi=np.zeros(len(amps)))
    assert optimal_magnitude(ch, P) == pytest.approx(expected, rel=1e-15)


def test_optimal_is_upper_bound_on_grid():
    # independent oracle: exhaustive grid evaluation via complex arithmetic
    rng = np.random.default_rng(11)
    for _ in range(3):
        ch = generate_channel(3, rng)
        P = 2.5
        opt = optimal_magnitude(ch, P)
        axis = np.linspace(0.0, TWO_PI, 60, endpoint=False)
        g1, g2, g3 = np.meshgrid(axis, axis, axis, indexing="ij")
        total = (
            ch.a[0] * np.exp(1j * g1)
            + ch.a[1] * np.exp(1j * g2)
            + ch.a[2] * np.exp(1j * g3)
        )
        grid_mags = math.sqrt(P) * np.abs(total)
        assert grid_mags.max() <= opt * (1 + 1e-12)


@given(channels(), st.data())
@settings(max_examples=60, deadline=None)
def test_global_bound(ch, data):
    theta = data.draw(phase_vectors(ch.n_s))
    m = magnitude(ch, theta, 3.0)
    assert 0.0 <= m <= optimal_magnitude(ch, 3.0) * (1 + 1e-12)


@given(channels(), st.data(), st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_shift_invariance(ch, data, shift):
    theta = data.draw(phase_vectors(ch.n_s))
    base = magnitude(ch, theta, 1.0)
    shifted = magnitude(ch, canonical_phases(theta + shift), 1.0)
    assert abs(shifted - base) <= 1e-12 * optimal_magnitude(ch, 1.0)


@given(channels(), st.data(), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_power_scaling(ch, data, c):
    theta = data.draw(phase_vectors(ch.n_s))
    scaled = magnitude(ch, theta, c * c * 1.7)
    assert scaled == pytest.approx(c * magnitude(ch, theta, 1.7), rel=1e-12)


def test_tightness_aligned_iff_equal():
    ch = ChannelRealization(a=[1.0, 0.7, 2.0], phi=np.zeros(3))
    opt = optimal_magnitude(ch, 1.0)
    aligned = magnitude(ch, np.full(3, 1.234), 1.0)
    assert aligned == pytest.approx(opt, rel=1e-12)
    off = magnitude(ch, np.array([1.234, 1.234, 1.234 + 1e-3]), 1.0)
    assert off < opt
    # wrap-equal phases still count as aligned
    wrapped = magnitude(ch, np.array([0.5, 0.5 + TWO_PI, 0.5]) % TWO_PI, 1.0)
    assert wrapped == pytest.approx(opt, rel=1e-12)


def test_dimension_mismatch_rejected():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    with pytest.raises(ValueError, match="length"):
        magnitude(ch, [0.0], 1.0)


def test_invalid_channels_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        ChannelRealization(a=[-0.1, 1.0], phi=[0.0, 0.0])
    with pytest.raises(ValueError, match="all-zero"):
        ChannelRealization(a=[0.0, 0.0], phi=[0.0, 0.0])
    with pytest.raises(ValueError, match="mismatch"):
        ChannelRealization(a=[1.0, 1.0], phi=[0.0])
    # refused before the float cast, which would drop the imaginary part or raise TypeError
    for a, phi in ((np.array([1 + 1j, 1]), [0, 0]), ([1 + 1j, 1.0], [0.0, 0.0]),
                   ([1.0, 1.0], np.array([0.5j, 0])), ([1.0, 1.0], [0.5j, 0.0])):
        with pytest.raises(ValueError, match="^channel gains must be real$"):
            ChannelRealization(a=a, phi=phi)
    # zero-gain transmitters are fine as long as one amplitude is positive
    ch = ChannelRealization(a=[0.0, 1.0], phi=[1.0, 2.0])
    assert optimal_magnitude(ch, 1.0) == pytest.approx(1.0)


def test_power_config_validation():
    with pytest.raises(ValueError):
        PowerConfig(P=0.0)
    with pytest.raises(ValueError):
        PowerConfig(sigma2=-1.0)
    with pytest.raises(ValueError):
        PowerConfig(averaging_slots=0)
    # a non-integral slot count is refused by name, before any search steps on it
    for bad in (1.5, 2.0, "3", True):
        with pytest.raises(ValueError, match=r"^averaging_slots must be an integer >= 1"):
            PowerConfig(sigma2=0.01, averaging_slots=bad)
    PowerConfig(sigma2=0.01, averaging_slots=np.int64(3))  # NumPy ints pass
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="P must"):
            PowerConfig(P=bad)
        with pytest.raises(ValueError, match="sigma2 must"):
            PowerConfig(sigma2=bad)
    # a complex sigma2 is refused, not cast to its real part as the noise is scaled
    for bad in (np.complex128(0.01), 0.01 + 0j):
        with pytest.raises(ValueError, match="^sigma2 must be nonnegative and finite$"):
            PowerConfig(sigma2=bad)
    with pytest.raises(ValueError):
        magnitude(ChannelRealization(a=[1.0], phi=[0.0]), [0.0], P=0.0)


@pytest.mark.parametrize("P", [1.0, 2.5])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("shape", [(), (5,), (3, 4)], ids=["0d", "1d", "2d"])
def test_coherent_magnitude_noisy_matches_the_slot_formula(shape, k, P):
    rng = np.random.default_rng(len(shape) + 10 * k)
    total = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = rng.standard_normal(shape + (2, k))
    s = math.sqrt(0.03 / 2.0)
    # the slot average written out: sqrt(P) total plus slot noise of variance 0.03
    expected = np.hypot(
        math.sqrt(P) * total.real[..., None] + s * n[..., 0, :],
        math.sqrt(P) * total.imag[..., None] + s * n[..., 1, :],
    ).mean(-1)
    got = coherent_magnitude(total, P, s * n)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    if shape:  # a strided view, as the search kernel passes one step of its noise chunk
        chunk = np.zeros(shape[:1] + (3,) + shape[1:] + (2, k))
        chunk[:, 1] = s * n
        assert np.array_equal(coherent_magnitude(total, P, chunk[:, 1]), expected)
    # bound to a sums buffer, as the search kernel binds it, the formula refills
    # one array on every call from the sums as they are then, noiseless and
    # noisy, and gives coherent_magnitude's bits; a 0-d buffer too is written in place
    sums = np.array(total)
    wide = np.zeros(shape + (2, 2 * k))
    wide[..., ::2] = s * n  # a strided view of the slot noise
    for slots, noises in ((0, [None]), (k, [s * n, wide[..., ::2]])):
        measure = magnitude_into(sums, P, slots)
        first = measure(noises[0])
        assert first.shape == shape
        for z in (total, 2.0 * total - 1j):
            sums[...] = z
            for noise in noises:
                got = measure(noise)
                assert got is first
                assert np.array_equal(got, coherent_magnitude(z, P, noise))


def test_channel_phases_stored_canonically():
    ch = ChannelRealization(a=[1.0], phi=[7.0])
    assert 0.0 <= ch.phi[0] < TWO_PI
    assert ch.phi[0] == pytest.approx(7.0 - TWO_PI)


def test_canonical_phases_edges():
    out = canonical_phases(np.array([-1e-19, 0.0, TWO_PI, -0.5, 13.0]))
    assert np.all(out >= 0.0) and np.all(out < TWO_PI)
    assert out[1] == 0.0
    assert out[2] == 0.0


def test_canonical_phases_refuses_complex_input():
    # refused before the float cast, which would keep only the real parts
    for bad in (np.array([1j, 2.0]), [1j, 2.0], 1j, np.complex128(0.5)):
        with pytest.raises(ValueError, match="^theta must be real$"):
            canonical_phases(bad)


def test_canonical_phases_of_a_scalar_is_a_0d_array():
    for x, expected in ((3.0, 3.0), (np.float64(-1.0), TWO_PI - 1.0), (-50, 8 * TWO_PI - 50.0)):
        out = canonical_phases(x)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert 0.0 <= out < TWO_PI and out == pytest.approx(expected, abs=1e-12)


_PHASE_EDGES = [-0.0, 0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0), 2 * TWO_PI,
                np.nextafter(2 * TWO_PI, 0.0), np.nextafter(-TWO_PI, -1.0), -1.5 * TWO_PI,
                3 * TWO_PI, 50.0, -50.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
_phase_values = st.one_of(
    st.floats(min_value=-TWO_PI, max_value=2 * TWO_PI, exclude_min=True, exclude_max=True),
    st.floats(min_value=-1e-15, max_value=0.0, exclude_max=True),
    st.floats(min_value=-100.0, max_value=100.0),
    st.sampled_from(_PHASE_EDGES),
)


def _remainder_with_snap(x):
    ref = np.array(np.remainder(np.asarray(x, dtype=float), TWO_PI))
    ref[ref >= TWO_PI] = 0.0
    return ref


@given(st.data(), st.sampled_from([(), (0,), (1,), (7,), (2, 3, 4)]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_canonical_phases_is_remainder_bit_for_bit(data, shape, strided):
    x = np.array(data.draw(st.lists(_phase_values, min_size=math.prod(shape),
                                    max_size=math.prod(shape))), dtype=float).reshape(shape)
    if strided:  # a non-contiguous view of the same values
        x = np.stack([x, np.ones_like(x)], axis=-1)[..., 0]
    before = x.copy()
    with np.errstate(invalid="ignore"):  # remainder of an infinity is NaN
        out, expected = canonical_phases(x), _remainder_with_snap(x)
    assert out.dtype == np.float64 and out.shape == shape
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert np.array_equal(x.view(np.int64), before.view(np.int64))  # the input is left as it was
    assert not np.shares_memory(out, x)


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=8))
@settings(max_examples=60, deadline=None)
def test_canonical_phases_of_integers_is_remainder_bit_for_bit(values):
    x = np.array(values, dtype=np.int64)
    out = canonical_phases(x)
    assert np.array_equal(out.view(np.int64), _remainder_with_snap(x).view(np.int64))


def test_measure_noiseless_is_bit_identical():
    rng = np.random.default_rng(5)
    ch = generate_channel(8, rng)
    theta = rng.uniform(0, TWO_PI, 8)
    power = PowerConfig(P=2.0, sigma2=0.0)
    assert measure_magnitude(ch, theta, power, rng) == magnitude(ch, theta, 2.0)


def test_measure_is_reproducible():
    ch = ChannelRealization(a=[1.0, 0.5], phi=[0.2, 1.1])
    power = PowerConfig(P=1.0, sigma2=0.3, averaging_slots=16)
    first = measure_magnitude(ch, [0.1, 0.4], power, np.random.default_rng(42))
    second = measure_magnitude(ch, [0.1, 0.4], power, np.random.default_rng(42))
    assert first == second


def test_measure_matches_rice_mean():
    # the K-slot average estimates E|s + w|, the mean of a Rice distribution
    ch = ChannelRealization(a=[1.2, 0.8], phi=[0.0, 0.0])
    theta = np.array([0.3, 1.0])
    sigma2 = 0.01
    noiseless = magnitude(ch, theta, 1.0)
    sigma = math.sqrt(sigma2 / 2.0)
    rice_mean = stats.rice.mean(b=noiseless / sigma, scale=sigma)
    rice_std = stats.rice.std(b=noiseless / sigma, scale=sigma)
    k = 10**6
    power = PowerConfig(P=1.0, sigma2=sigma2, averaging_slots=k)
    est = measure_magnitude(ch, theta, power, np.random.default_rng(7))
    assert est >= noiseless
    assert abs(est - rice_mean) < 4 * rice_std / math.sqrt(k)


def test_generate_channel_unit_average_power():
    rng = np.random.default_rng(101)
    sq = np.concatenate([generate_channel(50, rng).a ** 2 for _ in range(200)])
    assert sq.mean() == pytest.approx(1.0, abs=0.05)


def test_generate_channel_single_element():
    ch = generate_channel(1, np.random.default_rng(0))
    assert ch.n_s == 1 and ch.a[0] > 0


def test_generate_channel_phases_uniform():
    rng = np.random.default_rng(33)
    phases = np.concatenate([generate_channel(50, rng).phi for _ in range(200)])
    stat = stats.kstest(phases / TWO_PI, "uniform")
    assert stat.pvalue > 0.01


def test_generate_channel_rejects_bad_n():
    for n_s in (0, 2.5, True, np.float64(3.0)):
        message = f"n_s must be an integer >= 1, got {n_s!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_channel(n_s)


def test_epsilon_region():
    ch = ChannelRealization(a=[1.0, 1.0], phi=[0.0, 0.0])
    assert epsilon_region_contains(ch, [0.7, 0.7], 1.0, 1e-9)
    assert not epsilon_region_contains(ch, [0.0, math.pi], 1.0, 1.0)
    # 2 cos(0.05) ~ 1.9975 beats 2 - 0.01
    assert 2 * math.cos(0.05) > 2.0 - 0.01
    assert epsilon_region_contains(ch, [0.0, 0.1], 1.0, 0.01)
    with pytest.raises(ValueError):
        epsilon_region_contains(ch, [0.0, 0.0], 1.0, 0.0)


def test_magnitude_batch_matches_rowwise():
    rng = np.random.default_rng(17)
    ch = generate_channel(12, rng)
    thetas = rng.uniform(0, TWO_PI, (40, 12))
    batch = magnitude_batch(ch, thetas, 3.0)
    rows = np.array([magnitude(ch, t, 3.0) for t in thetas])
    assert np.array_equal(batch, rows)


_CH3 = ChannelRealization(a=[1.0, 2.0, 0.5], phi=[0.3, 1.1, 2.0])
_THETA3 = np.array([0.1, 0.2, 0.3])
# each public function that takes P, eps or a phase vector, called with one bad value
_TAKES = {
    "P": {
        "magnitude": lambda P: magnitude(_CH3, _THETA3, P),
        "magnitude_batch": lambda P: magnitude_batch(_CH3, _THETA3[None], P),
        "optimal_magnitude": lambda P: optimal_magnitude(_CH3, P),
        "epsilon_region_contains": lambda P: epsilon_region_contains(_CH3, _THETA3, P, 0.1),
    },
    "eps": {
        "StopRule": lambda eps: StopRule(5, eps=eps),
        "epsilon_region_contains": lambda eps: epsilon_region_contains(_CH3, _THETA3, 1.0, eps),
    },
    "theta": {
        "magnitude": lambda theta: magnitude(_CH3, theta),
        "magnitude_batch": lambda theta: magnitude_batch(_CH3, [theta]),  # as its one row
        "measure_magnitude": lambda theta: measure_magnitude(_CH3, theta, PowerConfig()),
        "run_trajectory": lambda theta: run_trajectory(
            _CH3, PerturbationSpec(0.1), PowerConfig(), theta, StopRule(5), seed=0),
        "estimate_improvement_probability": lambda theta: estimate_improvement_probability(
            _CH3, theta, 1.0, math.pi / 30, eps=0.1, samples=10, rng=0),
        "one_bit_step": lambda theta: one_bit_step(
            SearchState(theta, 1.0, 0), _CH3, PerturbationSpec(0.1), PowerConfig(), 0),
    },
}
_BAD = {
    "P": [("inf", math.inf, "^P must be positive"), ("nan", math.nan, "^P must be positive"),
          ("0", 0.0, "^P must be positive"), ("-1", -1.0, "^P must be positive")],
    "eps": [("inf", math.inf, "^eps must be positive"), ("0", 0.0, "^eps must be positive")],
    "theta": [
        ("complex-array", np.array([1j, 0, 0]), "^theta must be real$"),
        ("complex-list", [1j, 0.0, 0.0], "^theta must be real$"),
        ("short", [0.0, 0.0], "^theta has length 2, channel has 3 transmitters$"),
        ("extra-axis", [[0.0, 0.0, 0.0]], "^theta has [23] axes, not [12]$"),
    ],
}


def _refusals():
    for kind, calls in _TAKES.items():
        for name, call in calls.items():
            for bad, value, message in _BAD[kind]:
                yield pytest.param(call, value, message, id=f"{name}-{kind}-{bad}")


@pytest.mark.parametrize("call,value,message", _refusals())
def test_library_refuses_bad_input_naming_it(call, value, message):
    with pytest.raises(ValueError, match=message):
        call(value)
