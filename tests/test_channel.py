import cmath
import math

import numpy as np
import pytest

from airs import channel as ch
from conftest import record

GEOM = ch.IrsGeometry(irs_rows=4, irs_cols=4, element_spacing=0.005, wavelength=0.01)


def pure_los_pair(rng, geom=GEOM):
    """Random geometry-consistent pure-LoS hop vectors plus their positions."""
    su = rng.uniform([-300, -300, 5], [300, 300, 50])
    irs = rng.uniform([0, 0, 60], [600, 600, 140])
    user = rng.uniform([0, 0, 0], [600, 600, 2])
    model = record(ch.PathLossModel, "channel")
    g, h = ch.sample_channel(
        ch.hop_profile(geom, irs, (su, user)),
        (ch.path_loss_db(model, float(np.linalg.norm(su - irs))),
         ch.path_loss_db(model, float(np.linalg.norm(user - irs)))),
        float("inf"),
        None,
    )
    return su, irs, user, g, h


def aligned_phases(su, irs, user, geom=GEOM):
    return ch.optimal_phases(*ch.hop_profile(geom, irs, (su, user)))


# -- path loss -----------------------------------------------------------------


def test_path_loss_at_reference_distance():
    model = ch.PathLossModel(ref_distance=1.0, ref_loss_db=30.0, path_loss_exponent=2.2)
    assert ch.path_loss_db(model, 1.0) == pytest.approx(30.0)


def test_path_loss_hand_value():
    model = ch.PathLossModel(ref_distance=1.0, ref_loss_db=30.0, path_loss_exponent=2.2)
    # 30 + 10 * 2.2 * log10(10) = 52
    assert ch.path_loss_db(model, 10.0) == pytest.approx(52.0, abs=1e-12)


def test_path_loss_reference_for_any_exponent():
    for exponent in (0.5, 2.0, 3.7):
        model = ch.PathLossModel(ref_distance=2.5, ref_loss_db=41.0,
                                  path_loss_exponent=exponent)
        assert ch.path_loss_db(model, 2.5) == pytest.approx(41.0)


def test_path_loss_rejects_nonpositive_distance():
    model = record(ch.PathLossModel, "channel")
    with pytest.raises(ch.ChannelError):
        ch.path_loss_db(model, 0.0)
    with pytest.raises(ch.ChannelError):
        ch.path_loss_db(model, -3.0)


# -- steering vectors -----------------------------------------------------------


def test_steering_reference_element_is_unity():
    vec = ch.los_steering(GEOM.phase_profile([(0.7, -0.3)])[0])
    assert vec[0] == pytest.approx(1.0 + 0.0j)


def test_steering_unit_modulus():
    vec = ch.los_steering(GEOM.phase_profile([(1.1, 0.4)])[0])
    assert np.max(np.abs(np.abs(vec) - 1.0)) < 1e-12


def test_steering_matches_per_element_formula():
    geom = ch.IrsGeometry(irs_rows=2, irs_cols=2, element_spacing=0.005, wavelength=0.01)
    az = el = math.pi / 6
    vec = ch.los_steering(geom.phase_profile([(az, el)])[0])
    scale = 2.0 * math.pi * geom.element_spacing / geom.wavelength
    for m_r in range(2):
        for m_c in range(2):
            expected = cmath.exp(
                1j * scale * (m_c * math.sin(az) * math.cos(el) + m_r * math.sin(el))
            )
            assert vec[m_r * 2 + m_c] == pytest.approx(expected, abs=1e-14)


def test_steering_conjugate_under_angle_negation(rng):
    for _ in range(25):
        az, el = rng.uniform(-math.pi, math.pi, size=2)
        a = ch.los_steering(GEOM.phase_profile([(az, el)])[0])
        b = ch.los_steering(GEOM.phase_profile([(-az, -el)])[0])
        assert np.allclose(b, np.conj(a), atol=1e-12)


# -- channel sampling -------------------------------------------------------------


def test_sample_pure_los_is_exact():
    profile = GEOM.phase_profile([(0.3, 0.2)])
    vec = ch.sample_channel(profile, (60.0,), float("inf"), None)
    expected = ch.amplitude_from_db(60.0) * ch.los_steering(profile)
    assert np.array_equal(vec, expected)


def test_sample_k0_variance_matches_amplitude(rng):
    amp = ch.amplitude_from_db(20.0)
    profile = GEOM.phase_profile([(0.5, 0.1)])
    draws = np.stack([ch.sample_channel(profile, (20.0,), 0.0, rng) for _ in range(100_000)])
    variance = np.var(draws, axis=0).mean()
    assert abs(variance - amp**2) / amp**2 < 0.03


def test_sample_deterministic_for_fixed_seed():
    profile = GEOM.phase_profile([(0.1, 0.2)])
    a = ch.sample_channel(profile, (30.0,), 5.0, np.random.default_rng(11))
    b = ch.sample_channel(profile, (30.0,), 5.0, np.random.default_rng(11))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("geom", [GEOM, ch.IrsGeometry(3, 5, 0.005, 0.01)], ids=["4x4", "3x5"])
@pytest.mark.parametrize("k", [10.0, 0.0, math.inf], ids=["k10", "k0", "kinf"])
def test_stacked_hops_equal_one_hop_calls(geom, k):
    """A K-row `hop_profile` and `sample_channel` give, row for row, the bits
    of K one-row calls, and leave the generator in the same state, so a stack
    of hops may be cut or joined anywhere.  At k = inf nothing is drawn."""
    rng = np.random.default_rng(24)
    for n_hops in (1, 2, 3, 5):
        for seed in range(40):
            surface = tuple(rng.uniform([0, 0, 60], [600, 600, 140]).tolist())
            far_ends = [tuple(p) for p in
                        rng.uniform([-300, -300, 0], [600, 600, 50], (n_hops, 3)).tolist()]
            losses = tuple(rng.uniform(40.0, 120.0, n_hops).tolist())
            profiles = ch.hop_profile(geom, surface, far_ends)
            assert profiles.shape == (n_hops, geom.size)
            stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
            vectors = ch.sample_channel(profiles, losses, k, stacked)
            assert vectors.shape == (n_hops, geom.size)
            for row, (far_end, loss) in enumerate(zip(far_ends, losses)):
                profile = ch.hop_profile(geom, surface, [far_end])
                assert profile[0].tobytes() == profiles[row].tobytes()
                vector = ch.sample_channel(profile, (loss,), k, single)
                assert vector[0].tobytes() == vectors[row].tobytes()
            assert stacked.bit_generator.state == single.bit_generator.state
            if math.isinf(k):
                assert stacked.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_scatter_draws_hop_by_hop_real_before_imaginary():
    """Each hop's scatter is (re + j im) / sqrt(2), with re and im the next two
    blocks of M standard normals: at k = 0 and 0 dB the vector is that scatter
    exactly."""
    profiles = GEOM.phase_profile([(0.1, 0.2), (-0.7, 0.4), (1.3, -0.5)])
    vectors = ch.sample_channel(profiles, (0.0, 0.0, 0.0), 0.0, np.random.default_rng(5))
    reference = np.random.default_rng(5)
    for vector in vectors:
        re = reference.standard_normal(GEOM.size)
        im = reference.standard_normal(GEOM.size)
        assert vector.tobytes() == ((re + 1j * im) / math.sqrt(2.0)).tobytes()


@pytest.mark.parametrize("k", [1.0, 5.0, 10.0])
def test_rician_factor_recovered_from_samples(k):
    rng = np.random.default_rng(99)
    profile = GEOM.phase_profile([(0.4, -0.2)])
    draws = np.stack([ch.sample_channel(profile, (0.0,), k, rng) for _ in range(100_000)])
    mean = draws.mean(axis=0)
    scatter = draws - mean
    estimate = (np.abs(mean) ** 2 / scatter.var(axis=0)).mean()
    assert abs(estimate - k) / k < 0.05


# -- cascaded gain and rate --------------------------------------------------------


def test_cascaded_gain_single_element_identity():
    phases = ch.PhaseShifts(np.zeros(1))
    assert ch.cascaded_gain(np.ones(1), phases, np.ones(1)) == pytest.approx(1.0)


def test_cascaded_gain_zero_phases_is_inner_product(rng):
    g = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    phases = ch.PhaseShifts(np.zeros(16))
    assert ch.cascaded_gain(g, phases, h) == pytest.approx(np.sum(g * h))


def test_cascaded_gain_matches_term_by_term_oracle(rng):
    g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    omega = rng.uniform(-math.pi, math.pi, size=8)
    total = 0.0 + 0.0j
    for i in range(8):
        total += g[i] * cmath.exp(1j * omega[i]) * h[i]
    assert ch.cascaded_gain(g, ch.PhaseShifts(omega), h) == pytest.approx(total)


def test_cascaded_gain_dimension_mismatch():
    with pytest.raises(ch.ChannelError):
        ch.cascaded_gain(np.ones(4), ch.PhaseShifts(np.zeros(4)), np.ones(5))


def test_rate_zero_gain_is_zero():
    budget = ch.LinkBudget(15.0, 1e-17, 2e6)
    phases = ch.PhaseShifts(np.zeros(2))
    assert ch.achievable_rate(budget, np.zeros(2), phases, np.zeros(2)) == 0.0


def test_rate_snr_quadruples_when_gain_doubles():
    budget = ch.LinkBudget(15.0, 1e-17, 2e6)
    phases = ch.PhaseShifts(np.zeros(1))
    r1 = ch.achievable_rate(budget, np.array([1e-6]), phases, np.array([1.0]))
    r2 = ch.achievable_rate(budget, np.array([2e-6]), phases, np.array([1.0]))
    snr1 = 2 ** (r1 / budget.bandwidth_hz) - 1
    snr2 = 2 ** (r2 / budget.bandwidth_hz) - 1
    assert snr2 == pytest.approx(4.0 * snr1, rel=1e-9)


def test_rate_closed_form_at_unit_gain():
    tx_power, bandwidth, noise = 15.0, 2.0e6, 10.0 ** (-17.4)
    budget = ch.LinkBudget(tx_power, noise, bandwidth)
    phases = ch.PhaseShifts(np.zeros(1))
    rate = ch.achievable_rate(budget, np.ones(1), phases, np.ones(1))
    expected = bandwidth * math.log2(1.0 + tx_power / (bandwidth * noise))
    assert rate == pytest.approx(expected, rel=1e-12)


def test_rate_monotone_in_gain_and_power(rng):
    budget = ch.LinkBudget(15.0, 1e-17, 2e6)
    phases = ch.PhaseShifts(np.zeros(1))
    gains = np.sort(rng.uniform(0.1, 5.0, size=10))
    rates = [
        ch.achievable_rate(budget, np.array([g * 1e-6]), phases, np.ones(1))
        for g in gains
    ]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    powered = [
        ch.achievable_rate(ch.LinkBudget(p, 1e-17, 2e6), np.array([1e-6]), phases, np.ones(1))
        for p in (1.0, 5.0, 15.0, 50.0)
    ]
    assert all(a < b for a, b in zip(powered, powered[1:]))


# -- phase control -------------------------------------------------------------------


def test_optimal_phase_zero_for_reference_element(rng):
    su = np.array([-100.0, 30.0, 25.0])
    irs = np.array([200.0, 300.0, 95.0])
    user = np.array([310.0, 190.0, 0.0])
    phases = aligned_phases(su, irs, user)
    assert phases.omega[0] == pytest.approx(0.0, abs=1e-12)


def test_optimal_phases_reach_alignment_bound(rng):
    for _ in range(50):
        su, irs, user, g, h = pure_los_pair(rng)
        phases = aligned_phases(su, irs, user)
        gain = abs(ch.cascaded_gain(g, phases, h))
        bound = float(np.sum(np.abs(g) * np.abs(h)))
        assert abs(gain - bound) / bound < 1e-9


def test_optimal_phases_beat_random_settings(rng):
    su, irs, user, g, h = pure_los_pair(rng)
    phases = aligned_phases(su, irs, user)
    best = abs(ch.cascaded_gain(g, phases, h))
    for _ in range(200):
        random_phases = ch.PhaseShifts(rng.uniform(-math.pi, math.pi, GEOM.size))
        assert abs(ch.cascaded_gain(g, random_phases, h)) < best


def test_optimal_phases_in_range(rng):
    for _ in range(50):
        su, irs, user, _, _ = pure_los_pair(rng)
        omega = aligned_phases(su, irs, user).omega
        assert np.all(omega >= -math.pi) and np.all(omega < math.pi)


def test_per_element_phase_identity(rng):
    """Each aligned element contributes the same phase modulo 2*pi."""
    for _ in range(20):
        su, irs, user, g, h = pure_los_pair(rng)
        phases = aligned_phases(su, irs, user)
        terms = g * phases.reflection() * h
        angles = np.angle(terms)
        spread = np.angle(np.exp(1j * (angles - angles[0])))
        assert np.max(np.abs(spread)) < 1e-9


def test_coincident_positions_rejected():
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ch.ChannelError):
        ch.hop_profile(GEOM, p, [p])


def test_phase_wrap_range():
    # Just below -pi: one ulp below, x + pi is a tiny negative number whose
    # remainder rounds up to 2 pi; two ulps below, it does not.
    below = [np.nextafter(-math.pi, -4.0), np.nextafter(-1.0, -2.0) * math.pi]
    wrapped = ch.wrap_phase(np.array([math.pi, -math.pi, 3 * math.pi, -2.5 * math.pi, *below]))
    assert np.all(wrapped >= -math.pi) and np.all(wrapped < math.pi)
    assert wrapped[0] == pytest.approx(-math.pi)
    assert wrapped[4] == -math.pi
    ch.PhaseShifts(wrapped)
