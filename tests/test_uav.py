import numpy as np
import pytest

from airs import uav
from conftest import record

MODEL = record(uav.EnergyModel, "uav")
BOUNDS = uav.FlightBounds(0.0, 620.0, 0.0, 620.0, 80.0, 120.0)


# -- kinematics -----------------------------------------------------------------


def test_zero_action_is_identity():
    position = np.array([100.0, 100.0, 90.0])
    after, violated = uav.apply_action(position, np.zeros(3), BOUNDS)
    assert np.array_equal(after, position)
    assert violated is False


def test_descent_below_floor_clamps_and_flags():
    position = np.array([100.0, 100.0, 81.0])
    after, violated = uav.apply_action(position, np.array([0.0, 0.0, -5.0]), BOUNDS)
    assert after[2] == 80.0
    assert violated is True


def test_random_bounded_actions_never_escape(rng):
    position = np.array([300.0, 300.0, 100.0])
    for _ in range(10_000):
        action = uav.scale_action(rng.uniform(-1, 1, 3), 30.0)
        position, _ = uav.apply_action(position, action, BOUNDS)
        x, y, z = position
        assert BOUNDS.x_min <= x <= BOUNDS.x_max
        assert BOUNDS.y_min <= y <= BOUNDS.y_max
        assert BOUNDS.z_min <= z <= BOUNDS.z_max


def test_in_bounds_actions_sum_exactly(rng):
    position = np.array([300.0, 300.0, 100.0])
    total = position.copy()
    for _ in range(100):
        action = rng.uniform(-0.5, 0.5, 3)
        position, violated = uav.apply_action(position, action, BOUNDS)
        total = total + action
        assert violated is False
    assert np.array_equal(position, total)


def test_scale_action_caps_euclidean_norm(rng):
    for _ in range(1000):
        raw = rng.uniform(-3, 3, 3)
        scaled = uav.scale_action(raw, 30.0)
        assert np.linalg.norm(scaled) <= 30.0 + 1e-12
    full = uav.scale_action(np.ones(3), 30.0)
    assert np.linalg.norm(full) == pytest.approx(30.0)


# -- energy ----------------------------------------------------------------------


def test_hover_energy_closed_form():
    energy = uav.propulsion_energy(MODEL, np.zeros(3), 1.0)
    assert abs(energy - 288.06) < 1e-9


def test_unit_climb_energy_closed_form():
    energy = uav.propulsion_energy(MODEL, np.array([0.0, 0.0, 1.0]), 1.0)
    assert abs(energy - 307.66) < 1e-9  # hover + m*g*1


def test_descent_costs_like_climb():
    up = uav.propulsion_energy(MODEL, np.array([0.0, 0.0, 2.0]), 1.0)
    down = uav.propulsion_energy(MODEL, np.array([0.0, 0.0, -2.0]), 1.0)
    assert up == down


def test_energy_scan_has_interior_minimum():
    speeds = np.arange(0.0, 30.0 + 1e-9, 0.01)
    powers = np.array([uav.power_at(MODEL, v) for v in speeds])
    best = int(np.argmin(powers))
    assert 0 < best < len(speeds) - 1
    assert powers[best] < powers[0]  # cheaper than hover


def test_energy_strictly_increasing_in_vertical_speed():
    for v_h in (0.0, 3.0, 12.0):
        values = [uav.power_at(MODEL, v_h, v_v) for v_v in np.linspace(0, 10, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_power_at_zero_equals_hover_components():
    assert uav.power_at(MODEL, 0.0, 0.0) == pytest.approx(
        MODEL.blade_power_w + MODEL.induced_power_w
    )


# -- distances --------------------------------------------------------------------


def test_distance_triangle_inequality(rng):
    for _ in range(500):
        a, b, c = rng.uniform(-100, 100, size=(3, 3))
        assert uav.distance(a, b) <= uav.distance(a, c) + uav.distance(c, b) + 1e-9


def test_distance_basic():
    assert uav.distance((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0)


def test_distance_is_the_blas_norm(rng):
    """Bit-equal to np.linalg.norm, the square root of the BLAS dot product.

    A Python sum of squares agrees with the dot product on most BLAS kernels,
    so this test fails for one only on hosts whose kernel fuses the
    multiply-adds (OpenBLAS SkylakeX).
    """
    for _ in range(2000):
        a, b = rng.uniform(-700.0, 700.0, size=(2, 3))
        expected = np.linalg.norm(a - b)
        assert uav.distance(a, b) == expected
        assert uav.distance(tuple(a.tolist()), tuple(b.tolist())) == expected
