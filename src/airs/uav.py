"""Rotary-wing flight: per-slot displacement kinematics and propulsion energy.

A slot's displacement action (ax, ay, az) in meters sets the horizontal and
vertical speeds v_h = sqrt(ax^2 + ay^2)/dt and v_v = |az|/dt.  Propulsion
power is the sum of a blade-profile term growing with v_h^2, an induced term
decaying with v_h, a parasite term growing with v_h^3, and climb power
m*g*v_v; multiplied by the slot duration it gives the slot energy:

    E = (P_B*(1 + 3 v_h^2 / U_tip^2)
         + P_I*(sqrt(1 + v_h^4/(4 v_0^4)) - v_h^2/(2 v_0^2))^(1/2)
         + 0.5*d_0*rho*s*G*v_h^3 + m*g*v_v) * dt

Positions and displacements are (x, y, z) tuples of Python floats: a slot
handles a few 3-vectors, for which numpy's call overhead outweighs the
arithmetic, and each float operation rounds as numpy's elementwise one does.
`distance` alone goes through numpy, for its BLAS dot product: some BLAS
kernels (OpenBLAS SkylakeX) fuse its multiply-adds, so a Python sum of
squares would round differently there.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnergyModel:
    blade_power_w: float
    induced_power_w: float
    tip_speed_ms: float
    hover_induced_velocity_ms: float
    drag_ratio: float
    rotor_solidity: float
    air_density_kg_m3: float
    disc_area_m2: float
    mass_kg: float
    gravity_ms2: float


@dataclass(frozen=True)
class FlightBounds:
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float


def scale_action(raw, d_max: float) -> tuple:
    """Map a raw [-1, 1]^3 command to a displacement with 2-norm <= d_max.

    Components are clipped then scaled by d_max/sqrt(3), which caps the
    infinity norm and therefore the Euclidean norm at d_max.  A nan
    component stays nan.
    """
    scale = d_max / math.sqrt(3.0)
    return tuple([min(max(r, -1.0), 1.0) * scale for r in raw])


def apply_action(position, action, bounds: FlightBounds):
    """Displace the craft at `position` (x, y, z) by `action`, clamping to the
    flight envelope.

    Returns (new_position, violated): the new position as a tuple, and whether
    the target left the envelope.  Leaving it clamps the position to the
    boundary and flags the slot instead of ending the episode.
    """
    x, y, z = position
    dx, dy, dz = action
    target = (x + dx, y + dy, z + dz)
    clamped = (
        min(max(target[0], bounds.x_min), bounds.x_max),
        min(max(target[1], bounds.y_min), bounds.y_max),
        min(max(target[2], bounds.z_min), bounds.z_max),
    )
    # Elementwise, so a nan target counts as violated; tuple != would take
    # the identical nan objects for equal.
    violated = any(c != t for c, t in zip(clamped, target))
    return clamped, violated


def propulsion_energy(model: EnergyModel, action, dt: float) -> float:
    """Slot energy in joules for a displacement flown over dt > 0 seconds."""
    dx, dy, dz = action
    v_h = math.hypot(dx, dy) / dt
    v_v = abs(dz) / dt
    return power_at(model, v_h, v_v) * dt


def power_at(model: EnergyModel, v_h: float, v_v: float = 0.0) -> float:
    """Instantaneous propulsion power in watts at the given velocities."""
    blade = model.blade_power_w * (1.0 + 3.0 * v_h**2 / model.tip_speed_ms**2)
    v0 = model.hover_induced_velocity_ms
    # The bracket is mathematically >= 0; clip guards against cancellation
    # at extreme speeds.
    bracket = math.sqrt(1.0 + v_h**4 / (4.0 * v0**4)) - v_h**2 / (2.0 * v0**2)
    induced = model.induced_power_w * math.sqrt(max(bracket, 0.0))
    parasite = (
        0.5
        * model.drag_ratio
        * model.air_density_kg_m3
        * model.rotor_solidity
        * model.disc_area_m2
        * v_h**3
    )
    climb = model.mass_kg * model.gravity_ms2 * v_v
    return blade + induced + parasite + climb


def distance(a, b) -> float:
    """Euclidean distance between two 3-D points."""
    (ax, ay, az), (bx, by, bz) = a, b
    delta = np.array((ax - bx, ay - by, az - bz), dtype=float)
    # What np.linalg.norm computes for a vector, without its dispatch.
    return math.sqrt(delta.dot(delta))
