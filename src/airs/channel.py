"""Radio channel between relay head, reflecting surface, and ground users.

Distance-dependent loss follows a log-distance law in dB,
``loss(d) = ref_loss_db + 10 * path_loss_exponent * log10(d / ref_distance)``,
applied to channel vectors as a linear field amplitude ``10**(-loss/20)``.
Each hop is a Rician mix of a deterministic plane-wave component, set by the
azimuth/elevation of the hop as seen from the surface, and an i.i.d. complex
Gaussian scatter term.  The surface applies one programmable phase per
element; `optimal_phases` picks the per-element phases that make every term
of the cascaded two-hop gain add coherently.

`hop_profile` and `sample_channel` work on a stack of K hops, (K, M) arrays
with one row per hop.  Every operation is elementwise along a row, so row k
has the bits a one-hop stack of hop k would have, and the scatter draws go
hop by hop: a stack may be cut or joined anywhere without moving a bit or
the generator's state.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi


class ChannelError(ValueError):
    """Raised for invalid geometry or mismatched channel dimensions."""


@dataclass(frozen=True)
class IrsGeometry:
    """Planar array of irs_rows x irs_cols elements spaced `element_spacing` apart."""

    irs_rows: int
    irs_cols: int
    element_spacing: float
    wavelength: float

    @property
    def size(self) -> int:
        return self.irs_rows * self.irs_cols

    @cached_property
    def element_indices(self):
        """(row, col) pairs in row-major element order, zero based, as floats
        (read-only): integer indices would be cast on every multiply."""
        m_r, m_c = np.divmod(np.arange(float(self.size)), float(self.irs_cols))
        m_r.flags.writeable = m_c.flags.writeable = False
        return m_r, m_c

    def phase_profile(self, directions) -> np.ndarray:
        """Per-element plane-wave phases (K, M), one row per (azimuth,
        elevation) pair of `directions`, each given at the array.

        Row k is scale * (m_c * sin(az) * cos(el) + m_r * sin(el)) in that
        order, with the trig from `math`, so it does not depend on the other
        rows.
        """
        m_r, m_c = self.element_indices
        scale = TWO_PI * self.element_spacing / self.wavelength
        trig = np.array([(math.sin(az), math.cos(el), math.sin(el)) for az, el in directions])
        return scale * (m_c * trig[:, 0:1] * trig[:, 1:2] + m_r * trig[:, 2:3])


@dataclass(frozen=True)
class PathLossModel:
    ref_distance: float
    ref_loss_db: float
    path_loss_exponent: float


@dataclass(frozen=True)
class LinkBudget:
    tx_power_w: float
    noise_psd_w_per_hz: float
    bandwidth_hz: float


@dataclass(frozen=True)
class PhaseShifts:
    """Per-element reflection phases, each wrapped into [-pi, pi)."""

    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if omega.ndim != 1:
            raise ChannelError("phase vector must be one-dimensional")
        if (omega < -math.pi).any() or (omega >= math.pi).any():
            raise ChannelError("phases must lie in [-pi, pi)")

    @classmethod
    def wrapped(cls, x) -> "PhaseShifts":
        """The phases `wrap_phase(x)`, without the range check that
        `wrap_phase` makes redundant: equal to `PhaseShifts(wrap_phase(x))`."""
        omega = wrap_phase(x)
        if omega.ndim != 1:
            raise ChannelError("phase vector must be one-dimensional")
        shifts = object.__new__(cls)
        object.__setattr__(shifts, "omega", omega)
        return shifts

    def reflection(self) -> np.ndarray:
        return np.exp(1j * self.omega)


def wrap_phase(x):
    """Map angles into [-pi, pi)."""
    # A tiny negative x + pi has a remainder that rounds up to 2 pi; the second
    # remainder takes that to 0 and leaves every other value as it is.
    return (np.asarray(x, dtype=float) + math.pi) % TWO_PI % TWO_PI - math.pi


def path_loss_db(model: PathLossModel, d: float) -> float:
    """Log-distance loss in dB at range d (meters)."""
    if d <= 0:
        raise ChannelError(f"distance must be positive, got {d}")
    return model.ref_loss_db + 10.0 * model.path_loss_exponent * math.log10(d / model.ref_distance)


def amplitude_from_db(loss_db: float) -> float:
    """Linear field amplitude corresponding to a dB power loss."""
    return 10.0 ** (-loss_db / 20.0)


def angles_between(origin, target):
    """(azimuth, elevation) of `target` as seen from `origin`.

    Azimuth is atan2(dy, dx); elevation is the angle above the horizontal
    plane.  Raises for coincident points.
    """
    (ox, oy, oz), (tx, ty, tz) = origin, target
    dx, dy, dz = tx - ox, ty - oy, tz - oz
    horizontal = math.hypot(dx, dy)
    if horizontal == 0.0 and dz == 0.0:
        raise ChannelError("cannot compute angles between coincident points")
    return math.atan2(dy, dx), math.atan2(dz, horizontal)


def hop_profile(geom: IrsGeometry, surface, far_ends) -> np.ndarray:
    """Per-element plane-wave phases (K, M) of the K hops between the surface
    and each point of `far_ends`, row k at the direction of `far_ends[k]` seen
    from the surface."""
    return geom.phase_profile([angles_between(surface, p) for p in far_ends])


def los_steering(profile: np.ndarray) -> np.ndarray:
    """Unit-modulus array response of a plane wave with per-element phase `profile`."""
    return np.exp(1j * profile)


def sample_channel(profiles, losses_db, k, rng) -> np.ndarray:
    """The Rician channel vectors (K, M) of K hops: row k is
    amplitude(losses_db[k]) * (LoS + scatter mix).

    `profiles` holds the hops' per-element plane-wave phases (`hop_profile`).
    `k >= 0` is the power ratio of the deterministic component to the scattered
    one; `k = inf` selects the deterministic component exactly and draws
    nothing.  Scatter entries are circularly-symmetric complex Gaussian with
    unit variance, drawn as one (K, 2, M) block: hop by hop, the real parts
    before the imaginary ones, so the stream is consumed as K one-hop calls
    would consume it, and each row is what a one-hop call would return.
    """
    amp = np.array([(amplitude_from_db(loss),) for loss in losses_db])
    los = los_steering(profiles)
    if math.isinf(k):
        return amp * los
    draws = rng.standard_normal((len(profiles), 2, profiles.shape[1]))
    nlos = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2.0)
    return amp * (
        math.sqrt(k / (1.0 + k)) * los + math.sqrt(1.0 / (1.0 + k)) * nlos
    )


def cascaded_gain(g: np.ndarray, phases: PhaseShifts, h: np.ndarray) -> complex:
    """Two-hop gain sum(g_i * exp(j*omega_i) * h_i)."""
    g = np.asarray(g)
    h = np.asarray(h)
    if g.shape != h.shape or g.shape != phases.omega.shape:
        raise ChannelError(
            f"dimension mismatch: g {g.shape}, h {h.shape}, omega {phases.omega.shape}"
        )
    return complex((g * phases.reflection() * h).sum())


def achievable_rate(budget: LinkBudget, g, phases: PhaseShifts, h) -> float:
    """Shannon rate in bit/s with SNR = P*|gain|^2 / (B*noise_psd)."""
    gain = cascaded_gain(g, phases, h)
    snr = budget.tx_power_w * abs(gain) ** 2 / (budget.bandwidth_hz * budget.noise_psd_w_per_hz)
    return budget.bandwidth_hz * math.log2(1.0 + snr)


def optimal_phases(profile_in, profile_out) -> PhaseShifts:
    """Per-element phases that align both hops.

    `profile_in` and `profile_out` are the `hop_profile` rows towards the
    head and towards the user.  Each element's phase cancels the combined
    plane-wave phase it would accumulate on arrival (head -> surface) and
    departure (surface -> user), so all element contributions to the
    cascaded gain share one phase and their magnitudes add.  Output is
    wrapped into [-pi, pi).
    """
    return PhaseShifts.wrapped(-(profile_in + profile_out))
