"""Radio channel between relay head, reflecting surface, and ground users.

Distance-dependent loss follows a log-distance law in dB,
``loss(d) = ref_loss_db + 10 * exponent * log10(d / ref_distance)``,
applied to channel vectors as a linear field amplitude ``10**(-loss/20)``.
Each hop is a Rician mix of a deterministic plane-wave component, set by the
azimuth/elevation of the hop as seen from the surface, and an i.i.d. complex
Gaussian scatter term.  The surface applies one programmable phase per
element; `optimal_phases` picks the per-element phases that make every term
of the cascaded two-hop gain add coherently.
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
    """Planar array of rows x cols elements spaced `element_spacing` apart."""

    rows: int
    cols: int
    element_spacing: float
    wavelength: float

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ChannelError("array needs at least one row and one column")
        if self.element_spacing <= 0 or self.wavelength <= 0:
            raise ChannelError("element spacing and wavelength must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @cached_property
    def element_indices(self):
        """(row, col) pairs in row-major element order, zero based (read-only)."""
        m_r, m_c = np.divmod(np.arange(self.size), self.cols)
        m_r.flags.writeable = m_c.flags.writeable = False
        return m_r, m_c

    def phase_profile(self, azimuth: float, elevation: float) -> np.ndarray:
        """Per-element plane-wave phase for a direction given at the array."""
        m_r, m_c = self.element_indices
        scale = TWO_PI * self.element_spacing / self.wavelength
        return scale * (
            m_c * math.sin(azimuth) * math.cos(elevation) + m_r * math.sin(elevation)
        )


@dataclass(frozen=True)
class PathLossModel:
    ref_distance: float = 1.0
    ref_loss_db: float = 30.0
    exponent: float = 2.2

    def __post_init__(self):
        if self.ref_distance <= 0:
            raise ChannelError("reference distance must be positive")
        if self.exponent <= 0:
            raise ChannelError("path loss exponent must be positive")


@dataclass(frozen=True)
class LinkBudget:
    tx_power: float
    noise_psd: float
    bandwidth: float

    def __post_init__(self):
        if min(self.tx_power, self.noise_psd, self.bandwidth) <= 0:
            raise ChannelError("tx power, noise PSD and bandwidth must be positive")


@dataclass(frozen=True)
class PhaseShifts:
    """Per-element reflection phases, each wrapped into [-pi, pi)."""

    omega: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        object.__setattr__(self, "omega", omega)
        if omega.ndim != 1:
            raise ChannelError("phase vector must be one-dimensional")
        if np.any(omega < -math.pi) or np.any(omega >= math.pi):
            raise ChannelError("phases must lie in [-pi, pi)")

    def reflection(self) -> np.ndarray:
        return np.exp(1j * self.omega)


def wrap_phase(x):
    """Map angles into [-pi, pi)."""
    return (np.asarray(x, dtype=float) + math.pi) % TWO_PI - math.pi


def path_loss_db(model: PathLossModel, d: float) -> float:
    """Log-distance loss in dB at range d (meters)."""
    if d <= 0:
        raise ChannelError(f"distance must be positive, got {d}")
    return model.ref_loss_db + 10.0 * model.exponent * math.log10(d / model.ref_distance)


def amplitude_from_db(loss_db: float) -> float:
    """Linear field amplitude corresponding to a dB power loss."""
    return 10.0 ** (-loss_db / 20.0)


def angles_between(origin, target):
    """(azimuth, elevation) of `target` as seen from `origin`.

    Azimuth is atan2(dy, dx); elevation is the angle above the horizontal
    plane.  Raises for coincident points.
    """
    delta = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    horizontal = math.hypot(delta[0], delta[1])
    if horizontal == 0.0 and delta[2] == 0.0:
        raise ChannelError("cannot compute angles between coincident points")
    return math.atan2(delta[1], delta[0]), math.atan2(delta[2], horizontal)


def los_steering(geom: IrsGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Unit-modulus array response for a plane wave at (azimuth, elevation)."""
    return np.exp(1j * geom.phase_profile(azimuth, elevation))


def sample_channel(geom, loss_db, k, azimuth, elevation, rng) -> np.ndarray:
    """One Rician channel vector: amplitude * (LoS + scatter mix).

    `k` is the power ratio of the deterministic component to the scattered
    one; `k = inf` selects the deterministic component exactly.  Scatter
    entries are circularly-symmetric complex Gaussian with unit variance.
    """
    if not (k >= 0):
        raise ChannelError(f"Rician factor must be >= 0, got {k}")
    amp = amplitude_from_db(loss_db)
    los = los_steering(geom, azimuth, elevation)
    if math.isinf(k):
        return amp * los
    nlos = (
        rng.standard_normal(geom.size) + 1j * rng.standard_normal(geom.size)
    ) / math.sqrt(2.0)
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
    return complex(np.sum(g * phases.reflection() * h))


def achievable_rate(budget: LinkBudget, g, phases: PhaseShifts, h) -> float:
    """Shannon rate in bit/s with SNR = P*|gain|^2 / (B*noise_psd)."""
    gain = cascaded_gain(g, phases, h)
    snr = budget.tx_power * abs(gain) ** 2 / (budget.bandwidth * budget.noise_psd)
    return budget.bandwidth * math.log2(1.0 + snr)


def optimal_phases(geom: IrsGeometry, su_pos, irs_pos, user_pos) -> PhaseShifts:
    """Per-element phases that align both hops for the given geometry.

    Each element's phase cancels the combined plane-wave phase it would
    accumulate on arrival (head -> surface) and departure (surface -> user),
    so all element contributions to the cascaded gain share one phase and
    their magnitudes add.  Output is wrapped into [-pi, pi).
    """
    az_in, el_in = angles_between(irs_pos, su_pos)
    az_out, el_out = angles_between(irs_pos, user_pos)
    total = geom.phase_profile(az_in, el_in) + geom.phase_profile(az_out, el_out)
    return PhaseShifts(wrap_phase(-total))


def dump_channel(vec: np.ndarray) -> list:
    """JSON-friendly [re, im] pairs, used for debugging dumps."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(vec).ravel()]
