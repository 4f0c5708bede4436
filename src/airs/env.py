"""The sequential decision process tying geometry, channel, and flight together.

One episode is a fixed number of slots.  Each slot the craft flies a bounded
displacement, every ground user advances along the roads, and the user whose
turn it is (round robin) is served through the reflecting surface.  The slot
reward is fairness * rate / energy minus an out-of-bounds penalty, and zero
whenever either hop of the relay path is occluded.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import scenario as sc
from . import uav
from .rng import STREAM_CHANNEL, STREAM_RESET, STREAM_USERS, substream


class EnvError(RuntimeError):
    pass


def jain_index(rates) -> float:
    """Fairness of an allocation: (sum r)^2 / (n * sum r^2), in [1/n, 1].

    The all-zero allocation maps to the worst case 1/n so the index is
    defined on every reachable rate vector.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.size == 0:
        raise ValueError("jain_index needs at least one rate")
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    total = rates.sum()
    if total == 0.0:
        return 1.0 / rates.size
    return float(total**2 / (rates.size * np.square(rates).sum()))


def objective_ratio(rates, energy: float) -> float:
    """Fairness-weighted sum rate per joule: jain(rates) * sum(rates) / energy."""
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    rates = np.asarray(rates, dtype=float)
    total = rates.sum()
    if total == 0.0:
        return 0.0
    return jain_index(rates) * float(total) / energy


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: int = 300
    d_max: float = 30.0
    penalty: float = 0.04
    users: int = 1
    rate_window: int | None = None  # None: running average over the episode
    observe_all_users: bool = False
    # Rate units entering the reward; 1e-6 expresses rates in Mbit/s so the
    # penalty stays commensurate with per-slot rewards.
    rate_scale: float = 1e-6

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.penalty < 0:
            raise ValueError("penalty must be >= 0")
        if self.users < 1:
            raise ValueError("need at least one user")
        if self.rate_window is not None and self.rate_window < 1:
            raise ValueError("rate_window must be >= 1 when set")


@dataclass(frozen=True)
class RewardBreakdown:
    rate: float       # served-user rate this slot, bit/s
    energy: float     # slot propulsion energy, joules
    fairness: float   # running Jain index after this slot
    penalty: float    # penalty applied this slot (0 or the configured value)
    los: bool
    reward: float


@dataclass(frozen=True)
class SlotRecord:
    episode: int
    t: int
    served_user: int
    rate_bps: float
    energy_j: float
    jain: float
    reward: float
    f_t: float
    los: bool
    violated: bool
    uav_position: tuple
    displacement: tuple


class AirsEnv:
    """Single-owner mutable environment; run several instances for parallelism."""

    def __init__(
        self,
        scenario_config: sc.ScenarioConfig,
        episode_config: EpisodeConfig,
        geometry: ch.IrsGeometry,
        loss_model: ch.PathLossModel,
        budget: ch.LinkBudget,
        energy_model: uav.EnergyModel,
        rician_k: float = 10.0,
        slot_duration: float = 1.0,
        phase_control: bool = True,
        seed: int = 0,
    ):
        if episode_config.users != len(scenario_config.user_initial_positions):
            raise ValueError(
                f"episode config declares {episode_config.users} users but the "
                f"scenario places {len(scenario_config.user_initial_positions)}"
            )
        self.scenario = scenario_config
        self.cfg = episode_config
        self.geometry = geometry
        self.loss_model = loss_model
        self.budget = budget
        self.energy_model = energy_model
        self.rician_k = rician_k
        self.slot_duration = slot_duration
        self.phase_control = phase_control
        self.buildings = sc.generate_city(scenario_config)
        self.index = sc.BuildingIndex(self.buildings)
        self.network = sc.RoadNetwork(scenario_config)
        self.bounds = uav.FlightBounds(
            scenario_config.area_x_min,
            scenario_config.area_x_max,
            scenario_config.area_y_min,
            scenario_config.area_y_max,
            scenario_config.alt_min,
            scenario_config.alt_max,
        )
        self.su = np.asarray(scenario_config.su_position, dtype=float)
        self._seed(seed)
        self._episode = -1
        self._t = 0
        self._done = True
        self.last_slot: SlotRecord | None = None

    def _seed(self, seed: int):
        self._rng_reset = substream(seed, STREAM_RESET)
        self._rng_users = substream(seed, STREAM_USERS)
        self._rng_channel = substream(seed, STREAM_CHANNEL)

    # -- action interface ---------------------------------------------------

    @property
    def action_dim(self) -> int:
        """3 displacement components, plus one phase per element when the
        surface phases are learned rather than computed."""
        return 3 if self.phase_control else 3 + self.geometry.size

    @property
    def observation_dim(self) -> int:
        if self.cfg.observe_all_users:
            return 3 + 3 * self.cfg.users
        return 6

    # -- lifecycle ------------------------------------------------------------

    def reset(self, seed: int | None = None) -> np.ndarray:
        """Start a new episode; craft placed uniformly inside the envelope."""
        if seed is not None:
            self._seed(seed)
        b = self.bounds
        position = np.array(
            [
                self._rng_reset.uniform(b.x_min, b.x_max),
                self._rng_reset.uniform(b.y_min, b.y_max),
                self._rng_reset.uniform(b.z_min, b.z_max),
            ]
        )
        self.state = uav.UavState(position, self.slot_duration)
        self.tracks = [
            sc.UserTrack.spawn(p, self.network, self.scenario.user_speed, self._rng_users)
            for p in self.scenario.user_initial_positions
        ]
        # Per-user served-slot rates: episode sums added left to right from 0.0
        # (what sum() does on Python 3.11), counts, and the (slot, rate) pairs
        # still inside `rate_window`.
        self._rate_sums = [0.0] * self.cfg.users
        self._rate_counts = [0] * self.cfg.users
        self._recent_rates = [deque() for _ in range(self.cfg.users)]
        self._episode += 1
        self._t = 0
        self._done = False
        self.last_slot = None
        return self._observation()

    def step(self, action):
        """Advance one slot; returns (observation, RewardBreakdown, done)."""
        if self._done:
            raise EnvError("step() called on a finished episode; call reset()")
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise EnvError(f"expected action of shape ({self.action_dim},), got {action.shape}")
        t = self._t
        served = t % self.cfg.users

        displacement = uav.scale_action(action[:3], self.cfg.d_max)
        previous = self.state.position
        self.state, violated = uav.apply_action(self.state, displacement, self.bounds)
        realized = self.state.position - previous
        energy = uav.propulsion_energy(self.energy_model, realized, self.slot_duration)

        self.tracks = [
            sc.step_user(tr, self.slot_duration, self._rng_users, self.network)
            for tr in self.tracks
        ]

        irs = self.state.position
        user = self.tracks[served].position
        los = sc.is_los(self.su, irs, self.index) and sc.is_los(irs, user, self.index)

        rate = 0.0
        if los:
            if self.phase_control:
                phases = ch.optimal_phases(self.geometry, self.su, irs, user)
            else:
                phases = ch.PhaseShifts(ch.wrap_phase(action[3:] * math.pi))
            az_in, el_in = ch.angles_between(irs, self.su)
            az_out, el_out = ch.angles_between(irs, user)
            loss_in = ch.path_loss_db(self.loss_model, uav.distance(self.su, irs))
            loss_out = ch.path_loss_db(self.loss_model, uav.distance(irs, user))
            g = ch.sample_channel(
                self.geometry, loss_in, self.rician_k, az_in, el_in, self._rng_channel
            )
            h = ch.sample_channel(
                self.geometry, loss_out, self.rician_k, az_out, el_out, self._rng_channel
            )
            rate = ch.achievable_rate(self.budget, g, phases, h)

        self._rate_sums[served] += rate
        self._rate_counts[served] += 1
        if self.cfg.rate_window is not None:
            self._recent_rates[served].append((t, rate))
        fairness = self._running_fairness(t)

        rate = float(rate)
        energy = float(energy)
        scaled = rate * self.cfg.rate_scale
        penalty = self.cfg.penalty if (violated and los) else 0.0
        reward = (fairness * scaled / energy - penalty) if los else 0.0
        f_t = fairness * scaled / energy

        self._t += 1
        self._done = self._t >= self.cfg.horizon
        obs = self._observation()
        breakdown = RewardBreakdown(rate, energy, fairness, penalty, los, reward)
        self.last_slot = SlotRecord(
            episode=self._episode,
            t=t,
            served_user=served,
            rate_bps=rate,
            energy_j=energy,
            jain=fairness,
            reward=reward,
            f_t=f_t,
            los=los,
            violated=violated,
            uav_position=tuple(float(v) for v in self.state.position),
            displacement=tuple(float(v) for v in realized),
        )
        return obs, breakdown, self._done

    # -- internals ------------------------------------------------------------

    def _running_fairness(self, now: int) -> float:
        window = self.cfg.rate_window
        if window is None:
            means = self.per_user_average_rates()
        else:
            means = []
            for recent in self._recent_rates:
                while recent and recent[0][0] <= now - window:
                    recent.popleft()
                means.append(sum(r for _, r in recent) / len(recent) if recent else 0.0)
        if sum(means) == 0.0:
            return 1.0 / self.cfg.users
        return jain_index(means)

    def per_user_average_rates(self) -> list:
        """Mean served-slot rate per user over the episode so far (bit/s)."""
        return [
            (total / count) if count else 0.0
            for total, count in zip(self._rate_sums, self._rate_counts)
        ]

    def _observation(self) -> np.ndarray:
        b = self.bounds
        p = self.state.position
        out = [
            (p[0] - b.x_min) / (b.x_max - b.x_min),
            (p[1] - b.y_min) / (b.y_max - b.y_min),
            (p[2] - b.z_min) / (b.z_max - b.z_min),
        ]
        if self.cfg.observe_all_users:
            targets = [tr.position for tr in self.tracks]
        else:
            upcoming = self._t % self.cfg.users
            targets = [self.tracks[upcoming].position]
        for q in targets:
            out += [
                (q[0] - b.x_min) / (b.x_max - b.x_min),
                (q[1] - b.y_min) / (b.y_max - b.y_min),
                q[2] / b.z_max,
            ]
        return np.array(out)
