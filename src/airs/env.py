"""The sequential decision process tying geometry, channel, and flight together.

One episode is a fixed number of slots.  Each slot the craft flies a bounded
displacement, every ground user advances along the roads, and the user whose
turn it is (round robin) is served through the reflecting surface.  The slot
reward is fairness * rate / energy minus an out-of-bounds penalty, and zero
whenever either hop of the relay path is occluded.

A slot's small vectors, the craft's position and displacement and each
user's position and heading, are tuples of Python floats from `reset` to the
`SlotRecord`, since numpy's per-call cost outweighs arithmetic on three
numbers and a float operation rounds as numpy's elementwise one does.  numpy
keeps the ops whose rounding it sets, and the wide arrays: `uav.distance`
(the BLAS dot product), `jain_index` from 8 rates up (numpy's pairwise
sums), the building slabs of `scenario.is_los`, and the per-element channel
vectors.  `is_los` settles most blocked slots in Python against the index's
few most recent occluders, with the slab pass's arithmetic, and the numpy
slab pass over every box decides the rest.  A line-of-sight slot
synthesizes both hops in one stacked pass: one `channel.hop_profile` and
one `channel.sample_channel` call with the head's hop as row 0 and the
user's as row 1.  Each row has the bits of a one-hop call, and the scatter
is drawn hop by hop, real parts before imaginary ones, so the channel stream
is consumed in the order two one-hop calls would consume it.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

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
    defined on every reachable rate vector.  The sums are numpy's pairwise
    sums, which add fewer than 8 terms left to right: below 8 rates a Python
    loop gives the same bits at a fraction of the cost.
    """
    n = len(rates)
    if n == 0:
        raise ValueError("jain_index needs at least one rate")
    if n < 8:
        total = square_sum = 0.0
        for r in rates:
            if r < 0:
                raise ValueError("rates must be nonnegative")
            total += r
            square_sum += r * r
    else:
        rates = np.asarray(rates, dtype=float)
        if (rates < 0).any():
            raise ValueError("rates must be nonnegative")
        total = np.add.reduce(rates, axis=None)
        square_sum = np.add.reduce(rates * rates, axis=None)
    if total == 0.0:
        return 1.0 / n
    return float(total**2 / (n * square_sum))


@dataclass(frozen=True)
class EpisodeConfig:
    horizon: int
    d_max: float
    penalty: float
    users: int
    rate_window: int | None
    observe_all_users: bool
    rate_scale: float


# The per-slot record is a named tuple: immutable like a frozen dataclass, at
# a third of its construction cost.
class SlotRecord(NamedTuple):
    episode: int
    t: int
    served_user: int
    rate_bps: float      # served-user rate this slot
    energy_j: float      # slot propulsion energy
    jain: float          # running Jain index after this slot
    reward: float
    f_t: float
    los: bool
    violated: bool
    penalty: float       # penalty applied this slot (0 or the configured value)
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
        rician_k: float,
        slot_duration: float,
        phase_control: bool,
        seed: int,
    ):
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
        # Floats, so that a position clamped to the envelope is all floats.
        self.bounds = uav.FlightBounds(*map(float, (
            scenario_config.area_x_min,
            scenario_config.area_x_max,
            scenario_config.area_y_min,
            scenario_config.area_y_max,
            scenario_config.alt_min,
            scenario_config.alt_max,
        )))
        self.su = tuple(map(float, scenario_config.su_position))
        self._rng_reset = substream(seed, STREAM_RESET)
        self._rng_users = substream(seed, STREAM_USERS)
        self._rng_channel = substream(seed, STREAM_CHANNEL)
        self._episode = -1
        self._t = 0
        self._done = True
        self.last_slot: SlotRecord | None = None

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

    def reset(self) -> np.ndarray:
        """Start a new episode; craft placed uniformly inside the envelope."""
        b = self.bounds
        self.position = (
            self._rng_reset.uniform(b.x_min, b.x_max),
            self._rng_reset.uniform(b.y_min, b.y_max),
            self._rng_reset.uniform(b.z_min, b.z_max),
        )
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
        """Advance one slot; returns (observation, SlotRecord, done)."""
        if self._done:
            raise EnvError("step() called on a finished episode; call reset()")
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise EnvError(f"expected action of shape ({self.action_dim},), got {action.shape}")
        t = self._t
        served = t % self.cfg.users

        displacement = uav.scale_action(action[:3].tolist(), self.cfg.d_max)
        previous = self.position
        self.position, violated = uav.apply_action(previous, displacement, self.bounds)
        irs = self.position
        (x, y, z), (px, py, pz) = irs, previous
        realized = (x - px, y - py, z - pz)
        energy = uav.propulsion_energy(self.energy_model, realized, self.slot_duration)

        self.tracks = [
            sc.step_user(tr, self.slot_duration, self._rng_users, self.network)
            for tr in self.tracks
        ]

        user = self.tracks[served].position
        los = sc.is_los(self.su, irs, self.index, then=user)

        rate = 0.0
        if los:
            # Both hops in one stacked pass: row 0 the head's, row 1 the user's.
            profiles = ch.hop_profile(self.geometry, irs, (self.su, user))
            if self.phase_control:
                phases = ch.optimal_phases(profiles[0], profiles[1])
            else:
                phases = ch.PhaseShifts.wrapped(action[3:] * math.pi)
            losses = (ch.path_loss_db(self.loss_model, uav.distance(self.su, irs)),
                      ch.path_loss_db(self.loss_model, uav.distance(irs, user)))
            g, h = ch.sample_channel(profiles, losses, self.rician_k, self._rng_channel)
            rate = ch.achievable_rate(self.budget, g, phases, h)

        self._rate_sums[served] += rate
        self._rate_counts[served] += 1
        if self.cfg.rate_window is not None:
            self._recent_rates[served].append((t, rate))
        fairness = self._running_fairness(t)

        scaled = rate * self.cfg.rate_scale
        # float(): the configured penalty may be an integer.
        penalty = float(self.cfg.penalty) if (violated and los) else 0.0
        reward = (fairness * scaled / energy - penalty) if los else 0.0
        f_t = fairness * scaled / energy

        self._t += 1
        self._done = self._t >= self.cfg.horizon
        obs = self._observation()
        self.last_slot = SlotRecord(self._episode, t, served, rate, energy, fairness, reward,
                                    f_t, los, violated, penalty, irs, realized)
        return obs, self.last_slot, self._done

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
        return jain_index(means)

    def per_user_average_rates(self) -> list:
        """Mean served-slot rate per user over the episode so far (bit/s)."""
        return [
            (total / count) if count else 0.0
            for total, count in zip(self._rate_sums, self._rate_counts)
        ]

    def _observation(self) -> np.ndarray:
        b = self.bounds
        x, y, z = self.position
        out = [
            (x - b.x_min) / (b.x_max - b.x_min),
            (y - b.y_min) / (b.y_max - b.y_min),
            (z - b.z_min) / (b.z_max - b.z_min),
        ]
        if self.cfg.observe_all_users:
            targets = self.tracks
        else:
            targets = [self.tracks[self._t % self.cfg.users]]
        for track in targets:
            qx, qy, qz = track.position
            out += [
                (qx - b.x_min) / (b.x_max - b.x_min),
                (qy - b.y_min) / (b.y_max - b.y_min),
                qz / b.z_max,
            ]
        return np.array(out)
