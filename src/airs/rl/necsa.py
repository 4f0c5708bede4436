"""Episodic reward revision over a grid abstraction of the observation space.

Observations (already normalized to [0,1]) are discretized into per-dimension
bins; the key of an abstract state is the concatenated bin tuple of the last
`order` observations.  A table maps keys to the running mean of discounted
episode returns observed from episodes that visited them.  The revision adds
w * score to the raw reward, where score min-max normalizes the key's mean
against the table-wide extremes; unseen keys (or a degenerate table) score a
neutral 0.5.
"""

from collections import deque

import numpy as np


def abstract_state(obs, bins: int, order: int, history=None) -> tuple:
    """Discretize one observation and join it with up to order-1 predecessors.

    `history` holds previously discretized tuples (most recent last); when
    given, the key spans the last `order` entries including the current one.
    """
    obs = np.asarray(obs, dtype=float)
    cells = np.minimum((obs * bins).astype(int), bins - 1)
    return history_key(tuple(int(c) for c in cells), order, history)


def history_key(current: tuple, order: int, history=None) -> tuple:
    """The discretized observation `current` joined after the last order-1
    entries of `history`, or `current` alone without a history or at order 1."""
    if history is None or order <= 1:
        return current
    key = ()
    for item in list(history)[-(order - 1):]:
        key += item
    return key + current


class EpisodicTable:
    """Running per-key return means with incrementally tracked extremes.

    The min/max only widen as entries move, matching an append-friendly
    incremental update; they bound the true extremes from outside.
    """

    def __init__(self):
        self.stats = {}  # key -> [visit_count, mean_return]
        self.min_mean = None
        self.max_mean = None

    def __len__(self):
        return len(self.stats)

    def record(self, key: tuple, episode_return: float):
        entry = self.stats.get(key)
        if entry is None:
            entry = [0, 0.0]
            self.stats[key] = entry
        entry[0] += 1
        entry[1] += (episode_return - entry[1]) / entry[0]
        mean = entry[1]
        if self.min_mean is None or mean < self.min_mean:
            self.min_mean = mean
        if self.max_mean is None or mean > self.max_mean:
            self.max_mean = mean

    def score(self, key: tuple) -> float:
        """Min-max normalized mean return for the key, neutral 0.5 otherwise."""
        entry = self.stats.get(key)
        if entry is None or self.min_mean is None:
            return 0.5
        spread = self.max_mean - self.min_mean
        if spread < 1e-12:
            return 0.5
        return (entry[1] - self.min_mean) / spread


def necsa_revise(reward: float, key: tuple, table: EpisodicTable, weight: float) -> float:
    """Revised reward r + w * score(key); exactly r when the weight is zero."""
    if weight == 0.0:
        return reward
    return reward + weight * table.score(key)


class NecsaShaper:
    """Per-episode driver: keys each step, revises rewards, updates the table
    with the episode's discounted return at episode end."""

    def __init__(self, bins: int, order: int, weight: float, discount: float):
        self.bins = bins
        self.order = order
        self.weight = weight
        self.discount = discount
        self.table = EpisodicTable()
        self._history = deque(maxlen=max(order - 1, 1))
        self._visited = []
        self._return = 0.0
        self._discount_pow = 1.0

    def begin_episode(self):
        self._history.clear()
        self._visited = []
        self._return = 0.0
        self._discount_pow = 1.0

    def revise(self, obs, reward: float) -> float:
        cells = abstract_state(obs, self.bins, 1)
        key = history_key(cells, self.order, self._history)
        revised = necsa_revise(reward, key, self.table, self.weight)
        self._history.append(cells)
        self._visited.append(key)
        self._return += self._discount_pow * reward
        self._discount_pow *= self.discount
        return revised

    def end_episode(self):
        for key in self._visited:
            self.table.record(key, self._return)
        self.begin_episode()
