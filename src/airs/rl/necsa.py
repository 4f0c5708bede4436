"""Episodic reward revision (NECSA) over a grid abstraction of the observation space.

Observations (already normalized to [0,1]) are discretized into `bins` cells per
dimension; the key of a step is the concatenated cell tuples of its last `order`
observations (fewer at an episode's start).  The table maps each key to its
visit count and the running mean of the discounted returns of the episodes that
visited it.  The revision adds weight * score(key) to the raw reward, where the
score min-max normalizes the key's mean against the table-wide extremes; an
unseen key (or a table with no spread) scores a neutral 0.5.
"""

import math
from collections import deque
from itertools import chain

import numpy as np


class NecsaShaper:
    """Keys each step and revises its reward; at episode end, records the
    episode's discounted return of the raw rewards once per step it took.

    `min_mean`/`max_mean` follow each entry as it moves and only widen, so they
    bound the table's true extremes from outside.
    """

    def __init__(self, bins: int, order: int, weight: float, discount: float):
        self.bins = bins
        self.weight = weight
        self.discount = discount
        self.table = {}  # key -> [visits, mean_return]
        self.min_mean = math.inf
        self.max_mean = -math.inf
        self._recent = deque(maxlen=order)  # the cell tuples of the last `order` steps
        self.begin_episode()

    def begin_episode(self):
        self._recent.clear()
        self._visited = []
        self._return = 0.0
        self._discount_pow = 1.0

    def score(self, key: tuple) -> float:
        entry = self.table.get(key)
        spread = self.max_mean - self.min_mean
        if entry is None or spread < 1e-12:
            return 0.5
        return (entry[1] - self.min_mean) / spread

    def revise(self, obs, reward: float) -> float:
        """reward + weight * score(key) of the step that observed `obs`; exactly
        `reward` when the weight is zero."""
        cells = np.minimum((obs * self.bins).astype(int), self.bins - 1)
        self._recent.append(tuple(cells.tolist()))
        key = tuple(chain.from_iterable(self._recent))
        self._visited.append(key)
        self._return += self._discount_pow * reward
        self._discount_pow *= self.discount
        if self.weight == 0.0:
            return reward
        return reward + self.weight * self.score(key)

    def end_episode(self):
        episode_return = self._return
        for key in self._visited:
            entry = self.table.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += (episode_return - entry[1]) / entry[0]
            self.min_mean = min(self.min_mean, entry[1])
            self.max_mean = max(self.max_mean, entry[1])
        self.begin_episode()
