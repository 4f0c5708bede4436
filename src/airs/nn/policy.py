"""Recurrent Gaussian actor and feedforward critic.

Actor: dense trunk with tanh, a mogrifier LSTM, a tanh-squashed mean head,
and one state-independent learnable log-std per action dimension (clamped to
[-5, 1]).  Critic: two tanh layers to a scalar value.  All math is float64.
Rollouts call `actor_step` on plain arrays; updates replay stored sequences
through `actor_sequence`, one taped node built from the same step.
"""

import math

import numpy as np

from . import tensor as T
from .layers import Dense, MogrifierLstm
from .tensor import Tensor

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
_LOG_2PI = math.log(2.0 * math.pi)


class ActorCritic:
    def __init__(
        self,
        rng,
        obs_dim: int,
        action_dim: int,
        hidden: int = 64,
        mogrifier_rounds: int = 5,
        log_std_init: float = -0.5,
        bptt_chunk: int = 16,
    ):
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.hidden = hidden
        self.mogrifier_rounds = mogrifier_rounds
        self.bptt_chunk = bptt_chunk
        self.trunk = Dense(rng, obs_dim, hidden, "actor.trunk")
        self.cell = MogrifierLstm(rng, hidden, hidden, mogrifier_rounds, "actor.lstm")
        self.mean_head = Dense(rng, hidden, action_dim, "actor.mean")
        self.log_std = Tensor(np.full(action_dim, log_std_init), requires_grad=True)
        self.v1 = Dense(rng, obs_dim, hidden, "critic.l1")
        self.v2 = Dense(rng, hidden, hidden, "critic.l2")
        self.v3 = Dense(rng, hidden, 1, "critic.out")

    # -- parameter plumbing --------------------------------------------------

    def named_params(self):
        out = (
            self.trunk.params()
            + self.cell.params()
            + self.mean_head.params()
            + [("actor.log_std", self.log_std)]
            + self.v1.params()
            + self.v2.params()
            + self.v3.params()
        )
        return out

    def params(self):
        return [p for _, p in self.named_params()]

    def load_state(self, state: dict):
        for name, param in self.named_params():
            if name not in state:
                raise ValueError(f"checkpoint is missing parameter {name}")
            arr = state[name]
            if arr.shape != param.value.shape:
                raise ValueError(
                    f"parameter {name} has shape {arr.shape}, expected {param.value.shape}"
                )
            param.value = arr.astype(np.float64)

    def architecture(self) -> dict:
        return {
            "obs_dim": self.obs_dim,
            "action_dim": self.action_dim,
            "hidden": self.hidden,
            "mogrifier_rounds": self.mogrifier_rounds,
            "bptt_chunk": self.bptt_chunk,
        }

    # -- forward pieces --------------------------------------------------------

    def initial_state(self, batch: int = 1):
        return self.cell.initial_state(batch)

    def actor_step(self, obs: np.ndarray, state):
        """One recurrent step on arrays; returns (mean (B,A), new_state, cache)."""
        x = np.tanh(self.trunk.forward(obs))
        h, c, cell_cache = self.cell.step(x, *state)
        mean = np.tanh(self.mean_head.forward(h))
        return mean, (h, c), (obs, x, cell_cache, h, mean)

    def actor_sequence(self, obs: np.ndarray, h0: np.ndarray, c0: np.ndarray) -> Tensor:
        """Means (T, B, A) over observations (T, B, obs_dim) from state (h0, c0).

        One taped node (untaped under no_grad): the forward makes T
        `actor_step` calls.  The backward
        walks t = T-1 down to 0 and repeats the reverse walk over the per-step
        primitive ops: the mean head, then the cell (h_t's gradient is step
        t+1's contribution plus the mean head's), then the trunk.  The state
        gradient is cut at t = 0 and at every multiple of `bptt_chunk`
        (truncated backpropagation through time; 0 never cuts).
        """
        state = (h0, c0)
        means = np.empty(obs.shape[:2] + (self.action_dim,))
        caches = []
        for t in range(len(obs)):
            means[t], state, cache = self.actor_step(obs[t], state)
            caches.append(cache)
        if not T.grad_enabled():
            return Tensor(means)
        chunk = self.bptt_chunk

        def backward_fn(g):
            gh = gc = None
            for t in range(len(caches) - 1, -1, -1):
                obs_t, x, cell_cache, h, mean = caches[t]
                g_head = self.mean_head.backward(h, g[t] * (1.0 - mean**2), True)
                gh = g_head if gh is None else gh + g_head
                cut = t == 0 or (chunk > 0 and t % chunk == 0)
                gx, gh, gc = self.cell.step_backward(cell_cache, gh, gc, not cut)
                self.trunk.backward(obs_t, gx * (1.0 - x**2), False)

        return T.record(means, backward_fn)

    def value(self, obs: Tensor) -> Tensor:
        """Critic value, shape (B,)."""
        z = T.tanh(self.v1(obs))
        z = T.tanh(self.v2(z))
        return T.reshape(self.v3(z), (-1,))

    def value_of(self, obs: np.ndarray) -> float:
        """Untaped critic value of one observation."""
        with T.no_grad():
            return float(self.value(Tensor(obs.reshape(1, -1))).value[0])

    def clamped_log_std(self) -> Tensor:
        return T.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def log_prob(self, mean: Tensor, actions: Tensor) -> Tensor:
        """Diagonal Gaussian log density of `actions`, shape (..., B) for (..., B, A).

        One taped op, bit-equal to the primitive form applied to each (B, A)
        step: with log_std = clamped_log_std() and
        z = (actions - mean) * exp(-log_std),
        -0.5 * sum_axis(square(z), 1) - (sum_all(log_std) + 0.5 * A * log(2 pi)).
        The log-std is clamped and exponentiated once for all steps.  The
        backward sums each step's log-std gradient over B and adds the steps
        one at a time, last step first, as the reverse walk over per-step
        calls would.
        """
        log_std = self.log_std
        clamped = np.clip(log_std.value, LOG_STD_MIN, LOG_STD_MAX)
        inv_std = np.exp(-clamped)
        diff = actions.value - mean.value
        z = diff * inv_std
        quad = (z**2).sum(axis=-1)
        const = 0.5 * self.action_dim * _LOG_2PI
        out_value = -0.5 * quad - (clamped.sum() + const)
        if not T.needs_grad(mean, actions, log_std):
            return Tensor(out_value)

        def backward_fn(g):
            g_z = np.expand_dims(g * -0.5, -1) * 2.0 * z
            g_diff = g_z * inv_std
            if actions.requires_grad:
                actions.add_grad(T.unbroadcast(g_diff, actions.value.shape))
            if mean.requires_grad:
                mean.add_grad(T.unbroadcast(-g_diff, mean.value.shape))
            if log_std.requires_grad:
                batch, dims = z.shape[-2:]
                g_norm = (-g).reshape(-1, batch).sum(axis=1)
                g_inv_std = (g_z * diff).reshape(-1, batch, dims).sum(axis=1)
                inside = (log_std.value >= LOG_STD_MIN) & (log_std.value <= LOG_STD_MAX)
                per_step = (g_norm[:, None] - g_inv_std * inv_std) * inside
                for step_grad in per_step[::-1]:
                    log_std.add_grad(step_grad)

        return T.record(out_value, backward_fn)

    def entropy(self) -> Tensor:
        """Entropy of the (state-independent) Gaussian, a scalar tensor."""
        return T.add(T.sum_all(self.clamped_log_std()),
                     Tensor(0.5 * self.action_dim * (1.0 + _LOG_2PI)))

    # -- rollout-time API -------------------------------------------------------

    def act(self, obs: np.ndarray, state, rng, greedy: bool = False):
        """Sample (or take the mean of) one action and advance the recurrent state.

        Returns (action, new_state); runs neither the critic nor a log-prob.
        """
        mean, new_state, _ = self.actor_step(obs.reshape(1, -1), state)
        mu = mean[0]
        if greedy:
            return mu.copy(), new_state
        std = np.exp(np.clip(self.log_std.value, LOG_STD_MIN, LOG_STD_MAX))
        return mu + std * rng.standard_normal(self.action_dim), new_state
