"""Recurrent Gaussian actor and feedforward critic.

Actor: dense trunk with tanh, a mogrifier LSTM, a tanh-squashed mean head,
and one state-independent learnable log-std per action dimension (clamped to
[-5, 1]).  Critic: two tanh layers to a scalar value.  All math is float64;
rollouts run under no_grad, updates replay stored sequences with gradients.
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
                raise KeyError(f"checkpoint is missing parameter {name}")
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

    def actor_step(self, obs: Tensor, state):
        """One recurrent step; returns (mean (B,A), new_state)."""
        x = T.tanh(self.trunk(obs))
        h, c = self.cell(x, state)
        mean = T.tanh(self.mean_head(h))
        return mean, (h, c)

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
        """Diagonal Gaussian log density of `actions`, shape (B,).

        One taped op, bit-equal to the primitive form: with
        log_std = clamped_log_std() and z = (actions - mean) * exp(-log_std),
        -0.5 * sum_axis(square(z), 1) - (sum_all(log_std) + 0.5 * A * log(2 pi)).
        """
        log_std = self.log_std
        clamped = np.clip(log_std.value, LOG_STD_MIN, LOG_STD_MAX)
        inv_std = np.exp(-clamped)
        diff = actions.value - mean.value
        z = diff * inv_std
        quad = (z**2).sum(axis=1)
        const = 0.5 * self.action_dim * _LOG_2PI
        out_value = -0.5 * quad - (clamped.sum() + const)
        if not T.needs_grad(mean, actions, log_std):
            return Tensor(out_value)

        def backward_fn(g):
            g_norm = T.unbroadcast(-g, ())
            g_clamped = np.broadcast_to(g_norm, clamped.shape).copy()
            g_square = np.broadcast_to(np.expand_dims(g * -0.5, 1), z.shape).copy()
            g_z = g_square * 2.0 * z
            g_diff = T.unbroadcast(g_z * inv_std, diff.shape)
            g_inv_std = T.unbroadcast(g_z * diff, inv_std.shape)
            if actions.requires_grad:
                actions.add_grad(T.unbroadcast(g_diff, actions.value.shape))
            if mean.requires_grad:
                mean.add_grad(T.unbroadcast(-g_diff, mean.value.shape))
            g_clamped += -(g_inv_std * inv_std)
            if log_std.requires_grad:
                inside = (log_std.value >= LOG_STD_MIN) & (log_std.value <= LOG_STD_MAX)
                log_std.add_grad(g_clamped * inside)

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
        with T.no_grad():
            mean, new_state = self.actor_step(Tensor(obs.reshape(1, -1)), state)
        mu = mean.value[0]
        if greedy:
            return mu.copy(), new_state
        std = np.exp(np.clip(self.log_std.value, LOG_STD_MIN, LOG_STD_MAX))
        return mu + std * rng.standard_normal(self.action_dim), new_state
