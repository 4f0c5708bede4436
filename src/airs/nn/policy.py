"""Recurrent Gaussian actor and feedforward critic.

Actor: dense trunk with tanh, a mogrifier LSTM, a tanh-squashed mean head,
and one state-independent learnable log-std per action dimension (clamped to
[-5, 1]).  Critic: two tanh layers to a scalar value.  All math is float64.
Rollouts call `actor_step` on plain arrays; updates replay stored sequences,
packed step-major, through `actor_sequence`: one taped node that runs the trunk
and the mean head once over all rows and the cell's step kernel per time step.
"""

import math

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError
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
                raise CheckpointError(f"checkpoint is missing parameter {name}")
            arr = state[name]
            if arr.shape != param.value.shape:
                raise CheckpointError(
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
        """One recurrent step on arrays; returns (mean (B, A), new_state)."""
        x = np.tanh(self.trunk.forward(obs))
        h, c, _ = self.cell.step(x, *state)
        return np.tanh(self.mean_head.forward(h)), (h, c)

    def actor_sequence(self, obs: np.ndarray, batch_sizes, h0: np.ndarray,
                       c0: np.ndarray) -> Tensor:
        """Means (N, A) over packed observation rows (N, obs_dim) from state (h0, c0).

        Rows are packed step-major: step t is the next `batch_sizes[t]` rows and
        continues the first `batch_sizes[t]` sequences, so batch sizes never grow.
        One taped node (untaped under no_grad): the trunk and the mean head each
        run once over all N rows; only the cell steps in the time loop.  The
        backward runs the head once, the cell steps in reverse, then the trunk
        once.  The state gradient is cut at t = 0 and at every multiple of
        `bptt_chunk` (truncated backpropagation through time; 0 never cuts).
        """
        x = np.tanh(self.trunk.forward(obs))
        bounds = np.cumsum(batch_sizes) - batch_sizes
        hs = np.empty((len(obs), self.hidden))
        h, c = h0, c0
        caches = []
        for lo, n in zip(bounds, batch_sizes):
            hs[lo:lo + n], c, cache = self.cell.step(x[lo:lo + n], h[:n], c[:n])
            h = hs[lo:lo + n]  # the next step caches this view, so no copy stays alive
            caches.append(cache)
        means = np.tanh(self.mean_head.forward(hs))
        if not T.grad_enabled():
            return Tensor(means)
        chunk = self.bptt_chunk

        def backward_fn(g):
            # To keep peak memory near the per-step tape's, each step's cache is
            # dropped once walked, and row block t of `grad` holds step t's h
            # gradient from the head until the step is walked, then the gradient
            # of its trunk pre-activation.
            grad = self.mean_head.backward(hs, g * (1.0 - means**2), True)
            gh, gc = np.zeros_like(h0), np.zeros_like(c0)
            for t in range(len(caches) - 1, -1, -1):
                lo, n = bounds[t], batch_sizes[t]
                cut = t == 0 or (chunk > 0 and t % chunk == 0)
                gx, gh_prev, gc_prev = self.cell.step_backward(
                    caches.pop(), grad[lo:lo + n] + gh[:n], gc[:n], not cut)
                grad[lo:lo + n] = gx * (1.0 - x[lo:lo + n]**2)
                if cut:
                    gh[:], gc[:] = 0.0, 0.0
                else:
                    gh[:n], gc[:n] = gh_prev, gc_prev
            self.trunk.backward(obs, grad, False)

        return T.record(means, backward_fn)

    def value(self, obs: Tensor) -> Tensor:
        """Critic value, shape (B,)."""
        z = T.tanh(self.v1(obs))
        z = T.tanh(self.v2(z))
        return T.reshape(self.v3(z), (-1,))

    def clamped_log_std(self) -> Tensor:
        return T.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)

    def log_prob(self, mean: Tensor, actions: Tensor) -> Tensor:
        """Diagonal Gaussian log density of `actions`, shape (N,) for (N, A).

        One taped op, equal to the primitive form: with
        log_std = clamped_log_std() and z = (actions - mean) * exp(-log_std),
        -0.5 * sum_axis(square(z), 1) - (sum_all(log_std) + 0.5 * A * log(2 pi)).
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
            g_z = (g * -0.5)[:, None] * 2.0 * z
            g_diff = g_z * inv_std
            if actions.requires_grad:
                actions.add_grad(g_diff)
            if mean.requires_grad:
                mean.add_grad(-g_diff)
            if log_std.requires_grad:
                inside = (log_std.value >= LOG_STD_MIN) & (log_std.value <= LOG_STD_MAX)
                g_inv_std = (g_z * diff).sum(axis=0)
                log_std.add_grad(((-g).sum() - g_inv_std * inv_std) * inside)

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
        mean, new_state = self.actor_step(obs.reshape(1, -1), state)
        mu = mean[0]
        if greedy:
            return mu.copy(), new_state
        std = np.exp(np.clip(self.log_std.value, LOG_STD_MIN, LOG_STD_MAX))
        return mu + std * rng.standard_normal(self.action_dim), new_state
