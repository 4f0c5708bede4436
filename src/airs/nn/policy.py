"""Recurrent Gaussian actor and feedforward critic.

Actor: dense trunk with tanh, a mogrifier LSTM, a tanh-squashed mean head,
and one state-independent learnable log-std per action dimension (clamped to
[-5, 1]).  Critic: two tanh layers to a scalar value.  All math is float64.
Rollouts call `actor_step` on plain arrays; updates replay stored sequences,
packed step-major, through `actor_sequence`, which runs the trunk and the mean
head once over all rows and the cell's step kernel per time step.  Each
forward the update differentiates returns its output and a cache, which its
`*_backward` reads to add the parameter gradients.
"""

import math

import numpy as np

from .checkpoint import CheckpointError
from .layers import Dense, MogrifierLstm
from .tensor import Param

LOG_STD_MIN = -5.0
LOG_STD_MAX = 1.0
_LOG_2PI = math.log(2.0 * math.pi)


def clamp_log_std(log_std: np.ndarray):
    """The log-std clamped to [LOG_STD_MIN, LOG_STD_MAX], and where the clamp
    lets the gradient through."""
    inside = (log_std >= LOG_STD_MIN) & (log_std <= LOG_STD_MAX)
    return np.clip(log_std, LOG_STD_MIN, LOG_STD_MAX), inside


def gaussian_entropy(log_std: np.ndarray):
    """Entropy of the Gaussian with the clamped `log_std`, and `clamp_log_std`'s mask."""
    clamped, inside = clamp_log_std(log_std)
    return clamped.sum() + 0.5 * log_std.size * (1.0 + _LOG_2PI), inside


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
        self.log_std = Param(np.full(action_dim, log_std_init))
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
                       c0: np.ndarray):
        """Means (N, A) over packed observation rows (N, obs_dim) from state (h0, c0).

        Rows are packed step-major: step t is the next `batch_sizes[t]` rows and
        continues the first `batch_sizes[t]` sequences, so batch sizes never grow.
        The trunk and the mean head each run once over all N rows; only the cell
        steps in the time loop.  Returns (means, cache for `actor_sequence_backward`).
        """
        x = np.tanh(self.trunk.forward(obs))
        bounds = np.cumsum(batch_sizes) - batch_sizes
        hs = np.empty((len(obs), self.hidden))
        h, c = h0, c0
        steps = []
        for lo, n in zip(bounds, batch_sizes):
            hs[lo:lo + n], c, cache = self.cell.step(x[lo:lo + n], h[:n], c[:n])
            h = hs[lo:lo + n]  # the next step caches this view, so no copy stays alive
            steps.append(cache)
        means = np.tanh(self.mean_head.forward(hs))
        return means, (obs, batch_sizes, bounds, x, hs, means, steps)

    def actor_sequence_backward(self, cache, g: np.ndarray):
        """Add the actor's trunk, cell and head gradients for the means' gradient g.

        Runs the head once, the cell steps in reverse, then the trunk once.  The
        state gradient is cut at t = 0 and at every multiple of `bptt_chunk`
        (truncated backpropagation through time; 0 never cuts).
        """
        obs, batch_sizes, bounds, x, hs, means, steps = cache
        chunk = self.bptt_chunk
        # To keep peak memory down, each step's cache is dropped once walked, and
        # row block t of `grad` holds step t's h gradient from the head until the
        # step is walked, then the gradient of its trunk pre-activation.
        grad = self.mean_head.backward(hs, g * (1.0 - means**2), True)
        gh, gc = np.zeros((2, batch_sizes[0], self.hidden))
        for t in range(len(steps) - 1, -1, -1):
            lo, n = bounds[t], batch_sizes[t]
            cut = t == 0 or (chunk > 0 and t % chunk == 0)
            gx, gh_prev, gc_prev = self.cell.step_backward(
                steps.pop(), grad[lo:lo + n] + gh[:n], gc[:n], not cut)
            grad[lo:lo + n] = gx * (1.0 - x[lo:lo + n]**2)
            if cut:
                gh[:], gc[:] = 0.0, 0.0
            else:
                gh[:n], gc[:n] = gh_prev, gc_prev
        self.trunk.backward(obs, grad, False)

    def value(self, obs: np.ndarray):
        """Critic values (B,) of observations (B, obs_dim), and the cache
        `value_backward` reads."""
        z1 = np.tanh(self.v1.forward(obs))
        z2 = np.tanh(self.v2.forward(z1))
        return self.v3.forward(z2).reshape(-1), (obs, z1, z2)

    def value_backward(self, cache, g: np.ndarray):
        """Add the critic's gradients for the values' gradient g."""
        obs, z1, z2 = cache
        g = self.v3.backward(z2, g.reshape(-1, 1), True)
        g = self.v2.backward(z1, g * (1.0 - z2**2), True)
        self.v1.backward(obs, g * (1.0 - z1**2), False)

    def log_prob(self, mean: np.ndarray, actions: np.ndarray):
        """Diagonal Gaussian log density of `actions`, shape (N,) for (N, A), and
        the cache `log_prob_backward` reads.  With log_std clamped and
        z = (actions - mean) * exp(-log_std), it is
        -0.5 * sum_axis(square(z), 1) - (sum_all(log_std) + 0.5 * A * log(2 pi)).
        """
        clamped, inside = clamp_log_std(self.log_std.value)
        inv_std = np.exp(-clamped)
        diff = actions - mean
        z = diff * inv_std
        quad = (z**2).sum(axis=-1)
        const = 0.5 * self.action_dim * _LOG_2PI
        return -0.5 * quad - (clamped.sum() + const), (diff, z, inv_std, inside)

    def log_prob_backward(self, cache, g: np.ndarray) -> np.ndarray:
        """Add log_std's gradient for the log-probs' gradient g; return the means'."""
        diff, z, inv_std, inside = cache
        g_z = (g * -0.5)[:, None] * 2.0 * z
        g_inv_std = (g_z * diff).sum(axis=0)
        self.log_std.add_grad(((-g).sum() - g_inv_std * inv_std) * inside)
        return -(g_z * inv_std)

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
