"""Clipped-surrogate policy optimization over recurrent rollouts.

The buffer stores transitions in collection order, split into segments that
each start at an episode boundary or at a buffer boundary mid-episode; every
segment carries the recurrent state it started from so updates can replay
sequences exactly as collected.  When the buffer reaches the configured batch
size the trainer computes values and advantages (one critic pass over the
states and the bootstrap observation) and runs K epochs of full-batch
gradient steps.  Each epoch replays the segments, packed longest first with
no padding rows, through one recurrent forward and feeds its log-probs to
`ppo_loss`, which returns the loss's gradients in closed form; one reverse
pass chains them through the critic, the Gaussian log-density and the
recurrence.  The actor side works in packed row order throughout, the critic
in buffer order.  Epoch 0 runs before any parameter moves, so its log-probs
are the snapshot of the pre-update policy; there is no separate replay pass.
"""

from dataclasses import dataclass

import numpy as np

from ..nn import tensor as T
from ..nn.optim import Adam
from ..nn.policy import ActorCritic, gaussian_entropy


class NumericAbort(RuntimeError):
    """Raised when a loss goes non-finite; carries a batch diagnostic dump."""

    def __init__(self, message, dump):
        super().__init__(message, dump)  # both, so the error survives pickling
        self.dump = dump

    def __str__(self):
        return self.args[0]


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = 0.02
    discount: float = 0.99
    gae_lambda: float = 0.95
    epochs: int = 10
    critic_weight: float = 0.5
    entropy_weight: float = 0.01
    learning_rate: float = 3e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float  # after episodic revision, when a shaper is on
    done: bool


@dataclass
class Segment:
    start: int
    length: int
    h0: np.ndarray
    c0: np.ndarray


class RolloutBuffer:
    def __init__(self):
        self.transitions = []
        self.segments = []
        self.next_obs = None  # observation after the last transition, for the bootstrap

    def __len__(self):
        return len(self.transitions)

    def begin_segment(self, lstm_state):
        h, c = lstm_state
        self.segments.append(Segment(len(self.transitions), 0, h.copy(), c.copy()))

    def add(self, transition: Transition, next_obs: np.ndarray):
        if not self.segments:
            raise RuntimeError("begin_segment() must be called before add()")
        self.transitions.append(transition)
        self.next_obs = next_obs
        self.segments[-1].length += 1

    def clear(self):
        self.transitions = []
        self.segments = []
        self.next_obs = None


def gae_advantages(rewards, values, dones, gamma, lam):
    """Advantages and value targets from one reward/value trace.

    `values` has one extra trailing entry: the bootstrap value of the state
    after the final transition.  Terminal steps gate the bootstrap off.
    Returns (advantages, returns) with returns = advantages + values[:-1].
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=bool)
    n = rewards.shape[0]
    if values.shape[0] != n + 1 or dones.shape[0] != n:
        raise ValueError("gae_advantages: length mismatch")
    advantages = np.zeros(n)
    carry = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 0.0 if dones[t] else 1.0
        delta = rewards[t] + gamma * values[t + 1] * nonterminal - values[t]
        carry = delta + gamma * lam * nonterminal * carry
        advantages[t] = carry
    return advantages, advantages + values[:-1]


def normalize_advantages(advantages):
    """Zero-mean unit-variance rescaling of a batch of advantages."""
    advantages = np.asarray(advantages, dtype=float)
    centered = advantages - advantages.mean()
    std = centered.std()
    if std < 1e-300:
        return np.zeros_like(centered)
    return centered / std


def ppo_loss(new_log_probs, old_log_probs, advantages, values, returns, log_std,
             config: PpoConfig):
    """Clipped actor surrogate + weighted critic MSE - entropy bonus, and its gradients.

    Returns (loss, gradient with respect to `new_log_probs`, to `values`, to
    `log_std`).  The log-probs pair with `advantages` row by row and the values
    with `returns`; the two pairs may list their rows in different orders.
    Each gradient is written in the expression forms of the primitive ops'
    reverse walk, so it is bit-equal to theirs: where the unclipped term is the
    minimum (ties included) the surrogate's gradient is -adv * ratio / N, else
    the clipped term's (Schulman et al. 2017, arXiv:1707.06347).
    """
    eps, cw, ew = config.clip_epsilon, config.critic_weight, config.entropy_weight
    ratio = np.exp(new_log_probs - old_log_probs)
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    unclipped_term, clipped_term = ratio * advantages, clipped * advantages
    diff = returns - values
    entropy, entropy_inside = gaussian_entropy(log_std)
    actor = -np.minimum(unclipped_term, clipped_term).mean()
    critic = (0.5 * diff**2).mean()
    loss = (actor + cw * critic) + -ew * entropy

    g = -1.0 / len(ratio)  # the surrogate's mean, negated
    take_a = unclipped_term <= clipped_term
    inside = (ratio >= 1.0 - eps) & (ratio <= 1.0 + eps)
    g_ratio = (g * take_a) * advantages + ((g * ~take_a) * advantages) * inside
    g_values = -(cw / len(diff) * 0.5 * 2.0 * diff)
    return loss, g_ratio * ratio, g_values, -ew * entropy_inside


class PackedBatch:
    """Segments packed step-major, longest first, as `pack_padded_sequence` packs them.

    Segments are stably sorted by length; step t holds rows of the first
    `batch_sizes[t]` (those still running), so `obs` and `actions` are (N, ...)
    with no padding.  `h0` and `c0` are in sorted order.  `order[i]` is the
    packed row of buffer index i, so `packed[order]` lists packed rows in
    buffer order, as `states` holds the observations.
    """

    def __init__(self, buffer: RolloutBuffer):
        segments = buffer.segments
        lengths = np.array([s.length for s in segments])
        starts = np.array([s.start for s in segments])
        ranked = np.argsort(-lengths, kind="stable")
        rank = np.argsort(ranked)
        self.batch_sizes = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
        step_offsets = np.cumsum(self.batch_sizes) - self.batch_sizes
        t = np.arange(len(buffer)) - np.repeat(starts, lengths)
        self.order = step_offsets[t] + np.repeat(rank, lengths)
        self.states = np.stack([tr.state for tr in buffer.transitions])
        self.obs = self.pack(self.states)
        self.actions = self.pack(np.stack([tr.action for tr in buffer.transitions]))
        self.h0 = np.stack([segments[j].h0 for j in ranked])
        self.c0 = np.stack([segments[j].c0 for j in ranked])

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Rows listed in buffer order, in packed order."""
        packed = np.empty_like(rows)
        packed[self.order] = rows
        return packed


class PpoUpdater:
    """Runs the K-epoch update on a full buffer."""

    def __init__(self, policy: ActorCritic, config: PpoConfig):
        self.policy = policy
        self.config = config
        self.optimizer = Adam(
            policy.params(),
            lr=config.learning_rate,
            betas=(config.adam_beta1, config.adam_beta2),
            eps=config.adam_eps,
        )

    def update(self, buffer: RolloutBuffer):
        cfg = self.config
        policy = self.policy
        batch = PackedBatch(buffer)

        rewards = np.array([tr.reward for tr in buffer.transitions])
        dones = np.array([tr.done for tr in buffer.transitions])
        values, _ = policy.value(np.vstack((batch.states, buffer.next_obs)))
        advantages, returns = gae_advantages(
            rewards, values, dones, cfg.discount, cfg.gae_lambda
        )
        advantages = normalize_advantages(advantages)
        packed_advantages = batch.pack(advantages)

        for epoch in range(cfg.epochs):
            self.optimizer.zero_grad()
            means, actor = policy.actor_sequence(batch.obs, batch.batch_sizes, batch.h0,
                                                 batch.c0)
            log_probs, gaussian = policy.log_prob(means, batch.actions)
            if epoch == 0:
                # Epoch 0 runs the pre-update policy: its log-probs are the snapshot.
                old_log_probs = log_probs.copy()
            value_pred, critic = policy.value(batch.states)
            loss, *grads = ppo_loss(log_probs, old_log_probs, packed_advantages, value_pred,
                                    returns, policy.log_std.value, cfg)
            if not np.isfinite(loss):
                raise NumericAbort(
                    f"non-finite loss at epoch {epoch}",
                    dump={
                        "epoch": epoch,
                        "loss": float(loss),
                        "new_log_probs": log_probs[batch.order].tolist(),
                        "values": value_pred.tolist(),
                        "rewards": rewards.tolist(),
                        "advantages": advantages.tolist(),
                        "returns": returns.tolist(),
                        "old_log_probs": old_log_probs[batch.order].tolist(),
                    },
                )
            caches = [actor, gaussian, critic]
            del means, actor, gaussian, critic  # `reverse` frees each cache once walked
            T.backward(self.reverse, caches, *grads)
            self.optimizer.step()

    def reverse(self, caches, g_log_probs, g_values, g_log_std):
        """Chain the loss's closed-form gradients into every parameter's gradient.

        Each cache is popped as it is walked, so it is freed before the next piece
        runs.
        """
        policy = self.policy
        policy.log_std.add_grad(g_log_std)
        policy.value_backward(caches.pop(), g_values)
        g_means = policy.log_prob_backward(caches.pop(), g_log_probs)
        policy.actor_sequence_backward(caches.pop(), g_means)
