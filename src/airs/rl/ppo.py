"""Clipped-surrogate policy optimization over recurrent rollouts.

The buffer stores transitions in collection order, split into segments that
each start at an episode boundary or at a buffer boundary mid-episode; every
segment carries the recurrent state it started from so updates can replay
sequences exactly as collected.  When the buffer reaches the configured batch
size the trainer computes values and advantages (one untaped critic pass over
the states and the bootstrap observation) and runs K epochs of full-batch
gradient steps.  Each epoch replays the segments, packed longest first with
no padding rows, through one taped recurrent forward and feeds its log-probs
to `ppo_loss`.  Epoch 0 runs before any parameter moves, so its log-probs are
the snapshot of the pre-update policy; there is no separate replay pass.
"""

from dataclasses import dataclass

import numpy as np

from ..nn import tensor as T
from ..nn.optim import Adam
from ..nn.policy import ActorCritic
from ..nn.tensor import Tensor


class NumericAbort(RuntimeError):
    """Raised when a loss goes non-finite; carries a batch diagnostic dump."""

    def __init__(self, message, dump):
        super().__init__(message)
        self.dump = dump


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


def ppo_loss(new_log_probs, old_log_probs, advantages, values, returns,
             entropy, config: PpoConfig):
    """Scalar loss: clipped actor surrogate + weighted critic MSE - entropy bonus.

    Tensor inputs stay in the graph; array inputs are treated as constants.
    """
    new_log_probs = new_log_probs if isinstance(new_log_probs, Tensor) else Tensor(new_log_probs)
    values = values if isinstance(values, Tensor) else Tensor(values)
    entropy = entropy if isinstance(entropy, Tensor) else Tensor(entropy)
    old = Tensor(np.asarray(old_log_probs, dtype=float))
    adv = Tensor(np.asarray(advantages, dtype=float))
    ret = Tensor(np.asarray(returns, dtype=float))
    ratio = T.exp(T.sub(new_log_probs, old))
    clipped = T.clip(ratio, 1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon)
    surrogate = T.minimum(T.mul(ratio, adv), T.mul(clipped, adv))
    actor = T.neg(T.mean_all(surrogate))
    critic = T.mean_all(T.mul(0.5, T.square(T.sub(ret, values))))
    return T.add(
        T.add(actor, T.mul(config.critic_weight, critic)),
        T.mul(-config.entropy_weight, entropy),
    )


class PackedBatch:
    """Segments packed step-major, longest first, as `pack_padded_sequence` packs them.

    Segments are stably sorted by length; step t holds rows of the first
    `batch_sizes[t]` (those still running), so `obs` and `actions` are (N, ...)
    with no padding.  `h0` and `c0` are in sorted order.  `order[i]` is the
    packed row of buffer index i, so `take(packed_values, order)` lists values
    in buffer order, as `states` holds the observations.
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
        self.obs = np.empty_like(self.states)
        self.obs[self.order] = self.states
        actions = np.stack([tr.action for tr in buffer.transitions])
        self.actions = np.empty_like(actions)
        self.actions[self.order] = actions
        self.h0 = np.stack([segments[j].h0 for j in ranked])
        self.c0 = np.stack([segments[j].c0 for j in ranked])


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

    def log_probs(self, batch: PackedBatch) -> Tensor:
        """Log-probs of the stored actions under the current policy, shape (N,).

        Replays every segment from its stored state in one taped recurrence
        (`actor_sequence`, cutting the gradient every `bptt_chunk` steps), then
        takes the log-probs of all rows' means in one call, in buffer order.
        """
        means = self.policy.actor_sequence(batch.obs, batch.batch_sizes, batch.h0, batch.c0)
        return T.take(self.policy.log_prob(means, Tensor(batch.actions)), batch.order)

    def update(self, buffer: RolloutBuffer) -> dict:
        cfg = self.config
        batch = PackedBatch(buffer)

        rewards = np.array([tr.reward for tr in buffer.transitions])
        dones = np.array([tr.done for tr in buffer.transitions])
        with T.no_grad():
            values = self.policy.value(Tensor(np.vstack((batch.states, buffer.next_obs))))
        advantages, returns = gae_advantages(
            rewards, values.value, dones, cfg.discount, cfg.gae_lambda
        )
        adv_flat = normalize_advantages(advantages)

        stats = {}
        for epoch in range(cfg.epochs):
            self.optimizer.zero_grad()
            new_log_probs = self.log_probs(batch)
            if epoch == 0:
                # Epoch 0 runs the pre-update policy: its log-probs are the snapshot.
                old_flat = new_log_probs.value.copy()
            value_pred = self.policy.value(Tensor(batch.states))
            entropy = self.policy.entropy()
            loss = ppo_loss(new_log_probs, old_flat, adv_flat, value_pred, returns,
                            entropy, cfg)
            if not np.isfinite(loss.value):
                T.clear_tape()
                raise NumericAbort(
                    f"non-finite loss at epoch {epoch}",
                    dump={
                        "epoch": epoch,
                        "loss": float(loss.value),
                        "new_log_probs": new_log_probs.value.tolist(),
                        "values": value_pred.value.tolist(),
                        "rewards": rewards.tolist(),
                        "advantages": adv_flat.tolist(),
                        "returns": returns.tolist(),
                        "old_log_probs": old_flat.tolist(),
                    },
                )
            T.backward(loss)
            self.optimizer.step()
            if epoch == 0:
                stats["loss"] = float(loss.value)
                stats["entropy"] = float(entropy.value)
        return stats
