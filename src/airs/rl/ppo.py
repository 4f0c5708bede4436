"""Clipped-surrogate policy optimization over recurrent rollouts.

The buffer keeps plain rows in collection order, split into segments; every
segment carries the recurrent state the rollout stood in before its first
row, so updates replay each segment from the state it was collected from
(stored-state replay, Kapturowski et al., ICLR 2019).  The trainer starts a
segment at each episode start, after each update and every `nn.bptt_chunk`
rows, so a segment is one truncated piece of backpropagation through time.
When the buffer reaches the configured batch size the trainer computes
values and advantages (one critic pass over the states and the bootstrap
observation) and runs K epochs of full-batch gradient steps.  Each epoch
replays the segments, packed step-major and longest first with no padding
rows (`PackedBatch`), through one recurrent forward and feeds its log-probs
to `ppo_loss`, which returns the loss's gradients in closed form; one
reverse pass chains them through the critic, the Gaussian log-density and
the recurrence, whose state gradient starts at zero at each segment's end.
The cell's (N, .) arrays are built once per update, in one
`SequenceWorkspace` that every epoch reuses and that is freed when `update`
returns.  The actor side works in packed row order throughout, the critic
in buffer order.  Epoch 0 runs before any parameter moves, so its log-probs
are the snapshot of the pre-update policy; there is no separate replay pass.
"""

from dataclasses import dataclass

import numpy as np

from ..nn import tensor as T
from ..nn.layers import SequenceWorkspace
from ..nn.optim import Adam
from ..nn.policy import ActorCritic, gaussian_entropy


class NumericAbort(RuntimeError):
    """Raised when an update's loss, global gradient norm or parameters go
    non-finite; carries a diagnostic dump that names the check."""

    def __init__(self, message, dump):
        super().__init__(message, dump)  # both, so the error survives pickling
        self.dump = dump

    def __str__(self):
        return self.args[0]


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float
    discount: float
    gae_lambda: float
    epochs: int
    critic_weight: float
    entropy_weight: float
    learning_rate: float


class RolloutBuffer:
    """One update's rows as plain lists: `states`, `actions`, `rewards` (after
    episodic revision, when a shaper is on) and `dones`.  Segment k starts at
    row `starts[k]` from the recurrent state (`h0[k]`, `c0[k]`); `next_obs`
    follows the last row, for the bootstrap.  Nothing is copied: the env and
    the policy hand out a fresh array on every call, and nothing writes to it.
    """

    def __init__(self):
        self.clear()

    def __len__(self):
        return len(self.states)

    def begin_segment(self, lstm_state):
        h, c = lstm_state
        self.starts.append(len(self.states))
        self.h0.append(h)
        self.c0.append(c)

    def add(self, state, action, reward: float, done: bool, next_obs):
        if not self.starts:
            raise RuntimeError("begin_segment() must be called before add()")
        self.states.append(state)
        self.actions.append(action)
        self.rewards.append(reward)
        self.dones.append(done)
        self.next_obs = next_obs

    def clear(self):
        self.states, self.actions, self.rewards, self.dones = [], [], [], []
        self.starts, self.h0, self.c0 = [], [], []
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
    """Segments packed step-major, longest first, with no padding rows.

    Segments are stably sorted by length (their rank); step t holds one row
    of each of the first `batch_sizes[t]` (those still running), as
    `pack_padded_sequence` packs them, so each step's rows are one run.
    `obs` and `actions` are (N, ...).  `h0` and `c0` are in rank order.
    `order[i]` is the packed row of buffer index i, so `packed[order]` lists
    packed rows in buffer order, as `states` holds the observations.
    """

    def __init__(self, buffer: RolloutBuffer):
        starts = np.array(buffer.starts)
        lengths = np.diff(starts, append=len(buffer))
        ranked = np.argsort(-lengths, kind="stable")
        rank = np.argsort(ranked)
        self.batch_sizes = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
        t = np.arange(len(buffer)) - np.repeat(starts, lengths)
        offsets = np.cumsum(self.batch_sizes) - self.batch_sizes  # each step's first row
        self.order = offsets[t] + np.repeat(rank, lengths)
        self.states = np.stack(buffer.states)
        self.obs = self.pack(self.states)
        self.actions = self.pack(np.stack(buffer.actions))
        self.h0 = np.vstack([buffer.h0[j] for j in ranked])
        self.c0 = np.vstack([buffer.c0[j] for j in ranked])

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
        self.optimizer = Adam(policy.params(), lr=config.learning_rate)

    def update(self, buffer: RolloutBuffer):
        cfg = self.config
        policy = self.policy
        batch = PackedBatch(buffer)
        # The cell's (N, .) arrays, for every epoch; freed when `update` returns.
        work = SequenceWorkspace(policy.cell, batch.batch_sizes)

        values, _ = policy.value(np.vstack((batch.states, buffer.next_obs)))
        advantages, returns = gae_advantages(
            buffer.rewards, values, buffer.dones, cfg.discount, cfg.gae_lambda
        )
        advantages = normalize_advantages(advantages)
        packed_advantages = batch.pack(advantages)

        for epoch in range(cfg.epochs):
            self.optimizer.zero_grad()
            means, actor = policy.actor_sequence(batch.obs, work, batch.h0, batch.c0)
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
                        "check": "loss",
                        "epoch": epoch,
                        "loss": float(loss),
                        "new_log_probs": log_probs[batch.order].tolist(),
                        "values": value_pred.tolist(),
                        "rewards": np.array(buffer.rewards).tolist(),
                        "advantages": advantages.tolist(),
                        "returns": returns.tolist(),
                        "old_log_probs": old_log_probs[batch.order].tolist(),
                    },
                )
            caches = [actor, gaussian, critic]
            del means, actor, gaussian, critic  # `reverse` frees each cache once walked
            T.backward(self.reverse, caches, *grads)
            self.check_finite("grad_norm", epoch, loss)
            self.optimizer.step()
            policy.refresh()  # the parameters moved: rewrite what the forwards derive
            self.check_finite("parameters", epoch, loss)

    def check_finite(self, check: str, epoch: int, loss: float):
        """Raise NumericAbort when the global gradient norm (`check` "grad_norm",
        before the Adam step) or a parameter ("parameters", after it) is not
        finite.  The dump names the check, the epoch and the first parameter at
        fault: the first whose squared gradient takes the running sum past
        finite, or the first holding a non-finite value.
        """
        named = self.policy.named_params()
        if check == "grad_norm":
            running = np.cumsum([0.0 if p.grad is None else np.dot(p.grad.ravel(), p.grad.ravel())
                                 for _, p in named])
            faults = ~np.isfinite(running)
            detail = {"grad_norm": float(np.sqrt(running[-1]))}
        else:
            faults = [not np.isfinite(p.value).all() for _, p in named]
            detail = {}
        if np.any(faults):
            name = named[int(np.argmax(faults))][0]
            raise NumericAbort(
                f"non-finite {check} at epoch {epoch} (first in {name})",
                dump={"check": check, "epoch": epoch, "parameter": name, "loss": float(loss),
                      **detail},
            )

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
