import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import tape as T
from airs.nn.checkpoint import load_checkpoint, save_checkpoint
from airs.nn.layers import Dense, MogrifierLstm, SequenceWorkspace, uniform_init
from airs.nn.optim import Adam, adam_update
from airs.nn.policy import LOG_STD_MAX, LOG_STD_MIN, ActorCritic
from airs.nn.tensor import Param
from conftest import nn_section
from tape import Tensor

FD_STEP = 1e-5
FD_TOL = 1e-4


def finite_difference_check(loss, params, rng, samples=5):
    """Worst relative error of the gradients `loss(True)` adds into each param's
    .grad, against central differences of `loss(False)` (each returns the loss)."""
    loss(True)
    worst = 0.0
    for param in params:
        flat = param.value.ravel()
        grad = (param.grad if param.grad is not None else np.zeros_like(param.value)).ravel()
        count = min(samples, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            up = loss(False)
            flat[i] = keep - FD_STEP
            down = loss(False)
            flat[i] = keep
            fd = (up - down) / (2 * FD_STEP)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / denom)
    for param in params:
        param.grad = None
    return worst


def taped(build):
    """`finite_difference_check`'s loss for a scalar that `build()` tapes."""
    def loss(grad):
        out = build()
        if grad:
            T.backward(out)
        T.clear_tape()
        return float(out.value)

    return loss


def dense_loss(layer, x):
    """sum(tanh(layer.forward(x))**2), its gradient by `Dense.backward`."""
    def loss(grad):
        t = np.tanh(layer.forward(x))
        if grad:
            layer.backward(x, 2.0 * t * (1.0 - t**2), False)
        return float((t**2).sum())

    return loss


def run_sequence(cell, x, batch_sizes, h0, c0):
    """`cell.sequence` over input rows x, packed step-major, in a new workspace;
    returns (hidden states, workspace)."""
    work = SequenceWorkspace(cell, batch_sizes)
    work.x[...] = x
    return cell.sequence(work, h0, c0), work


def sequence_loss(cell, x, batch_sizes, h0, c0, w):
    """sum(hs * w) for hs = cell.sequence over x, its gradient by
    `sequence_backward`; x is a Param that takes its gradient too."""
    def loss(grad):
        cell.refresh()  # the check perturbs parameter values in place
        hs, work = run_sequence(cell, x.value, batch_sizes, h0, c0)
        if grad:
            x.add_grad(cell.sequence_backward(work, w))
        return float((hs * w).sum())

    return loss


def actor_critic_loss(policy, obs, actions, batch_sizes):
    """sum(log_prob(actor_sequence(obs), actions)) + sum(value(obs)**2), its
    gradient by the program's backward functions, chained as an update chains them."""
    def loss(grad):
        policy.refresh()  # the check perturbs parameter values in place
        state = policy.initial_state(batch_sizes[0])
        work = SequenceWorkspace(policy.cell, batch_sizes)
        means, actor = policy.actor_sequence(obs, work, *state)
        log_probs, gaussian = policy.log_prob(means, actions)
        values, critic = policy.value(obs)
        if grad:
            policy.value_backward(critic, 2.0 * values)
            g_means = policy.log_prob_backward(gaussian, np.ones_like(log_probs))
            policy.actor_sequence_backward(actor, g_means)
        return float(log_probs.sum() + (values**2).sum())

    return loss


# -- the reference tape's primitive ops ------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["matmul", "add", "mul", "tanh", "sigmoid", "exp", "square", "minimum",
     "clip", "sum_axis", "mean_all", "reshape"],
)
def test_primitive_gradients(name, rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)

    def build():
        if name == "matmul":
            out = T.matmul(a, w)
        elif name == "add":
            out = T.add(a, b)
        elif name == "mul":
            out = T.mul(a, b)
        elif name == "tanh":
            out = T.tanh(a)
        elif name == "sigmoid":
            out = T.sigmoid(a)
        elif name == "exp":
            out = T.exp(a)
        elif name == "square":
            out = T.square(a)
        elif name == "minimum":
            out = T.minimum(a, b)
        elif name == "clip":
            out = T.clip(a, -0.5, 0.5)
        elif name == "sum_axis":
            out = T.square(T.sum_axis(a, axis=1))
        elif name == "mean_all":
            out = T.mean_all(T.square(a))
        elif name == "reshape":
            out = T.square(T.reshape(a, (4, 3)))
        return T.sum_all(out)

    assert finite_difference_check(taped(build), [a, b, w], rng) < FD_TOL


def test_bias_broadcast_gradient(rng):
    x = Tensor(rng.standard_normal((5, 3)))
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    build = lambda: T.sum_all(T.square(T.add(x, bias)))
    assert finite_difference_check(taped(build), [bias], rng) < FD_TOL


# -- layer gradients against central differences ----------------------------------------


def test_dense_gradients(rng):
    layer = Dense(rng, 4, 3, "d")
    x = rng.standard_normal((6, 4))
    assert finite_difference_check(dense_loss(layer, x), [p for _, p in layer.params()],
                                   rng) < FD_TOL


def test_mogrify_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x = Param(rng.standard_normal((6, 4)))  # steps of 3 and 2 rows, then 1
    h0, c0 = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((6, 5))
    params = [p for name, p in cell.params() if ".Q" in name or ".R" in name]
    assert finite_difference_check(sequence_loss(cell, x, [3, 2, 1], h0, c0, w),
                                   params + [x], rng) < FD_TOL


def test_lstm_step_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=0, name="l")
    x = Param(rng.standard_normal((6, 4)))  # steps of 3 and 2 rows, then 1
    h0, c0 = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((6, 5))
    params = [p for _, p in cell.params()]
    assert finite_difference_check(sequence_loss(cell, x, [3, 2, 1], h0, c0, w),
                                   params + [x], rng) < FD_TOL


def test_gaussian_log_prob_gradients(rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=0, **nn_section(hidden=6))
    obs = rng.standard_normal((5, 4))
    actions = rng.standard_normal((5, 3))
    loss = actor_critic_loss(policy, obs, actions, [5])
    assert finite_difference_check(loss, policy.params(), rng) < FD_TOL


def test_full_actor_critic_gradients(rng):
    policy = ActorCritic(rng, obs_dim=5, action_dim=3, mogrifier_rounds=5, **nn_section(hidden=8))
    obs = rng.standard_normal((4, 5))
    actions = rng.standard_normal((4, 3))
    loss = actor_critic_loss(policy, obs, actions, [4])
    assert finite_difference_check(loss, policy.params(), rng) < FD_TOL


def test_bptt_8_step_gradients(rng):
    policy = ActorCritic(rng, obs_dim=3, action_dim=2, mogrifier_rounds=5,
                         **nn_section(hidden=5, bptt_chunk=0))
    obs_seq = rng.standard_normal((16, 3))  # 8 steps of 2 rows, packed step-major
    act_seq = rng.standard_normal((16, 2))
    loss = actor_critic_loss(policy, obs_seq, act_seq, [2] * 8)
    assert finite_difference_check(loss, policy.params(), rng, samples=3) < FD_TOL


# -- kernels against their primitive composition -----------------------------------------
#
# Dense and log_prob must reproduce the reference tape of the primitive ops
# they replace bit for bit: the same outputs and the same gradient in every
# input and parameter, including the order in which gradients add up.  The
# mogrifier cell computes its gates through tanh and its weight gradients as
# one gemm over all rows, and `actor_sequence` runs its trunk and head as one
# gemm over all rows, so both match the per-step primitive tape to 1e-12
# relative.  Each kernel enters the reference loss as one taped node over its
# forward and backward.  The reference cell runs each gate on its own leaf
# weights (`per_gate_leaves`), whose gradients are compared fused.


def dense_node(layer, x):
    """`layer` on the Tensor x as one taped node."""
    out = layer.forward(x.value)

    def backward_fn(g):
        gx = layer.backward(x.value, g, x.requires_grad)
        if gx is not None:
            x.add_grad(gx)

    return T.record(out, backward_fn)


def cell_sequence_node(cell, x, batch_sizes, h0, c0):
    """`cell.sequence` over the packed Tensor x as one taped node."""
    hs, work = run_sequence(cell, x.value, batch_sizes, h0, c0)
    return T.record(hs, lambda g: x.add_grad(cell.sequence_backward(work, g)))


def log_prob_node(policy, mean, actions):
    """`policy.log_prob` of the Tensor mean (which takes a gradient) as one taped node."""
    out, cache = policy.log_prob(mean.value, actions)
    return T.record(out, lambda g: mean.add_grad(policy.log_prob_backward(cache, g)))


def sequence_node(policy, obs, batch_sizes, h0, c0):
    """`policy.actor_sequence` as one taped node."""
    work = SequenceWorkspace(policy.cell, batch_sizes)
    means, cache = policy.actor_sequence(obs, work, h0, c0)
    return T.record(means, lambda g: policy.actor_sequence_backward(cache, g))


def unfused_dense(layer, x):
    return T.add(T.matmul(x, layer.W), layer.b)


def unfused_mogrify(cell, x, h):
    q_iter, r_iter = iter(cell.Q), iter(cell.R)
    for i in range(1, cell.rounds + 1):
        if i % 2 == 1:
            x = T.mul(T.mul(2.0, T.sigmoid(T.matmul(h, next(q_iter)))), x)
        else:
            h = T.mul(T.mul(2.0, T.sigmoid(T.matmul(x, next(r_iter)))), h)
    return x, h


def per_gate_leaves(cell):
    """Leaf copies of each gate's blocks of the fused W and b, and how their
    gradients fuse back: {id(fused Param): (leaves, fuse)}.  W's leaves are the
    four gates' x blocks, then their h blocks."""
    H, n_in = cell.hidden, cell.in_dim
    cols = [slice(k * H, (k + 1) * H) for k in range(len(cell.GATES))]
    blocks = ([cell.W.value[:n_in, s] for s in cols] + [cell.W.value[n_in:, s] for s in cols])
    return {
        id(cell.W): ([Tensor(w.copy(), requires_grad=True) for w in blocks],
                     lambda g: np.block([g[:4], g[4:]])),
        id(cell.b): ([Tensor(cell.b.value[s].copy(), requires_grad=True) for s in cols],
                     np.concatenate),
    }


def unfused_lstm_step(cell, x, state, leaves):
    h, c = state
    w, b = leaves[id(cell.W)][0], leaves[id(cell.b)][0]
    gates = {}
    for k, gate in enumerate(cell.GATES):
        pre = T.add(T.add(T.matmul(x, w[k]), T.matmul(h, w[4 + k])), b[k])
        gates[gate] = T.tanh(pre) if gate == "g" else T.sigmoid(pre)
    c_new = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
    return T.mul(gates["o"], T.tanh(c_new)), c_new


def unfused_log_prob(policy, mean, actions):
    log_std = T.clip(policy.log_std, LOG_STD_MIN, LOG_STD_MAX)
    inv_std = T.exp(T.neg(log_std))
    z = T.mul(T.sub(actions, mean), inv_std)
    quad = T.sum_axis(T.square(z), axis=1)
    norm = T.sum_all(log_std)
    const = 0.5 * policy.action_dim * math.log(2.0 * math.pi)
    return T.sub(T.mul(-0.5, quad), T.add(norm, Tensor(const)))


def unfused_actor_step(policy, obs, state, leaves):
    x = T.tanh(unfused_dense(policy.trunk, obs))
    x, h = unfused_mogrify(policy.cell, x, state[0])
    h, c = unfused_lstm_step(policy.cell, x, (h, state[1]), leaves)
    return T.tanh(unfused_dense(policy.mean_head, h)), (h, c)


def weighted_loss(outputs, inputs, rng):
    """Random-weighted sum of `outputs`, plus terms reusing each input that needs a
    gradient, so those inputs already hold one when the op's backward runs."""
    terms = [T.sum_all(T.mul(out, Tensor(rng.standard_normal(out.value.shape)))) for out in outputs]
    terms += [T.sum_all(T.square(t)) for t in inputs if t.requires_grad]
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


def fused_and_unfused(build, tensors, leaves=None):
    """`build(fused)` returns (outputs, loss); run it both ways.

    Returns, for fused and then unfused, the output values and the gradient
    of each of `tensors`.  `leaves` maps id(tensor) to (leaf Tensors the
    unfused build uses in its place, fuse): their gradients are returned as
    fuse(list of gradients), a leaf with no gradient counting as zeros.
    """
    leaves = leaves or {}
    everything = tensors + [leaf for parts, _ in leaves.values() for leaf in parts]

    def grad_of(t, fused):
        parts, fuse = (None, None) if fused else leaves.get(id(t), (None, None))
        if parts is None:
            return None if t.grad is None else t.grad.copy()
        if all(p.grad is None for p in parts):
            return None
        return fuse([np.zeros_like(p.value) if p.grad is None else p.grad for p in parts])

    results = []
    for fused in (True, False):
        for t in everything:
            t.grad = None
        outputs, loss = build(fused)
        T.backward(loss)
        results.append(([o.value.copy() for o in outputs], [grad_of(t, fused) for t in tensors]))
    for t in everything:
        t.grad = None
    return results


def assert_fused_matches_unfused(build, tensors, leaves=None):
    """`build(fused)` returns (outputs, loss); compare both ways bit for bit."""
    (out_f, grads_f), (out_u, grads_u) = fused_and_unfused(build, tensors, leaves)
    for a, b in zip(out_f, out_u):
        assert np.array_equal(a, b)
    for a, b in zip(grads_f, grads_u):
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)


def assert_close(a, b):
    """Max abs difference at most 1e-12 of the reference's max abs value."""
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def assert_fused_close_to_unfused(build, tensors, leaves=None):
    """`build(fused)` returns (outputs, loss); compare both ways to 1e-12 relative."""
    (out_f, grads_f), (out_u, grads_u) = fused_and_unfused(build, tensors, leaves)
    for a, b in zip(out_f, out_u):
        assert_close(a, b)
    for a, b in zip(grads_f, grads_u):
        assert (a is None) == (b is None)
        if a is not None:
            assert_close(a, b)


@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("input_grad", [True, False])
def test_fused_dense_matches_primitives(batch, input_grad, rng):
    layer = Dense(rng, 6, 4, "d")
    x = Tensor(rng.standard_normal((batch, 6)), requires_grad=input_grad)

    def build(fused):
        out = dense_node(layer, x) if fused else unfused_dense(layer, x)
        return [out], weighted_loss([out], [x], np.random.default_rng(1))

    assert_fused_matches_unfused(build, [x, layer.W, layer.b])


@pytest.mark.parametrize("obs_dim, action_dim", [(6, 3), (6, 19), (12, 3), (30, 19)])
def test_dense_forward_is_matmul_plus_bias_on_policy_shapes(obs_dim, action_dim):
    """`Dense.forward` (np.dot, then the bias added in place) gives the bits of
    x @ W + b on every layer of a policy, at the row counts of an `act` (1),
    of replay steps and of whole updates."""
    policy = ActorCritic(np.random.default_rng(obs_dim), obs_dim, action_dim,
                         mogrifier_rounds=5, **nn_section())
    rng = np.random.default_rng(action_dim)
    for layer in (policy.trunk, policy.mean_head, policy.v1, policy.v2, policy.v3):
        layer.b.value = rng.standard_normal(layer.b.value.shape)
        for rows in (1, 2, 3, 7, 16, 64, 250, 1000):
            x = rng.standard_normal((rows, layer.W.value.shape[0]))
            assert layer.forward(x).tobytes() == (x @ layer.W.value + layer.b.value).tobytes()


def cut_every(lengths, chunk):
    """The lengths of segments `lengths` cut every `chunk` steps (0 never cuts),
    in order, as the rollout cuts them."""
    if chunk == 0:
        return list(lengths)
    return [min(chunk, n - s) for n in lengths for s in range(0, n, chunk)]


def packed_grid(lengths):
    """(batch_sizes, t_idx, b_idx) of segments `lengths`, listed longest first,
    packed step-major: packed row i is step t_idx[i] of segment b_idx[i]."""
    lengths = np.asarray(lengths)
    live = np.arange(lengths.max())[:, None] < lengths[None, :]
    t_idx, b_idx = np.nonzero(live)
    return live.sum(axis=1), t_idx, b_idx


def rollout_states(cell, x, t_idx, h0, c0):
    """The hidden and cell states of `cell.step` run as rollout runs it, one step
    at a time, over packed rows whose steps are `t_idx`; in packed order."""
    h, c = h0, c0
    hs, cs = np.empty((2, len(x), cell.hidden))
    for t in range(t_idx.max() + 1):
        rows = np.flatnonzero(t_idx == t)
        h, c = cell.step(x[rows], h[:len(rows)], c[:len(rows)])
        hs[rows], cs[rows] = h, c
    return hs, cs


def assert_cell_sequence_matches_primitives(cell, lengths, read, rng):
    """`sequence` and its backward over packed rows of segments `lengths`
    (longest first), each from its own state, against the primitive rounds
    and cell stepped over the padded (T, B) grid.

    The loss weighs the hidden states of the steps `read` names ("all" or
    "last"); the grid's padded slots weigh zero.  Rolling `step` over the
    packed rows gives the sequence's hidden and cell states bit for bit.
    """
    batch_sizes, t_idx, b_idx = packed_grid(lengths)
    steps, batch = len(batch_sizes), len(lengths)
    xs = rng.standard_normal((steps, batch, cell.in_dim))
    h0, c0 = rng.standard_normal((2, batch, cell.hidden))
    weights = rng.standard_normal((steps, batch, cell.hidden))
    live = np.zeros((steps, batch, 1), dtype=bool)
    live[t_idx, b_idx] = True
    weights *= live
    if read == "last":
        weights[:-1] = 0.0
    x = Tensor(xs[t_idx, b_idx], requires_grad=True)
    grid = [Tensor(xs[t], requires_grad=True) for t in range(steps)]
    leaves = per_gate_leaves(cell)
    leaves[id(x)] = (grid, lambda g: np.stack(g)[t_idx, b_idx])

    def build(fused):
        if fused:
            hs = cell_sequence_node(cell, x, batch_sizes, h0, c0)
            return [hs], T.sum_all(T.mul(hs, Tensor(weights[t_idx, b_idx])))
        state, hidden, loss = (Tensor(h0), Tensor(c0)), [], None
        for t in range(steps):
            mx, mh = unfused_mogrify(cell, grid[t], state[0])
            state = unfused_lstm_step(cell, mx, (mh, state[1]), leaves)
            term = T.sum_all(T.mul(state[0], Tensor(weights[t])))
            loss = term if loss is None else T.add(loss, term)
            hidden.append(state[0].value)
        return [Tensor(np.stack(hidden)[t_idx, b_idx])], loss

    assert_fused_close_to_unfused(build, [x] + [p for _, p in cell.params()], leaves)
    hs, work = run_sequence(cell, x.value, batch_sizes, h0, c0)
    rolled_h, rolled_c = rollout_states(cell, x.value, t_idx, h0, c0)
    assert np.array_equal(rolled_h, hs)
    assert np.array_equal(rolled_c, work.cs)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("grads", ["x", "h", "both"])
@pytest.mark.parametrize("shrinks", [True, False])
def test_fused_mogrify_matches_primitives(rounds, batch, grads, shrinks, rng):
    """`sequence` over three packed steps with gating rounds, against the
    primitive rounds and cell.

    `grads` names the paths the gradient takes into each step's inputs: "x"
    alone cuts the segments every step (`bptt_chunk` 1), so each row starts
    from its own state; with "h" the loss reads the last step only, so the
    earlier steps take their gradient through the carried state pair alone;
    "both" reads every step, uncut.  With `shrinks` two more segments end
    after one and two steps, so the later steps carry a prefix of the
    earlier steps' rows.
    """
    cell = MogrifierLstm(rng, 4, 5, rounds=rounds, name="m")
    lengths = cut_every([3] * batch + ([2, 1] if shrinks else []), 1 if grads == "x" else 0)
    assert_cell_sequence_matches_primitives(cell, lengths, "last" if grads == "h" else "all",
                                            rng)


@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("uses", ["h", "c", "both"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_fused_lstm_step_matches_primitives(batch, uses, input_grad, rng):
    """One rollout `step` without gating rounds against the primitive step, on
    the outputs `uses` names.  With `input_grad` the step also runs as a
    one-step `sequence`, whose x and weight gradients match the primitive's."""
    cell = MogrifierLstm(rng, 4, 5, rounds=0, name="l")
    x = rng.standard_normal((batch, 4))
    h, c = rng.standard_normal((2, batch, 5))
    nh, nc = cell.step(x, h, c)
    ref_h, ref_c = unfused_lstm_step(cell, Tensor(x), (Tensor(h), Tensor(c)),
                                     per_gate_leaves(cell))
    T.clear_tape()
    if uses != "c":
        assert_close(nh, ref_h.value)
    if uses != "h":
        assert_close(nc, ref_c.value)
    if input_grad:
        assert_cell_sequence_matches_primitives(cell, [1] * batch, "all", rng)


@pytest.mark.parametrize("batch, log_std", [
    pytest.param(1, [-6.0, -0.7, 0.4, 1.5], id="1"),  # two dims clamped
    pytest.param(10, [-6.0, -0.7, 0.4, 1.5], id="10"),
    # Every dim inside the clamp, over as many rows as an update reduces, so the
    # summation order of each column of the log-std gradient shows.
    pytest.param(1000, [-4.2, -0.7, 0.4, 0.9], id="1000"),
])
def test_fused_log_prob_matches_primitives(batch, log_std, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=4, mogrifier_rounds=0, **nn_section(hidden=6))
    policy.log_std.value = np.array(log_std)
    mean = Tensor(rng.standard_normal((batch, 4)), requires_grad=True)
    actions = rng.standard_normal((batch, 4))

    def build(fused):
        logp = (log_prob_node(policy, mean, actions) if fused
                else unfused_log_prob(policy, mean, Tensor(actions)))
        return [logp], weighted_loss([logp], [mean], np.random.default_rng(1))

    assert_fused_matches_unfused(build, [mean, policy.log_std])


def unfused_log_probs(policy, obs, h0, c0, actions, leaves):
    """Per-step log-prob Tensors of the primitive per-step tape over a (T, B) grid,
    column b from state (h0[b], c0[b])."""
    state = (Tensor(h0), Tensor(c0))
    out = []
    for t in range(len(obs)):
        mean, state = unfused_actor_step(policy, Tensor(obs[t]), state, leaves)
        out.append(unfused_log_prob(policy, mean, Tensor(actions[t])))
    return out


def assert_sequence_matches_per_step_tape(policy, lengths, rng):
    """`log_prob(actor_sequence(...))` over packed rows, as the update runs it,
    against the per-step primitive tape over the padded (T, B) grid, each
    segment from its own state.

    Packed rows follow the segments longest first (stable), step-major.  Both
    losses weight each live step's log-prob the same; the grid's padded slots
    weigh zero.  Both also reuse log_std after the log-probs, so it already holds
    a gradient when `log_prob`'s backward adds its own, as in the update.
    """
    lengths = np.array(lengths)
    steps, batch = lengths.max(), len(lengths)
    ranked = np.argsort(-lengths, kind="stable")
    packed = [(t, b) for t in range(steps) for b in ranked if t < lengths[b]]
    batch_sizes = [sum(n > t for n in lengths) for t in range(steps)]
    obs = rng.standard_normal((steps, batch, policy.trunk.W.value.shape[0]))
    actions = rng.standard_normal((steps, batch, policy.action_dim))
    h0, c0 = rng.standard_normal((2, batch, policy.cell.hidden))
    live = np.arange(steps)[:, None] < lengths[None, :]
    weights = rng.standard_normal((steps, batch)) * live
    t_idx, b_idx = np.array(packed).T
    leaves = per_gate_leaves(policy.cell)

    def build(fused):
        if fused:
            means = sequence_node(policy, obs[t_idx, b_idx], batch_sizes, h0[ranked],
                                  c0[ranked])
            logp = log_prob_node(policy, means, actions[t_idx, b_idx])
            loss = T.sum_all(T.mul(logp, Tensor(weights[t_idx, b_idx])))
            return [logp], T.add(loss, T.sum_all(T.square(policy.log_std)))
        per_step = unfused_log_probs(policy, obs, h0, c0, actions, leaves)
        loss = T.sum_all(T.mul(per_step[0], Tensor(weights[0])))
        for logp_t, w_t in zip(per_step[1:], weights[1:]):
            loss = T.add(loss, T.sum_all(T.mul(logp_t, Tensor(w_t))))
        grid = np.stack([logp_t.value for logp_t in per_step])
        loss = T.add(loss, T.sum_all(T.square(policy.log_std)))
        return [Tensor(grid[t_idx, b_idx])], loss

    assert_fused_close_to_unfused(build, policy.params(), leaves)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
def test_fused_recurrent_sequence_matches_primitives(rounds, rng):
    """Ten 20-step segments cut every 8 steps, as the rollout cuts them at
    `bptt_chunk` 8: 30 segments of 8, 8 and 4 steps, each from its own state.
    A one-step `actor_sequence` gives rollout `actor_step`'s means and state
    bit for bit."""
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=rounds,
                         **nn_section(hidden=6))
    policy.log_std.value = np.array([-6.0, -0.7, 1.5])  # two dims clamped
    assert_sequence_matches_per_step_tape(policy, cut_every([20] * 10, 8), rng)
    obs = rng.standard_normal((10, policy.trunk.W.value.shape[0]))
    h0, c0 = rng.standard_normal((2, 10, policy.cell.hidden))
    mean, (h, c) = policy.actor_step(obs, (h0, c0))
    work = SequenceWorkspace(policy.cell, [10])
    means, _ = policy.actor_sequence(obs, work, h0, c0)
    assert np.array_equal(mean, means)
    assert np.array_equal(h, work.hs)
    assert np.array_equal(c, work.cs)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
@pytest.mark.parametrize("chunk", [0, 3, 16])
def test_actor_sequence_matches_per_step_tape(rounds, chunk, rng):
    """The unpadded 20x10 grid, then segments of 17, 9, 4, 17 and 12 steps (the
    packed batch shrinks as they end), cut as the rollout cuts them: never,
    every 3 steps, or once at t = 16."""
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=rounds,
                         **nn_section(hidden=6))
    policy.log_std.value = np.array([-6.0, -0.7, 1.5])  # two dims clamped
    for lengths in ([20] * 10, [17, 9, 4, 17, 12]):
        assert_sequence_matches_per_step_tape(policy, cut_every(lengths, chunk), rng)


def owned_arrays(work) -> dict:
    """The arrays of at least N rows that own the memory of every array a
    workspace holds, through its attributes and nested tuples and lists, by id."""
    found, items = {}, list(vars(work).values())
    while items:  # a loop, not a recursive closure, whose cycle would keep `work` alive
        item = items.pop()
        if isinstance(item, (tuple, list)):
            items.extend(item)
        elif isinstance(item, np.ndarray):
            while item.base is not None:
                item = item.base
            if len(item) >= len(work.hs):
                found[id(item)] = item
    return found


def test_sequence_cache_does_not_grow_with_steps(rng):
    """`sequence` writes every step into the same (N, .) arrays: a 40-step
    workspace owns as many arrays as a 2-step one, and the backward writes the
    gates' pre-activation gradient over their activations."""
    cell = MogrifierLstm(rng, 4, 5, rounds=5)
    counts = []
    for steps in (2, 40):
        x = rng.standard_normal((3 * steps, 4))
        hs, work = run_sequence(cell, x, [3] * steps, *cell.initial_state(3))
        counts.append(len(owned_arrays(work)))
    before = work.acts.copy()
    cell.sequence_backward(work, np.ones_like(hs))
    assert counts[0] == counts[1]
    assert not np.array_equal(work.acts, before)
    assert np.array_equal(cell.b.grad, work.acts.sum(axis=0))


@pytest.mark.parametrize("rounds", [0, 5])
@pytest.mark.parametrize("chunk", [0, 1, 3, "T", "T+5"])
@pytest.mark.parametrize("lengths", [
    pytest.param([9, 9, 6, 3], id="end-on-piece-boundary"),  # pieces of 3 steps end at 3, 6, 9
    pytest.param([8, 7, 5, 4, 2, 1], id="end-mid-piece"),
])
def test_lane_walk_matches_per_step_walk(rounds, chunk, lengths, rng):
    """The reverse walk runs one step of every packed segment (a lane) as one
    block of rows, and starts each segment's state gradient at zero at its
    end; it gives the input and parameter gradients of walking each segment
    alone, one row per step, to 1e-12 relative, whatever a BLAS kernel rounds
    differently by a row's position in a block.  The segments are `lengths`
    cut every `chunk` steps, as the rollout cuts them; chunks of T and more
    leave them whole, as 0 does."""
    steps = max(lengths)
    chunk = {"T": steps, "T+5": steps + 5}.get(chunk, chunk)
    cell = MogrifierLstm(rng, 4, 5, rounds=rounds, name="m")
    pieces = sorted(cut_every(lengths, chunk), reverse=True)
    batch_sizes, _, b_idx = packed_grid(pieces)
    x = rng.standard_normal((sum(pieces), 4))
    h0, c0 = rng.standard_normal((2, len(pieces), 5))
    g_hs = rng.standard_normal((sum(pieces), 5))
    found = []
    for lane_walk in (True, False):
        for _, p in cell.params():
            p.grad = None
        if lane_walk:
            _, work = run_sequence(cell, x, batch_sizes, h0, c0)
            gx = cell.sequence_backward(work, g_hs)
        else:
            gx = np.empty_like(x)
            for b, length in enumerate(pieces):
                rows = np.flatnonzero(b_idx == b)  # segment b's rows, in step order
                _, work = run_sequence(cell, x[rows], [1] * length, h0[b:b + 1], c0[b:b + 1])
                gx[rows] = cell.sequence_backward(work, g_hs[rows])
        found.append([gx] + [p.grad for _, p in cell.params()])
    for lane, step in zip(*found):
        assert_close(lane, step)


@pytest.mark.parametrize("lengths", [[6, 6, 6], [7, 7, 5, 2]])
@pytest.mark.parametrize("chunk", [0, 2, 4, 6, 9])
def test_piece_major_rows_are_runs(lengths, chunk):
    """Segments cut every `chunk` steps into pieces, as the rollout cuts them,
    and packed step-major: every step's rows are one run, and the x, h_in and
    `out` arrays the forward and reverse walks read for it are views of the
    workspace's arrays at its first row."""
    cell = MogrifierLstm(np.random.default_rng(0), 3, 4, rounds=2)
    batch_sizes, t_idx, _ = packed_grid(sorted(cut_every(lengths, chunk), reverse=True))
    work = SequenceWorkspace(cell, batch_sizes)
    address = lambda a: a.__array_interface__["data"][0]
    assert len(work.steps) == len(batch_sizes)
    for t, (rows, x, h_in, out) in enumerate(work.steps):
        first = np.flatnonzero(t_idx == t)[0]
        assert rows == slice(first, first + batch_sizes[t])
        assert len(x) == len(h_in) == batch_sizes[t]
        assert address(x) == address(work.x[first:])
        assert address(h_in) == address(work.h_in[first:])
        assert address(out[-1]) == address(work.hs[first:])


def test_one_workspace_serves_every_epoch(rng):
    """Two epochs (new inputs, weights and gradients) through one workspace give
    the hidden states and gradients of a fresh workspace per epoch, bit for bit."""
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    batch_sizes = packed_grid([9, 9, 6, 3])[0]
    epochs = [(rng.standard_normal((27, 4)), rng.standard_normal((2, 4, 5)),
               rng.standard_normal((27, 5)), rng.standard_normal(cell.W.value.shape))
              for _ in range(2)]
    start = {name: p.value.copy() for name, p in cell.params()}
    found = []
    for shared in (True, False):
        for name, p in cell.params():
            p.value = start[name].copy()
        cell.refresh()
        work = SequenceWorkspace(cell, batch_sizes)
        for x, (h0, c0), g_hs, dW in epochs:
            if not shared:
                work = SequenceWorkspace(cell, batch_sizes)
            for _, p in cell.params():
                p.grad = None
            work.x[...] = x
            hs = cell.sequence(work, h0, c0).copy()
            gx = cell.sequence_backward(work, g_hs).copy()
            found.append([hs, gx] + [p.grad for _, p in cell.params()])
            cell.W.value = cell.W.value + 0.1 * dW
            cell.refresh()
    for one, fresh in zip(found[:2], found[2:]):
        for a, b in zip(one, fresh):
            assert np.array_equal(a, b)


# -- mogrifier behaviour ----------------------------------------------------------------


def copy_lstm_weights(dst: MogrifierLstm, src: MogrifierLstm):
    dst.W.value = src.W.value.copy()
    dst.b.value = src.b.value.copy()
    dst.refresh()


def test_zero_mogrifier_matches_plain_lstm_bitwise(rng):
    gated = MogrifierLstm(rng, 6, 7, rounds=5, name="a")
    for q in gated.Q:
        q.value = np.zeros_like(q.value)
    for r in gated.R:
        r.value = np.zeros_like(r.value)
    gated.refresh()
    plain = MogrifierLstm(np.random.default_rng(0), 6, 7, rounds=0, name="b")
    copy_lstm_weights(plain, gated)
    x = rng.standard_normal((3, 6))
    state_a = gated.initial_state(3)
    state_b = plain.initial_state(3)
    for _ in range(4):
        state_a = gated.step(x, *state_a)
        state_b = plain.step(x, *state_b)
    assert np.array_equal(state_a[0], state_b[0])
    assert np.array_equal(state_a[1], state_b[1])


def test_zero_rounds_leaves_inputs_untouched(rng):
    cell = MogrifierLstm(rng, 4, 4, rounds=0)
    x = rng.standard_normal((2, 4))
    h = rng.standard_normal((2, 4))
    mx, mh = cell.mogrify(x, h)
    assert mx is x and mh is h


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_mogrify_matches_unrolled_oracle(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x0 = rng.standard_normal((3, 4))
    h0 = rng.standard_normal((3, 5))
    mx, mh = cell.mogrify(x0, h0)
    x, h = x0.copy(), h0.copy()
    q_list = [q.value for q in cell.Q]
    r_list = [r.value for r in cell.R]
    qi = ri = 0
    for i in range(1, 6):
        if i % 2 == 1:
            x = 2.0 * sigmoid_ref(h @ q_list[qi]) * x
            qi += 1
        else:
            h = 2.0 * sigmoid_ref(x @ r_list[ri]) * h
            ri += 1
    assert np.max(np.abs(mx - x)) < 1e-12
    assert np.max(np.abs(mh - h)) < 1e-12


def test_lstm_zero_everything_gives_zero_hidden(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    cell.W.value = np.zeros_like(cell.W.value)
    cell.b.value = np.zeros_like(cell.b.value)
    cell.refresh()
    h, c = cell.step(np.zeros((2, 3)), *cell.initial_state(2))
    assert np.array_equal(h, np.zeros((2, 4)))


def test_lstm_forced_gates_carry_memory(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    cell.W.value = np.zeros_like(cell.W.value)
    gates = cell.b.value.reshape(len(MogrifierLstm.GATES), 4)  # a view of b, per gate
    gate = MogrifierLstm.GATES.index
    gates[gate("f")] = 40.0   # forget gate pinned to 1
    gates[gate("i")] = -40.0  # input gate pinned to 0
    gates[gate("o")] = 0.0
    cell.refresh()
    c0 = rng.standard_normal((2, 4))
    h, c = cell.step(np.zeros((2, 3)), np.zeros((2, 4)), c0)
    assert np.max(np.abs(c - c0)) < 1e-12


def test_lstm_matches_scalar_loop_oracle(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    x = rng.standard_normal((2, 3))
    h0 = rng.standard_normal((2, 4))
    c0 = rng.standard_normal((2, 4))
    h, c = cell.step(x, h0, c0)
    xh = np.concatenate((x, h0), axis=1)
    for row in range(2):
        for j in range(4):
            pre = {}
            for k, gate in enumerate(MogrifierLstm.GATES):
                s = cell.b.value[4 * k + j]
                for i in range(7):
                    s += xh[row, i] * cell.W.value[i, 4 * k + j]
                pre[gate] = s
            i_g = sigmoid_ref(pre["i"])
            f_g = sigmoid_ref(pre["f"])
            o_g = sigmoid_ref(pre["o"])
            g_g = math.tanh(pre["g"])
            c_ref = f_g * c0[row, j] + i_g * g_g
            h_ref = o_g * math.tanh(c_ref)
            assert abs(c[row, j] - c_ref) < 1e-12
            assert abs(h[row, j] - h_ref) < 1e-12


# -- backward semantics --------------------------------------------------------------


def test_backward_quadratic_exact(rng):
    p = Tensor(rng.standard_normal(7), requires_grad=True)
    loss = T.sum_all(T.square(p))
    T.backward(loss)
    assert np.array_equal(p.grad, 2.0 * p.value)


def test_backward_constant_loss_leaves_grads_zero():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.zeros(3)
    T.backward(Tensor(5.0))
    assert np.array_equal(p.grad, np.zeros(3))


def test_backward_accumulates_across_calls(rng):
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    T.backward(T.sum_all(T.square(p)))
    T.backward(T.sum_all(T.square(p)))
    assert np.allclose(p.grad, 4.0 * p.value)


def test_backward_drops_each_closure_once_walked():
    """A node's backward_fn and gradient are gone before the nodes taped
    ahead of it run; the leaf keeps its gradient."""
    p = Tensor(np.ones(2), requires_grad=True)
    seen = []

    def first_backward(g):
        seen.append((second.backward_fn, second.grad))
        p.add_grad(2.0 * g)

    first = T.record(2.0 * p.value, first_backward)
    second = T.record(first.value.sum(), lambda g: first.add_grad(g * np.ones(2)))
    T.backward(second)
    assert seen == [(None, None)]
    assert first.grad is None
    assert np.array_equal(p.grad, [2.0, 2.0])


def test_backward_rejects_nonscalar(rng):
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(T.square(p))


def test_no_grad_tape_stays_empty(rng):
    p = Tensor(rng.standard_normal(4), requires_grad=True)
    with T.no_grad():
        T.sum_all(T.square(p))
    assert T.tape_size() == 0


# -- optimizer -------------------------------------------------------------------------


def test_adam_zero_gradient_no_motion():
    param = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    before = param.copy()
    adam_update(param, np.zeros(2), m, v, 0.1, 0.9, 0.999, 1e-8, 1)
    assert np.array_equal(param, before)


def test_adam_first_step_closed_form():
    g = np.array([0.3, -4.0, 1e-3])
    param = np.zeros(3)
    adam_update(param, g, np.zeros(3), np.zeros(3), 0.01, 0.9, 0.999, 1e-8, 1)
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(param, expected, rtol=1e-12)


def test_adam_moments_in_place_equal_textbook_bit_for_bit():
    rng = np.random.default_rng(3)
    t = Param(np.zeros((5, 4)))  # so each step's last bits reach the parameter
    opt = Adam([t], lr=0.01)
    m_ref, v_ref, value = np.zeros((5, 4)), np.zeros((5, 4)), t.value.copy()
    moments = opt.m[0], opt.v[0]
    for step in range(1, 6):
        g = rng.standard_normal((5, 4)) * 10.0 ** rng.integers(-6, 3, (5, 4))
        t.grad = g
        opt.step()
        m_ref = 0.9 * m_ref + (1.0 - 0.9) * g
        v_ref = 0.999 * v_ref + (1.0 - 0.999) * g**2
        m_hat = m_ref / (1.0 - 0.9**step)
        v_hat = v_ref / (1.0 - 0.999**step)
        value -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(t.value, value)
        assert np.array_equal(opt.m[0], m_ref) and np.array_equal(opt.v[0], v_ref)
    assert opt.m[0] is moments[0] and opt.v[0] is moments[1]


def test_adam_descends_against_constant_gradient():
    t = Param(np.array([2.0]))
    opt = Adam([t], lr=0.05)
    for _ in range(50):
        opt.zero_grad()
        t.grad = np.array([3.0])
        opt.step()
    assert t.value[0] < 2.0 - 1.0


def test_adam_skips_missing_grads():
    t = Param(np.array([1.0]))
    opt = Adam([t], lr=0.1)
    opt.zero_grad()
    opt.step()
    assert t.value[0] == 1.0


# -- determinism and checkpointing --------------------------------------------------------


def test_same_seed_identical_networks_and_outputs():
    obs = np.random.default_rng(5).standard_normal((3, 4))
    outs = []
    for _ in range(2):
        policy = ActorCritic(np.random.default_rng(77), obs_dim=4, action_dim=2,
                             mogrifier_rounds=5, **nn_section(hidden=6))
        mean, _ = policy.actor_step(obs, policy.initial_state(3))
        value, _ = policy.value(obs)
        outs.append((mean.copy(), value.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_checkpoint_round_trip_byte_exact(tmp_path, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5, **nn_section(hidden=6))
    named = [(n, p.value) for n, p in policy.named_params()]
    save_checkpoint(tmp_path / "ck", named, hyperparams={"note": "x"})
    manifest, arrays = load_checkpoint(tmp_path / "ck")
    assert manifest["hyperparams"] == {"note": "x"}
    for name, value in named:
        assert arrays[name].tobytes() == value.astype("<f8").tobytes()
    # A second save of the loaded arrays reproduces the file bytes exactly.
    save_checkpoint(tmp_path / "ck2", [(n, arrays[n]) for n, _ in named], {"note": "x"})
    assert (tmp_path / "ck" / "params.bin").read_bytes() == (
        tmp_path / "ck2" / "params.bin"
    ).read_bytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=5, **nn_section(hidden=6))
    save_checkpoint(
        tmp_path / "ck",
        [(n, p.value) for n, p in policy.named_params()],
        hyperparams={},
    )
    _, arrays = load_checkpoint(tmp_path / "ck")
    other = ActorCritic(rng, obs_dim=5, action_dim=3, mogrifier_rounds=5, **nn_section(hidden=6))
    with pytest.raises(ValueError):
        other.load_state(arrays)


def gate_blocks(cell):
    """The fused W and b split per gate: (Wx (4, in, H), Wh (4, H, H), b (4, H))."""
    H, n_in, gates = cell.hidden, cell.in_dim, len(cell.GATES)
    w = cell.W.value.reshape(n_in + H, gates, H).transpose(1, 0, 2)
    return w[:, :n_in], w[:, n_in:], cell.b.value.reshape(gates, H)


def test_seed_gives_the_per_gate_draw_order_weights():
    """A seed still gives the weights drawn per gate, Wx then Wh, then the
    gating rounds: W holds the per-gate blocks side by side."""
    cell = MogrifierLstm(np.random.default_rng(5), 4, 6, rounds=3)
    ref = np.random.default_rng(5)
    wx, wh = [], []
    for _ in MogrifierLstm.GATES:
        wx.append(uniform_init(ref, 4, (4, 6)))
        wh.append(uniform_init(ref, 6, (6, 6)))
    rounds = [uniform_init(ref, 6, (6, 4)), uniform_init(ref, 4, (4, 6)),
              uniform_init(ref, 6, (6, 4))]
    got_wx, got_wh, got_b = gate_blocks(cell)
    assert np.array_equal(got_wx, np.stack(wx)) and np.array_equal(got_wh, np.stack(wh))
    assert np.array_equal(got_b, [np.zeros(6), np.ones(6), np.zeros(6), np.zeros(6)])
    for got, want in zip((cell.Q[0], cell.R[0], cell.Q[1]), rounds):
        assert np.array_equal(got.value, want)


def test_failed_save_leaves_previous_checkpoint(tmp_path, rng, monkeypatch):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, mogrifier_rounds=0, **nn_section(hidden=6))
    named = [(n, p.value) for n, p in policy.named_params()]
    target = tmp_path / "ck"
    save_checkpoint(target, named, hyperparams={"save": 1})

    def fail(*args, **kwargs):
        raise OSError("disk full")

    replace = os.replace

    def fail_moving_new_in(src, dst):  # moving the old one aside and back still works
        if json.loads((Path(src) / "manifest.json").read_text())["hyperparams"] == {"save": 2}:
            fail()
        replace(src, dst)

    # The manifest's write, after params.bin; then the move of the new one in.
    for owner, attr, patch in ((Path, "write_text", fail), (os, "replace", fail_moving_new_in)):
        monkeypatch.setattr(owner, attr, patch)
        with pytest.raises(OSError):
            save_checkpoint(target, [(n, v + 1.0) for n, v in named], hyperparams={"save": 2})
        monkeypatch.undo()
        manifest, arrays = load_checkpoint(target)
        assert manifest["hyperparams"] == {"save": 1}
        for name, value in named:
            assert np.array_equal(arrays[name], value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    # A save that completes replaces the old checkpoint.
    save_checkpoint(target, [(n, v + 1.0) for n, v in named], hyperparams={"save": 2})
    manifest, arrays = load_checkpoint(target)
    assert manifest["hyperparams"] == {"save": 2}
    for name, value in named:
        assert np.array_equal(arrays[name], value + 1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_uniform_init_spans_fan_in_limit(rng):
    values = uniform_init(rng, 16, (1000,))
    assert np.all(np.abs(values) <= 0.25)
    assert values.std() > 0.05
