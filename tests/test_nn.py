import json
import math
from pathlib import Path

import numpy as np
import pytest

from airs.nn import tensor as T
from airs.nn.checkpoint import load_checkpoint, save_checkpoint
from airs.nn.layers import Dense, MogrifierLstm, uniform_init
from airs.nn.optim import Adam, adam_update
from airs.nn.policy import ActorCritic
from airs.nn.tensor import Tensor

FD_STEP = 1e-5
FD_TOL = 1e-4


def finite_difference_check(build_loss, params, rng, samples=5):
    """Compare reverse-mode gradients against central differences."""
    loss = build_loss()
    T.backward(loss)
    worst = 0.0
    for param in params:
        flat = param.value.ravel()
        grad = (param.grad if param.grad is not None else np.zeros_like(param.value)).ravel()
        count = min(samples, flat.size)
        for i in rng.choice(flat.size, size=count, replace=False):
            keep = flat[i]
            flat[i] = keep + FD_STEP
            with T.no_grad():
                up = float(build_loss().value)
            flat[i] = keep - FD_STEP
            with T.no_grad():
                down = float(build_loss().value)
            flat[i] = keep
            fd = (up - down) / (2 * FD_STEP)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            worst = max(worst, abs(fd - grad[i]) / denom)
    for param in params:
        param.grad = None
    return worst


# -- primitive ops ------------------------------------------------------------------


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

    assert finite_difference_check(build, [a, b, w], rng) < FD_TOL


def test_take_gradients_skip_untaken_slots(rng):
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    order = np.array([5, 0, 9, 4, 1, 8, 6])  # flat slots 2, 3, 7, 10, 11 are never taken
    weights = Tensor(rng.standard_normal(order.size))
    build = lambda: T.sum_all(T.mul(T.square(T.take(a, order)), weights))
    T.backward(build())
    untaken = np.setdiff1d(np.arange(a.value.size), order)
    assert np.all(a.grad.ravel()[untaken] == 0.0)
    assert np.all(a.grad.ravel()[order] != 0.0)
    a.grad = None
    assert finite_difference_check(build, [a], rng, samples=a.value.size) < FD_TOL


def test_bias_broadcast_gradient(rng):
    x = Tensor(rng.standard_normal((5, 3)))
    bias = Tensor(rng.standard_normal(3), requires_grad=True)
    build = lambda: T.sum_all(T.square(T.add(x, bias)))
    assert finite_difference_check(build, [bias], rng) < FD_TOL


# -- layer gradients ------------------------------------------------------------------


def test_dense_gradients(rng):
    layer = Dense(rng, 4, 3, "d")
    x = Tensor(rng.standard_normal((6, 4)))
    build = lambda: T.sum_all(T.square(T.tanh(layer(x))))
    assert finite_difference_check(build, [p for _, p in layer.params()], rng) < FD_TOL


def taped_step_loss(cell, x, h, c, wh, wc=None):
    """sum(h' * wh) + sum(c' * wc) for (h', c') = cell.step(x, h, c), taped as one node.

    Returns (loss, h', c').  The backward hands `step_backward` the output
    gradients, zeros for h' when `wh` is None and none for c' when `wc` is,
    and adds the input gradients to x and to the state pair (h and c need a
    gradient together).  Untaped under no_grad, like the program's ops.
    """
    h_new, c_new, cache = cell.step(x.value, h.value, c.value)
    terms = [(out * w).sum() for out, w in ((h_new, wh), (c_new, wc)) if w is not None]
    loss = sum(terms)
    if not T.grad_enabled():
        return Tensor(loss), h_new, c_new

    def backward_fn(g):
        gh = np.zeros_like(h_new) if wh is None else g * wh
        gx, gh, gc = cell.step_backward(cache, gh, None if wc is None else g * wc,
                                        h.requires_grad)
        if x.requires_grad:
            x.add_grad(gx)
        if h.requires_grad:
            h.add_grad(gh)
            c.add_grad(gc)

    return T.record(loss, backward_fn), h_new, c_new


def test_mogrify_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x, h, c = (Tensor(rng.standard_normal((3, n)), requires_grad=True) for n in (4, 5, 5))
    wh, wc = rng.standard_normal((2, 3, 5))
    build = lambda: taped_step_loss(cell, x, h, c, wh, wc)[0]
    params = [p for name, p in cell.params() if ".Q" in name or ".R" in name]
    assert finite_difference_check(build, params + [x, h, c], rng) < FD_TOL


def test_lstm_step_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=0, name="l")
    x, h, c = (Tensor(rng.standard_normal((3, n)), requires_grad=True) for n in (4, 5, 5))
    wh, wc = rng.standard_normal((2, 3, 5))
    build = lambda: taped_step_loss(cell, x, h, c, wh, wc)[0]
    params = [p for _, p in cell.params()]
    assert finite_difference_check(build, params + [x, h, c], rng) < FD_TOL


def test_gaussian_log_prob_gradients(rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=0)
    obs = rng.standard_normal((5, 4))
    actions = rng.standard_normal((5, 3))

    def build():
        means = policy.actor_sequence(obs, [5], *policy.initial_state(5))
        return T.sum_all(policy.log_prob(means, Tensor(actions)))

    assert finite_difference_check(build, policy.params(), rng) < FD_TOL


def test_full_actor_critic_gradients(rng):
    policy = ActorCritic(rng, obs_dim=5, action_dim=3, hidden=8, mogrifier_rounds=5)
    obs = rng.standard_normal((4, 5))
    actions = rng.standard_normal((4, 3))

    def build():
        means = policy.actor_sequence(obs, [4], *policy.initial_state(4))
        logp = policy.log_prob(means, Tensor(actions))
        value = policy.value(Tensor(obs))
        return T.add(T.sum_all(logp), T.sum_all(T.square(value)))

    assert finite_difference_check(build, policy.params(), rng) < FD_TOL


def test_bptt_8_step_gradients(rng):
    policy = ActorCritic(rng, obs_dim=3, action_dim=2, hidden=5, mogrifier_rounds=5,
                         bptt_chunk=0)
    obs_seq = rng.standard_normal((16, 3))  # 8 steps of 2 rows, packed step-major
    act_seq = rng.standard_normal((16, 2))

    def build():
        means = policy.actor_sequence(obs_seq, [2] * 8, *policy.initial_state(2))
        return T.sum_all(policy.log_prob(means, Tensor(act_seq)))

    assert finite_difference_check(build, policy.params(), rng, samples=3) < FD_TOL


# -- fused ops against their primitive composition ---------------------------------------
#
# Dense, log_prob and one mogrified LSTM step (`MogrifierLstm.step` and
# `step_backward`) must reproduce the tape of the primitive ops they replace bit
# for bit: the same outputs and the same gradient in every input and parameter,
# including the order in which gradients add up.  The actor's recurrence over a
# packed batch (`actor_sequence`) runs its trunk and head as one gemm over all
# rows, so it matches the per-step primitive tape to 1e-12 relative.  The
# primitive compositions below are the references and live only here.  The
# reference LSTM step runs each gate on its own leaf weights
# (`per_gate_leaves`), and the stacked parameters' gradients are compared with
# the stacked per-gate ones.


def unfused_dense(layer, x):
    return T.add(T.matmul(x, layer.W), layer.b)


def unfused_mogrify(cell, x, h):
    q_iter, r_iter = iter(cell.Q), iter(cell.R)
    for i in range(1, cell.rounds + 1):
        if i % 2 == 1:
            x = T.mul(2.0 * T.sigmoid(T.matmul(h, next(q_iter))), x)
        else:
            h = T.mul(2.0 * T.sigmoid(T.matmul(x, next(r_iter))), h)
    return x, h


def per_gate_leaves(cell):
    """Leaf copies of each gate's slice of Wx, Wh and b, keyed by id of the stacked Tensor."""
    return {id(p): [Tensor(p.value[k].copy(), requires_grad=True) for k in range(len(cell.GATES))]
            for p in (cell.Wx, cell.Wh, cell.b)}


def unfused_lstm_step(cell, x, state, leaves):
    h, c = state
    wx, wh, b = (leaves[id(p)] for p in (cell.Wx, cell.Wh, cell.b))
    gates = {}
    for k, gate in enumerate(cell.GATES):
        pre = T.add(T.add(T.matmul(x, wx[k]), T.matmul(h, wh[k])), b[k])
        gates[gate] = T.tanh(pre) if gate == "g" else T.sigmoid(pre)
    c_new = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
    return T.mul(gates["o"], T.tanh(c_new)), c_new


def unfused_log_prob(policy, mean, actions):
    log_std = policy.clamped_log_std()
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
    terms = [T.sum_all(T.mul(out, Tensor(rng.standard_normal(out.shape)))) for out in outputs]
    terms += [T.sum_all(T.square(t)) for t in inputs if t.requires_grad]
    loss = terms[0]
    for term in terms[1:]:
        loss = T.add(loss, term)
    return loss


def fused_and_unfused(build, tensors, leaves=None):
    """`build(fused)` returns (outputs, loss); run it both ways.

    Returns, for fused and then unfused, the output values and the gradient
    of each of `tensors`.  `leaves` maps id(stacked Tensor) to the per-gate
    leaves the unfused build uses in its place; their gradients are returned
    stacked, a gate with no gradient counting as zeros.
    """
    leaves = leaves or {}
    everything = tensors + [leaf for parts in leaves.values() for leaf in parts]

    def grad_of(t, fused):
        parts = None if fused else leaves.get(id(t))
        if parts is None:
            return None if t.grad is None else t.grad.copy()
        if all(p.grad is None for p in parts):
            return None
        return np.stack([np.zeros_like(p.value) if p.grad is None else p.grad for p in parts])

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


@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("input_grad", [True, False])
def test_fused_dense_matches_primitives(batch, input_grad, rng):
    layer = Dense(rng, 6, 4, "d")
    x = Tensor(rng.standard_normal((batch, 6)), requires_grad=input_grad)

    def build(fused):
        out = layer(x) if fused else unfused_dense(layer, x)
        return [out], weighted_loss([out], [x], np.random.default_rng(1))

    assert_fused_matches_unfused(build, [x, layer.W, layer.b])


def unfused_step_loss(cell, x, h, c, wh, wc, leaves):
    """The primitive reference of `taped_step_loss`; a None weight drops its term."""
    mx, mh = unfused_mogrify(cell, x, h)
    nh, nc = unfused_lstm_step(cell, mx, (mh, c), leaves)
    terms = [T.sum_all(T.mul(out, Tensor(w))) for out, w in ((nh, wh), (nc, wc))
             if w is not None]
    return (terms[0] if len(terms) == 1 else T.add(*terms)), nh.value, nc.value


def assert_step_matches_primitives(cell, x, h, c, wh, wc):
    leaves = per_gate_leaves(cell)

    def build(fused):
        if fused:
            loss, nh, nc = taped_step_loss(cell, x, h, c, wh, wc)
        else:
            loss, nh, nc = unfused_step_loss(cell, x, h, c, wh, wc, leaves)
        return [Tensor(nh), Tensor(nc)], loss

    assert_fused_matches_unfused(build, [x, h, c] + [p for _, p in cell.params()], leaves)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("grads", ["x", "h", "both"])
@pytest.mark.parametrize("reads_c", [True, False])
def test_fused_mogrify_matches_primitives(rounds, batch, grads, reads_c, rng):
    """The gating rounds inside one `step`, against the primitive rounds and cell.

    `grads` names the inputs that take a gradient ("h" is the state pair; "x"
    alone is the state cut of a `bptt_chunk` boundary); `reads_c` whether the
    loss reads c' besides h'.
    """
    cell = MogrifierLstm(rng, 4, 5, rounds=rounds, name="m")
    x = Tensor(rng.standard_normal((batch, 4)), requires_grad=grads != "h")
    h, c = (Tensor(rng.standard_normal((batch, 5)), requires_grad=grads != "x")
            for _ in range(2))
    wh, wc = np.random.default_rng(1).standard_normal((2, batch, 5))
    assert_step_matches_primitives(cell, x, h, c, wh, wc if reads_c else None)


@pytest.mark.parametrize("batch", [1, 10])
@pytest.mark.parametrize("uses", ["h", "c", "both"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_fused_lstm_step_matches_primitives(batch, uses, input_grad, rng):
    """One `step` without gating rounds; `uses` names the outputs the loss reads."""
    cell = MogrifierLstm(rng, 4, 5, rounds=0, name="l")
    x = Tensor(rng.standard_normal((batch, 4)), requires_grad=input_grad)
    h = Tensor(rng.standard_normal((batch, 5)), requires_grad=input_grad)
    c = Tensor(rng.standard_normal((batch, 5)), requires_grad=input_grad)
    wh, wc = np.random.default_rng(1).standard_normal((2, batch, 5))
    assert_step_matches_primitives(cell, x, h, c, None if uses == "c" else wh,
                                   None if uses == "h" else wc)


@pytest.mark.parametrize("batch", [1, 10])
def test_fused_log_prob_matches_primitives(batch, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=4, hidden=6, mogrifier_rounds=0)
    policy.log_std.value = np.array([-6.0, -0.7, 0.4, 1.5])  # two dims clamped
    mean = Tensor(rng.standard_normal((batch, 4)), requires_grad=True)
    actions = Tensor(rng.standard_normal((batch, 4)))

    def build(fused):
        logp = (policy.log_prob(mean, actions) if fused
                else unfused_log_prob(policy, mean, actions))
        return [logp], weighted_loss([logp], [mean], np.random.default_rng(1))

    assert_fused_matches_unfused(build, [mean, policy.log_std])


def unfused_log_probs(policy, obs, h0, c0, actions, leaves):
    """Per-step log-prob Tensors of the primitive per-step tape over a (T, B) grid,
    with the state detached every `bptt_chunk` steps."""
    chunk = policy.bptt_chunk
    state = (Tensor(h0), Tensor(c0))
    out = []
    for t in range(len(obs)):
        if chunk > 0 and t > 0 and t % chunk == 0:
            state = (state[0].detach(), state[1].detach())
        mean, state = unfused_actor_step(policy, Tensor(obs[t]), state, leaves)
        out.append(unfused_log_prob(policy, mean, Tensor(actions[t])))
    return out


def assert_close(a, b):
    """Max abs difference at most 1e-12 of the reference's max abs value."""
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def assert_sequence_matches_per_step_tape(policy, lengths, rng):
    """`take(log_prob(actor_sequence(...)), order)` over packed rows, as the update
    runs it, against the per-step primitive tape over the padded (T, B) grid.

    Packed rows follow the segments longest first (stable), step-major; `order`
    maps buffer order (segment by segment) to packed rows.  Both losses weight
    each live step's log-prob the same; the grid's padded slots weigh zero.  Both
    also reuse log_std after the log-probs, so it already holds a gradient when
    `log_prob`'s backward adds its own, as in the update.
    """
    lengths = np.array(lengths)
    steps, batch = lengths.max(), len(lengths)
    ranked = np.argsort(-lengths, kind="stable")
    packed = [(t, b) for t in range(steps) for b in ranked if t < lengths[b]]
    row = {cell: i for i, cell in enumerate(packed)}
    order = np.array([row[t, b] for b in range(batch) for t in range(lengths[b])])
    batch_sizes = [sum(n > t for n in lengths) for t in range(steps)]
    obs = rng.standard_normal((steps, batch, policy.obs_dim))
    actions = rng.standard_normal((steps, batch, policy.action_dim))
    h0, c0 = rng.standard_normal((2, batch, policy.hidden))
    live = np.arange(steps)[:, None] < lengths[None, :]
    weights = rng.standard_normal((steps, batch)) * live
    t_idx, b_idx = np.array(packed).T
    leaves = per_gate_leaves(policy.cell)

    def build(fused):
        if fused:
            means = policy.actor_sequence(obs[t_idx, b_idx], batch_sizes, h0[ranked], c0[ranked])
            logp = T.take(policy.log_prob(means, Tensor(actions[t_idx, b_idx])), order)
            w = weights[t_idx, b_idx][order]
            loss = T.sum_all(T.mul(logp, Tensor(w)))
            return [logp], T.add(loss, T.sum_all(T.square(policy.log_std)))
        per_step = unfused_log_probs(policy, obs, h0, c0, actions, leaves)
        loss = T.sum_all(T.mul(per_step[0], Tensor(weights[0])))
        for logp_t, w_t in zip(per_step[1:], weights[1:]):
            loss = T.add(loss, T.sum_all(T.mul(logp_t, Tensor(w_t))))
        grid = np.stack([logp_t.value for logp_t in per_step])
        loss = T.add(loss, T.sum_all(T.square(policy.log_std)))
        return [Tensor(grid[t_idx, b_idx][order])], loss

    (out_f, grads_f), (out_u, grads_u) = fused_and_unfused(build, policy.params(), leaves)
    assert_close(out_f[0], out_u[0])
    for a, b in zip(grads_f, grads_u):
        assert (a is None) == (b is None)
        if a is not None:
            assert_close(a, b)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
def test_fused_recurrent_sequence_matches_primitives(rounds, rng):
    """20 steps at batch 10 with a bptt_chunk cut, no padding."""
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=rounds,
                         bptt_chunk=8)
    policy.log_std.value = np.array([-6.0, -0.7, 1.5])  # two dims clamped
    assert_sequence_matches_per_step_tape(policy, [20] * 10, rng)


@pytest.mark.parametrize("rounds", [0, 1, 2, 5])
@pytest.mark.parametrize("chunk", [0, 3, 16])
def test_actor_sequence_matches_per_step_tape(rounds, chunk, rng):
    """Cut never, often, or once at t = 16: the unpadded 20x10 grid, then segments
    of 17, 9, 4, 17 and 12 steps (the packed batch shrinks as they end)."""
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=rounds,
                         bptt_chunk=chunk)
    policy.log_std.value = np.array([-6.0, -0.7, 1.5])  # two dims clamped
    for lengths in ([20] * 10, [17, 9, 4, 17, 12]):
        assert_sequence_matches_per_step_tape(policy, lengths, rng)


def test_fused_ops_untaped_under_no_grad(rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=5)
    obs = rng.standard_normal((6, 4))  # 3 steps of 2 rows, packed step-major
    mean, (h, c) = policy.actor_step(obs[:2], policy.initial_state(2))  # arrays, no tape
    assert all(type(a) is np.ndarray for a in (mean, h, c))
    with T.no_grad():
        means = policy.actor_sequence(obs, [2, 2, 2], *policy.initial_state(2))
        logp = policy.log_prob(means, Tensor(rng.standard_normal((6, 3))))
    assert T.tape_size() == 0
    assert all(t.backward_fn is None and not t.requires_grad for t in (means, logp))


# -- mogrifier behaviour ----------------------------------------------------------------


def copy_lstm_weights(dst: MogrifierLstm, src: MogrifierLstm):
    dst.Wx.value = src.Wx.value.copy()
    dst.Wh.value = src.Wh.value.copy()
    dst.b.value = src.b.value.copy()


def test_zero_mogrifier_matches_plain_lstm_bitwise(rng):
    gated = MogrifierLstm(rng, 6, 7, rounds=5, name="a")
    for q in gated.Q:
        q.value = np.zeros_like(q.value)
    for r in gated.R:
        r.value = np.zeros_like(r.value)
    plain = MogrifierLstm(np.random.default_rng(0), 6, 7, rounds=0, name="b")
    copy_lstm_weights(plain, gated)
    x = rng.standard_normal((3, 6))
    state_a = gated.initial_state(3)
    state_b = plain.initial_state(3)
    for _ in range(4):
        state_a = gated.step(x, *state_a)[:2]
        state_b = plain.step(x, *state_b)[:2]
    assert np.array_equal(state_a[0], state_b[0])
    assert np.array_equal(state_a[1], state_b[1])


def test_zero_rounds_leaves_inputs_untouched(rng):
    cell = MogrifierLstm(rng, 4, 4, rounds=0)
    x = rng.standard_normal((2, 4))
    h = rng.standard_normal((2, 4))
    mx, mh, _ = cell.mogrify(x, h)
    assert mx is x and mh is h


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_mogrify_matches_unrolled_oracle(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x0 = rng.standard_normal((3, 4))
    h0 = rng.standard_normal((3, 5))
    mx, mh, _ = cell.mogrify(x0, h0)
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
    cell.Wx.value = np.zeros_like(cell.Wx.value)
    cell.Wh.value = np.zeros_like(cell.Wh.value)
    cell.b.value = np.zeros_like(cell.b.value)
    h, c, _ = cell.step(np.zeros((2, 3)), *cell.initial_state(2))
    assert np.array_equal(h, np.zeros((2, 4)))


def test_lstm_forced_gates_carry_memory(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    cell.Wx.value = np.zeros_like(cell.Wx.value)
    cell.Wh.value = np.zeros_like(cell.Wh.value)
    gate = MogrifierLstm.GATES.index
    cell.b.value[gate("f")] = np.full(4, 40.0)   # forget gate pinned to 1
    cell.b.value[gate("i")] = np.full(4, -40.0)  # input gate pinned to 0
    cell.b.value[gate("o")] = np.zeros(4)
    c0 = rng.standard_normal((2, 4))
    h, c, _ = cell.step(np.zeros((2, 3)), np.zeros((2, 4)), c0)
    assert np.max(np.abs(c - c0)) < 1e-12


def test_lstm_matches_scalar_loop_oracle(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    x = rng.standard_normal((2, 3))
    h0 = rng.standard_normal((2, 4))
    c0 = rng.standard_normal((2, 4))
    h, c, _ = cell.step(x, h0, c0)
    for row in range(2):
        for j in range(4):
            pre = {}
            for k, gate in enumerate(MogrifierLstm.GATES):
                s = cell.b.value[k, j]
                for i in range(3):
                    s += x[row, i] * cell.Wx.value[k, i, j]
                for i in range(4):
                    s += h0[row, i] * cell.Wh.value[k, i, j]
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
    p.zero_grad()
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


def test_adam_descends_against_constant_gradient():
    t = Tensor(np.array([2.0]), requires_grad=True)
    opt = Adam([t], lr=0.05)
    for _ in range(50):
        opt.zero_grad()
        t.grad = np.array([3.0])
        opt.step()
    assert t.value[0] < 2.0 - 1.0


def test_adam_skips_missing_grads():
    t = Tensor(np.array([1.0]), requires_grad=True)
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
                             hidden=6, mogrifier_rounds=5)
        mean, _ = policy.actor_step(obs, policy.initial_state(3))
        with T.no_grad():
            value = policy.value(Tensor(obs))
        outs.append((mean.copy(), value.value.copy()))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])


def test_checkpoint_round_trip_byte_exact(tmp_path, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=5)
    named = [(n, p.value) for n, p in policy.named_params()]
    save_checkpoint(tmp_path / "ck", named, step=17, hyperparams={"note": "x"})
    manifest, arrays = load_checkpoint(tmp_path / "ck")
    assert manifest["step"] == 17
    for name, value in named:
        assert arrays[name].tobytes() == value.astype("<f8").tobytes()
    # A second save of the loaded arrays reproduces the file bytes exactly.
    save_checkpoint(tmp_path / "ck2", [(n, arrays[n]) for n, _ in named], 17, {"note": "x"})
    assert (tmp_path / "ck" / "params.bin").read_bytes() == (
        tmp_path / "ck2" / "params.bin"
    ).read_bytes()


def test_checkpoint_shape_mismatch_rejected(tmp_path, rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=5)
    save_checkpoint(
        tmp_path / "ck",
        [(n, p.value) for n, p in policy.named_params()],
        step=0,
        hyperparams={},
    )
    _, arrays = load_checkpoint(tmp_path / "ck")
    other = ActorCritic(rng, obs_dim=5, action_dim=3, hidden=6, mogrifier_rounds=5)
    with pytest.raises(ValueError):
        other.load_state(arrays)


def test_v1_checkpoint_loads_bit_equal(tmp_path, rng):
    """A format-1 checkpoint (one array per gate) loads as the stacked parameters."""
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=5)
    stacked = {name for name, _ in policy.cell.params()[:3]}
    named = []
    for name, param in policy.named_params():
        if name in stacked:
            named += [(f"{name}_{gate}", param.value[k])
                      for k, gate in enumerate(MogrifierLstm.GATES)]
        else:
            named.append((name, param.value))
    save_checkpoint(tmp_path / "v1", named, step=0, hyperparams={})
    manifest_path = tmp_path / "v1" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 1
    manifest_path.write_text(json.dumps(manifest))

    _, arrays = load_checkpoint(tmp_path / "v1")
    assert sorted(arrays) == sorted(name for name, _ in policy.named_params())
    for name, param in policy.named_params():
        assert arrays[name].tobytes() == param.value.tobytes()
    other = ActorCritic(np.random.default_rng(1), obs_dim=4, action_dim=3, hidden=6,
                        mogrifier_rounds=5)
    other.load_state(arrays)
    for mine, theirs in zip(policy.params(), other.params()):
        assert np.array_equal(mine.value, theirs.value)


def test_failed_save_leaves_previous_checkpoint(tmp_path, rng, monkeypatch):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=0)
    named = [(n, p.value) for n, p in policy.named_params()]
    target = tmp_path / "ck"
    save_checkpoint(target, named, step=1, hyperparams={})

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", fail)  # the manifest, after params.bin
    with pytest.raises(OSError):
        save_checkpoint(target, [(n, v + 1.0) for n, v in named], step=2, hyperparams={})
    monkeypatch.undo()
    manifest, arrays = load_checkpoint(target)
    assert manifest["step"] == 1
    for name, value in named:
        assert np.array_equal(arrays[name], value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    # A save that completes replaces the old checkpoint.
    save_checkpoint(target, [(n, v + 1.0) for n, v in named], step=2, hyperparams={})
    manifest, arrays = load_checkpoint(target)
    assert manifest["step"] == 2
    for name, value in named:
        assert np.array_equal(arrays[name], value + 1.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_uniform_init_spans_fan_in_limit(rng):
    values = uniform_init(rng, 16, (1000,))
    assert np.all(np.abs(values) <= 0.25)
    assert values.std() > 0.05
