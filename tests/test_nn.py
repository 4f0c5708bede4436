import math

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


def test_stack_gradients(rng):
    parts = [Tensor(rng.standard_normal(4), requires_grad=True) for _ in range(3)]
    weights = Tensor(rng.standard_normal((3, 4)))
    build = lambda: T.sum_all(T.mul(T.square(T.stack(parts)), weights))
    assert finite_difference_check(build, parts, rng) < FD_TOL


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


def test_mogrify_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x = Tensor(rng.standard_normal((3, 4)))
    h = Tensor(rng.standard_normal((3, 5)))

    def build():
        mx, mh = cell.mogrify(x, h)
        return T.add(T.sum_all(T.square(mx)), T.sum_all(T.square(mh)))

    params = [p for name, p in cell.params() if ".Q" in name or ".R" in name]
    assert finite_difference_check(build, params, rng) < FD_TOL


def test_lstm_step_gradients(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=0, name="l")
    x = Tensor(rng.standard_normal((3, 4)))
    state = (Tensor(rng.standard_normal((3, 5))), Tensor(rng.standard_normal((3, 5))))

    def build():
        h, c = cell.lstm_step(x, state)
        return T.add(T.sum_all(T.square(h)), T.sum_all(T.square(c)))

    assert finite_difference_check(build, [p for _, p in cell.params()], rng) < FD_TOL


def test_gaussian_log_prob_gradients(rng):
    policy = ActorCritic(rng, obs_dim=4, action_dim=3, hidden=6, mogrifier_rounds=0)
    obs = rng.standard_normal((5, 4))
    actions = rng.standard_normal((5, 3))

    def build():
        mean, _ = policy.actor_step(Tensor(obs), policy.initial_state(5))
        return T.sum_all(policy.log_prob(mean, Tensor(actions)))

    assert finite_difference_check(build, policy.params(), rng) < FD_TOL


def test_full_actor_critic_gradients(rng):
    policy = ActorCritic(rng, obs_dim=5, action_dim=3, hidden=8, mogrifier_rounds=5)
    obs = rng.standard_normal((4, 5))
    actions = rng.standard_normal((4, 3))

    def build():
        mean, _ = policy.actor_step(Tensor(obs), policy.initial_state(4))
        logp = policy.log_prob(mean, Tensor(actions))
        value = policy.value(Tensor(obs))
        return T.add(T.sum_all(logp), T.sum_all(T.square(value)))

    assert finite_difference_check(build, policy.params(), rng) < FD_TOL


def test_bptt_8_step_gradients(rng):
    policy = ActorCritic(rng, obs_dim=3, action_dim=2, hidden=5, mogrifier_rounds=5,
                         bptt_chunk=0)
    obs_seq = rng.standard_normal((8, 2, 3))
    act_seq = rng.standard_normal((8, 2, 2))

    def build():
        state = policy.initial_state(2)
        total = Tensor(0.0)
        for t in range(8):
            mean, state = policy.actor_step(Tensor(obs_seq[t]), state)
            total = T.add(total, T.sum_all(policy.log_prob(mean, Tensor(act_seq[t]))))
        return total

    assert finite_difference_check(build, policy.params(), rng, samples=3) < FD_TOL


# -- mogrifier behaviour ----------------------------------------------------------------


def copy_lstm_weights(dst: MogrifierLstm, src: MogrifierLstm):
    for gate in MogrifierLstm.GATES:
        dst.Wx[gate].value = src.Wx[gate].value.copy()
        dst.Wh[gate].value = src.Wh[gate].value.copy()
        dst.b[gate].value = src.b[gate].value.copy()


def test_zero_mogrifier_matches_plain_lstm_bitwise(rng):
    gated = MogrifierLstm(rng, 6, 7, rounds=5, name="a")
    for q in gated.Q:
        q.value = np.zeros_like(q.value)
    for r in gated.R:
        r.value = np.zeros_like(r.value)
    plain = MogrifierLstm(np.random.default_rng(0), 6, 7, rounds=0, name="b")
    copy_lstm_weights(plain, gated)
    x = Tensor(rng.standard_normal((3, 6)))
    state_a = gated.initial_state(3)
    state_b = plain.initial_state(3)
    with T.no_grad():
        for _ in range(4):
            state_a = gated(x, state_a)
            state_b = plain(x, state_b)
    assert np.array_equal(state_a[0].value, state_b[0].value)
    assert np.array_equal(state_a[1].value, state_b[1].value)


def test_zero_rounds_leaves_inputs_untouched(rng):
    cell = MogrifierLstm(rng, 4, 4, rounds=0)
    x = Tensor(rng.standard_normal((2, 4)))
    h = Tensor(rng.standard_normal((2, 4)))
    mx, mh = cell.mogrify(x, h)
    assert mx is x and mh is h


def sigmoid_ref(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_mogrify_matches_unrolled_oracle(rng):
    cell = MogrifierLstm(rng, 4, 5, rounds=5, name="m")
    x0 = rng.standard_normal((3, 4))
    h0 = rng.standard_normal((3, 5))
    with T.no_grad():
        mx, mh = cell.mogrify(Tensor(x0), Tensor(h0))
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
    assert np.max(np.abs(mx.value - x)) < 1e-12
    assert np.max(np.abs(mh.value - h)) < 1e-12


def test_lstm_zero_everything_gives_zero_hidden(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    for gate in MogrifierLstm.GATES:
        cell.Wx[gate].value = np.zeros_like(cell.Wx[gate].value)
        cell.Wh[gate].value = np.zeros_like(cell.Wh[gate].value)
        cell.b[gate].value = np.zeros_like(cell.b[gate].value)
    with T.no_grad():
        h, c = cell.lstm_step(Tensor(np.zeros((2, 3))), cell.initial_state(2))
    assert np.array_equal(h.value, np.zeros((2, 4)))


def test_lstm_forced_gates_carry_memory(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    for gate in MogrifierLstm.GATES:
        cell.Wx[gate].value = np.zeros_like(cell.Wx[gate].value)
        cell.Wh[gate].value = np.zeros_like(cell.Wh[gate].value)
    cell.b["f"].value = np.full(4, 40.0)   # forget gate pinned to 1
    cell.b["i"].value = np.full(4, -40.0)  # input gate pinned to 0
    cell.b["o"].value = np.zeros(4)
    c0 = rng.standard_normal((2, 4))
    with T.no_grad():
        h, c = cell.lstm_step(Tensor(np.zeros((2, 3))), (Tensor(np.zeros((2, 4))), Tensor(c0)))
    assert np.max(np.abs(c.value - c0)) < 1e-12


def test_lstm_matches_scalar_loop_oracle(rng):
    cell = MogrifierLstm(rng, 3, 4, rounds=0)
    x = rng.standard_normal((2, 3))
    h0 = rng.standard_normal((2, 4))
    c0 = rng.standard_normal((2, 4))
    with T.no_grad():
        h, c = cell.lstm_step(Tensor(x), (Tensor(h0), Tensor(c0)))
    for row in range(2):
        for j in range(4):
            pre = {}
            for gate in MogrifierLstm.GATES:
                s = cell.b[gate].value[j]
                for i in range(3):
                    s += x[row, i] * cell.Wx[gate].value[i, j]
                for i in range(4):
                    s += h0[row, i] * cell.Wh[gate].value[i, j]
                pre[gate] = s
            i_g = sigmoid_ref(pre["i"])
            f_g = sigmoid_ref(pre["f"])
            o_g = sigmoid_ref(pre["o"])
            g_g = math.tanh(pre["g"])
            c_ref = f_g * c0[row, j] + i_g * g_g
            h_ref = o_g * math.tanh(c_ref)
            assert abs(c.value[row, j] - c_ref) < 1e-12
            assert abs(h.value[row, j] - h_ref) < 1e-12


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
        with T.no_grad():
            mean, _ = policy.actor_step(Tensor(obs), policy.initial_state(3))
            value = policy.value(Tensor(obs))
        outs.append((mean.value.copy(), value.value.copy()))
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


def test_uniform_init_spans_fan_in_limit(rng):
    values = uniform_init(rng, 16, (1000,))
    assert np.all(np.abs(values) <= 0.25)
    assert values.std() > 0.05
