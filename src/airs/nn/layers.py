"""Dense, LSTM, and mogrifier building blocks on top of the autodiff kernel."""

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


def uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """Affine map x @ W + b for batched row vectors."""

    def __init__(self, rng, in_dim: int, out_dim: int, name: str):
        self.name = name
        self.W = Tensor(uniform_init(rng, in_dim, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        """One taped node, bit-equal to `add(matmul(x, W), b)`."""
        W, b = self.W, self.b
        out_value = x.value @ W.value + b.value
        if not T.needs_grad(x, W, b):
            return Tensor(out_value)

        def backward_fn(g):
            if b.requires_grad:
                b.add_grad(T.unbroadcast(g, b.value.shape))
            if x.requires_grad:
                x.add_grad(g @ W.value.T)
            if W.requires_grad:
                W.add_grad(x.value.T @ g)

        return T.record(out_value, backward_fn)

    def params(self):
        return [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]


class MogrifierLstm:
    """LSTM cell preceded by alternating input/state gating rounds.

    Before the cell update, input x and hidden state h modulate each other r
    times: odd rounds scale x by 2*sigmoid(h @ Q_i), even rounds scale h by
    2*sigmoid(x @ R_i).  With r = 0 (or all-zero Q/R) this is a plain LSTM,
    since 2*sigmoid(0) is exactly 1.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, rng, in_dim: int, hidden: int, rounds: int, name: str = "lstm"):
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        self.name = name
        self.in_dim = in_dim
        self.hidden = hidden
        self.rounds = rounds
        self.Wx = {}
        self.Wh = {}
        self.b = {}
        for gate in self.GATES:
            self.Wx[gate] = Tensor(
                uniform_init(rng, in_dim, (in_dim, hidden)), requires_grad=True
            )
            self.Wh[gate] = Tensor(
                uniform_init(rng, hidden, (hidden, hidden)), requires_grad=True
            )
            bias = np.zeros(hidden)
            if gate == "f":
                bias += 1.0  # start with a remembering forget gate
            self.b[gate] = Tensor(bias, requires_grad=True)
        self.Q = []  # odd rounds, gate x from h: (hidden, in_dim)
        self.R = []  # even rounds, gate h from x: (in_dim, hidden)
        for i in range(1, rounds + 1):
            if i % 2 == 1:
                self.Q.append(
                    Tensor(uniform_init(rng, hidden, (hidden, in_dim)), requires_grad=True)
                )
            else:
                self.R.append(
                    Tensor(uniform_init(rng, in_dim, (in_dim, hidden)), requires_grad=True)
                )

    def initial_state(self, batch: int = 1):
        return (
            Tensor(np.zeros((batch, self.hidden))),
            Tensor(np.zeros((batch, self.hidden))),
        )

    def mogrify(self, x: Tensor, h: Tensor):
        """Gating rounds as one taped op; returns (x, h).

        Bit-equal to the primitive rounds: odd round i sets
        x = mul(2.0 * sigmoid(matmul(h, Q)), x), even rounds gate h from x
        through R.  With fewer than two rounds h is returned as given, and
        with none x is too.
        """
        rounds = self.rounds
        if rounds == 0:
            return x, h
        weights = [self.Q[i // 2] if i % 2 == 0 else self.R[i // 2] for i in range(rounds)]
        # values[0] lists the successive versions of x, values[1] those of h.
        # Round i (from 1) rescales x when odd and h when even ("kind" 0 or 1),
        # making version (i + 1) // 2 of that kind from version i // 2 of the other.
        values = ([x.value], [h.value])
        gates = []
        for i in range(1, rounds + 1):
            kind = 0 if i % 2 else 1
            s = T.logistic(values[1 - kind][-1] @ weights[i - 1].value)
            s2 = 2.0 * s
            values[kind].append(s2 * values[kind][-1])
            gates.append((s, s2))
        if not T.needs_grad(x, h, *weights):
            return Tensor(values[0][-1]), (Tensor(values[1][-1]) if rounds > 1 else h)

        inputs = (x, h)

        def backward_fn(gx, gh):
            # grads[k]: gradient of the latest version of kind k not yet walked.
            grads = [gx, gh]

            def feed(kind, version, g):
                if version > 0:
                    grads[kind] = g if grads[kind] is None else grads[kind] + g
                elif inputs[kind].requires_grad:
                    inputs[kind].add_grad(g)

            for i in range(rounds, 0, -1):
                kind = 0 if i % 2 else 1
                g = grads[kind]
                grads[kind] = None
                if g is None:
                    continue
                s, s2 = gates[i - 1]
                version = (i + 1) // 2
                g_s2 = g * values[kind][version - 1]
                feed(kind, version - 1, g * s2)
                g_m = g_s2 * 2.0 * s * (1.0 - s)
                source = values[1 - kind][i // 2]
                feed(1 - kind, i // 2, g_m @ weights[i - 1].value.T)
                weights[i - 1].add_grad(source.T @ g_m)

        if rounds == 1:
            return T.record(values[0][-1], lambda g: backward_fn(g, None)), h
        return T.record_pair(values[0][-1], values[1][-1], backward_fn)

    def lstm_step(self, x: Tensor, state):
        """LSTM cell update as one taped op; returns (h_new, c_new).

        Bit-equal to the primitive form: per gate
        pre = add(add(matmul(x, Wx), matmul(h, Wh)), b), then
        c_new = f * c + i * g and h_new = o * tanh(c_new).
        """
        h, c = state
        params = []
        acts = {}
        for gate in self.GATES:
            Wx, Wh, b = self.Wx[gate], self.Wh[gate], self.b[gate]
            params += (Wx, Wh, b)
            pre = x.value @ Wx.value + h.value @ Wh.value + b.value
            acts[gate] = np.tanh(pre) if gate == "g" else T.logistic(pre)
        i_act, f_act, o_act, g_act = (acts[gate] for gate in self.GATES)
        c_new = f_act * c.value + i_act * g_act
        tanh_c = np.tanh(c_new)
        h_new = o_act * tanh_c
        if not T.needs_grad(x, h, c, *params):
            return Tensor(h_new), Tensor(c_new)

        def backward_fn(gh, gc):
            d_acts = {}
            if gh is not None:
                d_acts["o"] = gh * tanh_c
                g_tanh = (gh * o_act) * (1.0 - tanh_c**2)
                gc = g_tanh if gc is None else gc + g_tanh
            d_acts["i"] = gc * g_act
            d_acts["g"] = gc * i_act
            d_acts["f"] = gc * c.value
            if c.requires_grad:
                c.add_grad(gc * f_act)
            for gate in reversed(self.GATES):
                if gate not in d_acts:
                    continue
                act = acts[gate]
                if gate == "g":
                    d_pre = d_acts[gate] * (1.0 - act**2)
                else:
                    d_pre = d_acts[gate] * act * (1.0 - act)
                Wx, Wh, b = self.Wx[gate], self.Wh[gate], self.b[gate]
                b.add_grad(T.unbroadcast(d_pre, b.value.shape))
                if h.requires_grad:
                    h.add_grad(d_pre @ Wh.value.T)
                Wh.add_grad(h.value.T @ d_pre)
                if x.requires_grad:
                    x.add_grad(d_pre @ Wx.value.T)
                Wx.add_grad(x.value.T @ d_pre)

        return T.record_pair(h_new, c_new, backward_fn)

    def __call__(self, x: Tensor, state):
        """One mogrified recurrence step: gate rounds, then the cell update."""
        x, h = self.mogrify(x, state[0])
        return self.lstm_step(x, (h, state[1]))

    def params(self):
        out = []
        for gate in self.GATES:
            out.append((f"{self.name}.Wx_{gate}", self.Wx[gate]))
            out.append((f"{self.name}.Wh_{gate}", self.Wh[gate]))
            out.append((f"{self.name}.b_{gate}", self.b[gate]))
        for i, q in enumerate(self.Q):
            out.append((f"{self.name}.Q{2 * i + 1}", q))
        for i, r in enumerate(self.R):
            out.append((f"{self.name}.R{2 * i + 2}", r))
        return out
