"""Dense, LSTM, and mogrifier building blocks as array kernels with explicit backwards."""

import math

import numpy as np

from .tensor import Param, logistic


def uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape)


class Dense:
    """Affine map x @ W + b for batched row vectors."""

    def __init__(self, rng, in_dim: int, out_dim: int, name: str):
        self.name = name
        self.W = Param(uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.b = Param(np.zeros(out_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W.value + self.b.value

    def backward(self, x: np.ndarray, g: np.ndarray, want_x: bool):
        """Add the b and W gradients for the output gradient g of `forward(x)`;
        return x's gradient, or None unless `want_x`.

        The same arithmetic as the primitive form `add(matmul(x, W), b)`.
        """
        self.b.add_grad(g.sum(axis=0))
        gx = g @ self.W.value.T if want_x else None
        self.W.add_grad(x.T @ g)
        return gx

    def params(self):
        return [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]


class MogrifierLstm:
    """LSTM cell preceded by alternating input/state gating rounds, on arrays.

    Before the cell update, input x and hidden state h modulate each other r
    times: odd rounds scale x by 2*sigmoid(h @ Q_i), even rounds scale h by
    2*sigmoid(x @ R_i).  With r = 0 (or all-zero Q/R) this is a plain LSTM,
    since 2*sigmoid(0) is exactly 1.

    The four gates are stacked gate-major in GATES order (i, f, o, g), the
    usual fused-LSTM layout: Wx is (4, in_dim, hidden), Wh is
    (4, hidden, hidden) and b is (4, hidden), and slice k belongs to gate
    GATES[k].  A step makes one batched matmul per weight, which numpy runs as
    one gemm per gate of the per-gate shape, so the results are bit-equal to
    four separate gate matmuls.

    `step` and `step_backward` are plain-array kernels: the caller keeps the
    cache (`ActorCritic.actor_sequence`).  Float sums depend on their order, so
    `step_backward` adds every gradient in the order of the reverse walk over
    the primitive per-gate, per-round ops.
    """

    GATES = ("i", "f", "o", "g")

    def __init__(self, rng, in_dim: int, hidden: int, rounds: int, name: str = "lstm"):
        if rounds < 0:
            raise ValueError("rounds must be >= 0")
        self.name = name
        self.in_dim = in_dim
        self.hidden = hidden
        self.rounds = rounds
        wx, wh = [], []
        for _ in self.GATES:  # per gate Wx, then Wh: this draw order fixes what a seed gives
            wx.append(uniform_init(rng, in_dim, (in_dim, hidden)))
            wh.append(uniform_init(rng, hidden, (hidden, hidden)))
        self.Wx = Param(np.stack(wx))
        self.Wh = Param(np.stack(wh))
        bias = np.zeros((len(self.GATES), hidden))
        bias[self.GATES.index("f")] = 1.0  # start with a remembering forget gate
        self.b = Param(bias)
        self.Q = []  # odd rounds, gate x from h: (hidden, in_dim)
        self.R = []  # even rounds, gate h from x: (in_dim, hidden)
        for i in range(1, rounds + 1):
            if i % 2 == 1:
                self.Q.append(Param(uniform_init(rng, hidden, (hidden, in_dim))))
            else:
                self.R.append(Param(uniform_init(rng, in_dim, (in_dim, hidden))))
        # Round i (from 1) uses round_weights[i - 1].
        self.round_weights = [self.Q[i // 2] if i % 2 == 0 else self.R[i // 2]
                              for i in range(rounds)]

    def initial_state(self, batch: int = 1):
        return np.zeros((batch, self.hidden)), np.zeros((batch, self.hidden))

    def mogrify(self, x: np.ndarray, h: np.ndarray):
        """Gating rounds; returns (x, h, trace), x and h as given when r = 0.

        Odd round i sets x = 2.0 * sigmoid(h @ Q) * x, even rounds gate h
        from x through R.  `trace` holds what `step_backward` reads.
        """
        # versions[0] lists the successive versions of x, versions[1] those of h.
        # Round i (from 1) rescales x when odd and h when even ("kind" 0 or 1),
        # making version (i + 1) // 2 of that kind from version i // 2 of the other.
        versions = ([x], [h])
        gates = []
        # logistic's expression, under one errstate for all rounds.
        with np.errstate(over="ignore"):
            for i, weight in enumerate(self.round_weights, start=1):
                kind = 0 if i % 2 else 1
                s = 1.0 / (1.0 + np.exp(-(versions[1 - kind][-1] @ weight.value)))
                s2 = 2.0 * s
                versions[kind].append(s2 * versions[kind][-1])
                gates.append((s, s2))
        return versions[0][-1], versions[1][-1], (versions, gates)

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        """One mogrified recurrence step; returns (h_new, c_new, cache).

        The gating rounds, then for gate k pre = x @ Wx[k] + h @ Wh[k] + b[k],
        c_new = f * c + i * g and h_new = o * tanh(c_new).
        """
        x, h, trace = self.mogrify(x, h)
        pre = np.matmul(x, self.Wx.value) + np.matmul(h, self.Wh.value) + self.b.value[:, None]
        sig = logistic(pre[:3])
        g_act = np.tanh(pre[3])
        i_act, f_act, o_act = sig
        c_new = f_act * c + i_act * g_act
        tanh_c = np.tanh(c_new)
        h_new = o_act * tanh_c
        return h_new, c_new, (trace, x, h, c, sig, g_act, tanh_c)

    def step_backward(self, cache, gh: np.ndarray, gc, want_state: bool):
        """Add the parameter gradients of one `step`; return (gx, gh_prev, gc_prev).

        `gh` is h_new's gradient and `gc` c_new's (None when nothing reads
        c_new).  The state gradients are None unless `want_state`.  Each
        input's gradient is summed as the primitive reverse walk added it up:
        the cell's input slices first, gates g, o, f, i, then the feeds of the
        gating rounds, last round first.
        """
        (versions, gates), x, h, c, sig, g_act, tanh_c = cache
        i_act, f_act, o_act = sig
        Wx, Wh = self.Wx.value, self.Wh.value
        d_pre = np.empty((len(self.GATES),) + gh.shape)
        d_pre[2] = gh * tanh_c
        g_tanh = (gh * o_act) * (1.0 - tanh_c**2)
        gc = g_tanh if gc is None else gc + g_tanh
        d_pre[0] = gc * g_act
        d_pre[1] = gc * c
        gc_prev = gc * f_act if want_state else None
        d_pre[:3] *= sig  # (d * act) * (1 - act), the sigmoid backward's rounding
        d_pre[:3] *= 1.0 - sig
        d_pre[3] = (gc * i_act) * (1.0 - g_act**2)
        self.b.add_grad(d_pre.sum(axis=1))
        self.Wh.add_grad(np.matmul(h.T, d_pre))
        self.Wx.add_grad(np.matmul(x.T, d_pre))

        # grads[k]: gradient of the latest version of kind k not yet walked.
        # With fewer than two rounds the cell reads the state h itself.
        g_in = np.matmul(d_pre, Wx.transpose(0, 2, 1))
        grads = [g_in[3] + g_in[2] + g_in[1] + g_in[0], None]
        if want_state or self.rounds > 1:
            g_in = np.matmul(d_pre, Wh.transpose(0, 2, 1))
            grads[1] = g_in[3] + g_in[2] + g_in[1] + g_in[0]

        def feed(kind, g):
            grads[kind] = g if grads[kind] is None else grads[kind] + g

        for i in range(self.rounds, 0, -1):
            kind = 0 if i % 2 else 1
            g = grads[kind]
            grads[kind] = None
            s, s2 = gates[i - 1]
            weight = self.round_weights[i - 1]
            g_s2 = g * versions[kind][(i + 1) // 2 - 1]
            feed(kind, g * s2)
            g_m = g_s2 * 2.0 * s * (1.0 - s)
            feed(1 - kind, g_m @ weight.value.T)
            weight.add_grad(versions[1 - kind][i // 2].T @ g_m)
        return grads[0], (grads[1] if want_state else None), gc_prev

    def params(self):
        out = [(f"{self.name}.Wx", self.Wx), (f"{self.name}.Wh", self.Wh),
               (f"{self.name}.b", self.b)]
        for i, q in enumerate(self.Q):
            out.append((f"{self.name}.Q{2 * i + 1}", q))
        for i, r in enumerate(self.R):
            out.append((f"{self.name}.R{2 * i + 2}", r))
        return out
