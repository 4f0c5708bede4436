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
        return T.add(T.matmul(x, self.W), self.b)

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
        q_iter = iter(self.Q)
        r_iter = iter(self.R)
        for i in range(1, self.rounds + 1):
            if i % 2 == 1:
                x = T.mul(2.0 * T.sigmoid(T.matmul(h, next(q_iter))), x)
            else:
                h = T.mul(2.0 * T.sigmoid(T.matmul(x, next(r_iter))), h)
        return x, h

    def lstm_step(self, x: Tensor, state):
        h, c = state
        gates = {}
        for gate in self.GATES:
            pre = T.add(
                T.add(T.matmul(x, self.Wx[gate]), T.matmul(h, self.Wh[gate])),
                self.b[gate],
            )
            gates[gate] = T.tanh(pre) if gate == "g" else T.sigmoid(pre)
        c_new = T.add(T.mul(gates["f"], c), T.mul(gates["i"], gates["g"]))
        h_new = T.mul(gates["o"], T.tanh(c_new))
        return h_new, c_new

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
