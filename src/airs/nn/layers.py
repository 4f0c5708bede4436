"""Dense, LSTM, and mogrifier building blocks as array kernels with explicit backwards."""

import math

import numpy as np

from .tensor import Param


def uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    limit = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-limit, limit, size=shape)


class SequenceWorkspace:
    """The (N, .) arrays `MogrifierLstm.sequence` writes and `sequence_backward`
    reads, for rows packed step-major, with their row views.

    Step t is one run of `batch_sizes[t]` rows that continues the first
    `batch_sizes[t]` segments of step t - 1, so batch sizes never grow.  Built
    once for one `batch_sizes`: each `sequence` call overwrites the arrays and
    each `sequence_backward` call reads them, so an update builds one
    workspace and every epoch reuses its arrays and each step's `out` views.
    The caller writes the input rows into `x` before `sequence`.

    The arrays: `x` and `h_in` (the rows' input and incoming hidden state);
    `xh`, the [x, h] rows the gate gemm reads; each gating round's factors
    1 + tanh and output; the gate activations `acts`; the cell states `cs`,
    followed in `cells` by c0's rows, so each row's previous cell state is a
    row of `cells`; and the hidden states `hs`.
    """

    def __init__(self, cell, batch_sizes):
        sizes = np.asarray(batch_sizes, dtype=np.int64)
        n_rows, H, in_dim = int(sizes.sum()), cell.hidden, cell.in_dim
        dims = (in_dim, H)
        self.xh = np.empty((n_rows, in_dim + H))
        halves = (self.xh[:, :in_dim], self.xh[:, in_dim:])
        # versions[k] holds the successive versions of x (k = 0) and h (k = 1), the
        # first the step's input.  The last round of each kind writes into that
        # kind's half of xh, and a kind no round gates is read from its half, so
        # `step`'s concatenation copies nothing.
        versions = [[halves[k] if cell.rounds <= k else np.empty((n_rows, dims[k]))]
                    for k in (0, 1)]
        # Round i gates kind k from the other kind's latest version u: it reads
        # version v of kind k, writes the next one, and keeps its factors 1 + tanh.
        self.rounds, arrays = [], []
        for i, weight in enumerate(cell.round_weights, start=1):
            k = 1 - i % 2
            new = halves[k] if i + 2 > cell.rounds else np.empty((n_rows, dims[k]))
            factors = np.empty((n_rows, dims[k]))
            self.rounds.append((weight, k, versions[1 - k][-1], versions[k][-1], factors))
            versions[k].append(new)
            arrays += [factors, new]
        self.x, self.h_in = versions[0][0], versions[1][0]
        self.cells = np.empty((n_rows + sizes[0], H))
        self.cs = self.cells[:n_rows]
        self.acts, self.hs = np.empty((n_rows, 4 * H)), np.empty((n_rows, H))
        arrays += [self.xh, self.acts, self.cs, self.hs]
        # Per step in time order: its rows, their x and h_in, and `step`'s out.
        self.steps = []
        for first, n in zip(np.cumsum(sizes) - sizes, sizes):
            rows = slice(int(first), int(first + n))
            self.steps.append((rows, self.x[rows], self.h_in[rows], [a[rows] for a in arrays]))


class Dense:
    """Affine map x @ W + b for batched row vectors."""

    def __init__(self, rng, in_dim: int, out_dim: int, name: str):
        self.name = name
        self.W = Param(uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.b = Param(np.zeros(out_dim))

    def forward(self, x: np.ndarray) -> np.ndarray:
        # np.dot calls the gemm (or gemv) that x @ W does, without the ufunc
        # dispatch, and the bias adds into its fresh output.
        out = np.dot(x, self.W.value)
        out += self.b.value
        return out

    def backward(self, x: np.ndarray, g: np.ndarray, want_x: bool, out=None):
        """Add the b and W gradients for the output gradient g of `forward(x)`;
        return x's gradient, or None unless `want_x`.  x's gradient is written
        into `out` when given, which may be x itself: x is read first.

        The same arithmetic as the primitive form `add(matmul(x, W), b)`.
        """
        self.b.add_grad(g.sum(axis=0))
        self.W.add_grad(x.T @ g)
        return np.matmul(g, self.W.value.T, out=out) if want_x else None

    def params(self):
        return [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]


class MogrifierLstm:
    """LSTM cell preceded by alternating input/state gating rounds, on arrays.

    Before the cell update, input x and hidden state h modulate each other r
    times: odd rounds scale x by 1 + tanh(0.5 * (h @ Q_i)), which is
    2 * sigmoid(h @ Q_i), and even rounds scale h by 1 + tanh(0.5 * (x @ R_i)).
    With r = 0 (or all-zero Q/R) this is a plain LSTM, since tanh(0) is
    exactly 0.

    The gates share one weight W of shape (in_dim + hidden, 4 * hidden), rows
    [x; h] and column blocks in GATES order (i, f, o, g), and one bias b of
    shape (4 * hidden,), so the cell makes one gemm `[x, h] @ W + b`.  The
    sigmoid gates are 0.5 + 0.5 * tanh(0.5 * z), so all four gates take one
    tanh.

    The forward reads pre-scaled copies of the parameters, W * scale and
    b * scale (scale 0.5 in the sigmoid gates' columns, 1 in g's) and
    0.5 * Q_i and 0.5 * R_i for the rounds, so no tanh's argument takes a
    multiply of its own.  A power-of-two scale commutes with every rounding
    step (dot(u, 0.5 * Q) == 0.5 * dot(u, Q) and (z + b) * s == z * s + b * s,
    barring underflow), so the copies give the unscaled forms' floats bit for
    bit.  `refresh` rewrites them in place and runs wherever a parameter
    moves: here, in `ActorCritic.load_state` and after each Adam step of
    `PpoUpdater.update`; code that writes a parameter's value itself must call
    it before the next forward.

    `step` is the cell's only forward: rollout calls it on fresh arrays, and
    `sequence` runs it over packed rows, writing every intermediate into the
    (N, .) arrays of a `SequenceWorkspace` that `sequence_backward` reads.
    An update builds one workspace and reuses it in every epoch.  Each
    forward step and each reverse step is one run of rows, a view.  As cuDNN
    lays out recurrent work (Appleyard, Kocisky and Blunsom 2016,
    arXiv:1604.01946), each reverse step does only the work that carries the
    state, and the weight gradients are one gemm each over all N rows after
    the walk.
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
        self.W = Param(np.block([wx, wh]))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # start with a remembering forget gate
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
        # Per gate column: act = scale * tanh(scale * z) + shift is sigmoid(z) for
        # i, f and o and tanh(z) for g, and its derivative is (k1 - act) * act + k0:
        # (1 - act) * act for a sigmoid gate and 1 - act**2 for g.
        self._shift = np.repeat([0.5, 0.5, 0.5, 0.0], hidden)
        self._scale = 1.0 - self._shift
        self._k1 = 2.0 * self._shift
        self._k0 = 1.0 - self._k1
        # The pre-scaled copies `step` reads in place of the parameters: W * scale,
        # b * scale and each round's 0.5 * weight (in `round_weights` order).
        self._W_scaled = np.empty_like(self.W.value)
        self._b_scaled = np.empty_like(self.b.value)
        self._halves = [np.empty_like(weight.value) for weight in self.round_weights]
        self.refresh()

    def refresh(self):
        """Rewrite the pre-scaled copies from the parameters' values, in place."""
        np.multiply(self.W.value, self._scale, out=self._W_scaled)
        np.multiply(self.b.value, self._scale, out=self._b_scaled)
        for weight, half in zip(self.round_weights, self._halves):
            np.multiply(weight.value, 0.5, out=half)

    def initial_state(self, batch: int = 1):
        return np.zeros((batch, self.hidden)), np.zeros((batch, self.hidden))

    def mogrify(self, x: np.ndarray, h: np.ndarray, out=None):
        """The gating rounds; returns the gated (x, h), x and h themselves when r = 0.

        Round i writes its factors 1 + tanh(u @ (0.5 * weight)), the same floats
        as 1 + tanh(0.5 * (u @ weight)), and its output into `out[2i - 2]` and
        `out[2i - 1]` when given, else into a new array.
        """
        v = [x, h]
        for i, half in enumerate(self._halves):
            k = i % 2
            t, new = (None, None) if out is None else out[2 * i:2 * i + 2]
            t = np.dot(v[1 - k], half, out=t)
            np.tanh(t, out=t)
            np.add(t, 1.0, out=t)
            v[k] = np.multiply(t, v[k], out=t if new is None else new)
        return v[0], v[1]

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray, out=None):
        """One mogrified recurrence step; returns (h_new, c_new).

        The gating rounds, then with gates (i, f, o, g) from one gemm,
        c_new = f * c + i * g and h_new = o * tanh(c_new).  Given `out`, the
        rounds' arrays (see `mogrify`) followed by [x, h], the gate
        activations, c_new and h_new are written into its arrays.
        """
        H, n = self.hidden, 2 * self.rounds
        x, h = self.mogrify(x, h, None if out is None else out[:n])
        xh, a, c_new, h_new = (None,) * 4 if out is None else out[n:]
        a = np.dot(np.concatenate((x, h), axis=1, out=xh), self._W_scaled, out=a)
        np.add(a, self._b_scaled, out=a)
        np.tanh(a, out=a)
        np.multiply(a, self._scale, out=a)
        np.add(a, self._shift, out=a)
        c_new = np.multiply(a[:, H:2 * H], c, out=c_new)
        c_new += a[:, :H] * a[:, 3 * H:]
        h_new = np.tanh(c_new, out=h_new)
        np.multiply(a[:, 2 * H:3 * H], h_new, out=h_new)
        return h_new, c_new

    def sequence(self, work: SequenceWorkspace, h0: np.ndarray, c0: np.ndarray):
        """Hidden states (N, hidden) over the input rows `work.x` from (h0, c0).

        Rows are packed step-major (see `SequenceWorkspace`), one row of h0
        and c0 per segment.  Each step is one `step` call writing into the
        workspace's arrays.  Returns `work.hs`.
        """
        n_rows = len(work.cs)
        work.cells[n_rows:] = c0
        h, c = h0, c0
        for _, x, h_in, out in work.steps:
            n = len(x)
            h_in[...] = h[:n]
            h, c = self.step(x, h_in, c[:n], out)
        return work.hs

    def sequence_backward(self, work: SequenceWorkspace, g_hs: np.ndarray) -> np.ndarray:
        """Add the W, b, Q and R gradients for the hidden states' gradient g_hs
        (N, hidden) of the last `sequence` on `work`; return the input rows'
        gradient (N, in_dim).

        The reverse walk runs the steps from last to first; the state
        gradient starts at zero at each segment's end and stops at (h0, c0).
        Each step writes its gates' pre-activation gradient over their
        activations and each round's over its factors, which the weight
        gradients read after the loop.
        """
        H, in_dim = self.hidden, self.in_dim
        acts, cs, cells, rounds = work.acts, work.cs, work.cells, work.rounds
        # Contiguous transposes: a gemm on a transposed view runs about half as fast.
        W_T = self.W.value.T.copy()
        halves_T = [half.T.copy() for half in self._halves]
        gx = np.empty((len(acts), in_dim))
        # gh and gc, in the rows of the step the walk reaches next.  Batch sizes
        # only grow as the walk goes back, so the rows past a step's are still
        # zero when it reads them: the segments that end there start from zero.
        carry = np.zeros((2, len(cells) - len(cs), H))
        for t in range(len(work.steps) - 1, -1, -1):
            rows = work.steps[t][0]
            first = work.steps[t - 1][0].start if t else len(cs)
            a, tanh_c = acts[rows], np.tanh(cs[rows])  # as the forward computed it
            n = len(a)
            c_prev = cells[first:first + n]
            gh, gc = carry[:, :n]
            g_h = g_hs[rows] + gh
            g_c = gc + (g_h * a[:, 2 * H:3 * H]) * (1.0 - tanh_c**2)
            slope = (self._k1 - a) * a + self._k0
            gc_prev = g_c * a[:, H:2 * H]
            g_g = g_c * a[:, :H]
            np.multiply(g_c, a[:, 3 * H:], out=a[:, :H])
            np.multiply(g_c, c_prev, out=a[:, H:2 * H])
            np.multiply(g_h, tanh_c, out=a[:, 2 * H:3 * H])
            a[:, 3 * H:] = g_g
            np.multiply(a, slope, out=a)
            g_xh = np.dot(a, W_T)
            grads = [g_xh[:, :in_dim], g_xh[:, in_dim:]]
            for (_, k, u, v, factors), half_T in zip(reversed(rounds), reversed(halves_T)):
                g, m = grads[k], factors[rows]
                g_v = g * v[rows]
                grads[k] = g * m
                # d(1 + tanh(s))/ds = 1 - tanh(s)**2 = m * (2 - m) for m = 1 + tanh(s).
                d = np.subtract(2.0, m)
                np.multiply(d, m, out=d)
                np.multiply(g_v, d, out=m)
                grads[1 - k] += np.dot(m, half_T)
            gx[rows] = grads[0]
            carry[0, :n], carry[1, :n] = grads[1], gc_prev
        del W_T, halves_T, carry  # freed before the weight gradients are allocated
        self.W.add_grad(np.dot(work.xh.T, acts))
        self.b.add_grad(acts.sum(axis=0))
        for weight, _, u, _, factors in rounds:
            # s = u @ (0.5 * weight), so the weight takes half of u.T @ (ds gradient).
            weight.add_grad(np.dot(u.T, factors) * 0.5)
        return gx

    def params(self):
        out = [(f"{self.name}.W", self.W), (f"{self.name}.b", self.b)]
        for i, q in enumerate(self.Q):
            out.append((f"{self.name}.Q{2 * i + 1}", q))
        for i, r in enumerate(self.R):
            out.append((f"{self.name}.R{2 * i + 2}", r))
        return out
