"""Minimal reverse-mode autodiff over float64 numpy arrays.

Ops append their results to a tape in creation order, which is already a
topological order of the graph; backward() walks the tape once in reverse,
routing each node's gradient to its inputs, and consumes the tape.  Gradients
accumulate into .grad, so computing a fresh loss and calling backward() again
adds to the accumulators.  A no_grad() context skips taping entirely.

Fused ops.  A layer may tape a whole block of arithmetic as one node with a
hand-written backward (`record`); under no_grad, or when no input needs a
gradient, it returns a plain Tensor from the same forward.  The one-step
kernels (a dense layer, a mogrified LSTM step, the Gaussian log-density)
reproduce the tape of the primitive ops they replace bit for bit: the same
numpy expressions, and gradients summed in the order of the primitive
reverse walk.  The actor's recurrence over a packed batch runs the trunk and
mean head as one gemm over all rows instead of one per step; gemm rounding
depends on the row count, so it matches the per-step primitive tape to
rounding (1e-12 relative), not bit for bit.
backward() takes each taped node's `backward_fn` and gradient off it as it
walks it, and `clear_tape` drops every `backward_fn` left, so each graph is
freed by reference counting, during backward() and on an aborted update
alike.  Gradients stay only on leaves (tensors made with requires_grad).
"""

from contextlib import contextmanager

import numpy as np

_F64 = np.dtype(np.float64)
_grad_enabled = True
_tape = []


@contextmanager
def no_grad():
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    return _grad_enabled


def tape_size() -> int:
    return len(_tape)


def clear_tape():
    """Empty the tape and release every node's backward closure."""
    for node in _tape:
        node.backward_fn = None
    _tape.clear()


class Tensor:
    __slots__ = ("value", "grad", "backward_fn", "requires_grad")

    def __init__(self, value, requires_grad=False):
        if type(value) is np.ndarray and value.dtype == _F64:
            self.value = value
        else:
            self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.backward_fn = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def detach(self) -> "Tensor":
        return Tensor(self.value)

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    def add_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def needs_grad(*inputs) -> bool:
    """Whether an op on `inputs` is taped: gradients on and one input needs one."""
    return _grad_enabled and any(t.requires_grad for t in inputs)


def record(out_value, backward_fn) -> Tensor:
    """Tape one op output; `backward_fn(g)` routes its gradient g to the inputs."""
    out = Tensor(out_value)
    out.requires_grad = True
    out.backward_fn = backward_fn
    _tape.append(out)
    return out


def unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_value = a.value + b.value
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return Tensor(out_value)

    def backward_fn(g):
        if a.requires_grad:
            a.add_grad(unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.add_grad(unbroadcast(g, b.value.shape))

    return record(out_value, backward_fn)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_value = a.value - b.value
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return Tensor(out_value)

    def backward_fn(g):
        if a.requires_grad:
            a.add_grad(unbroadcast(g, a.value.shape))
        if b.requires_grad:
            b.add_grad(unbroadcast(-g, b.value.shape))

    return record(out_value, backward_fn)


def neg(a) -> Tensor:
    a = _wrap(a)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(-a.value)
    return record(-a.value, lambda g: a.add_grad(-g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_value = a.value * b.value
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return Tensor(out_value)

    def backward_fn(g):
        if a.requires_grad:
            a.add_grad(unbroadcast(g * b.value, a.value.shape))
        if b.requires_grad:
            b.add_grad(unbroadcast(g * a.value, b.value.shape))

    return record(out_value, backward_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_value = a.value @ b.value
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return Tensor(out_value)

    def backward_fn(g):
        if a.requires_grad:
            a.add_grad(g @ b.value.T)
        if b.requires_grad:
            b.add_grad(a.value.T @ g)

    return record(out_value, backward_fn)


def tanh(a: Tensor) -> Tensor:
    out_value = np.tanh(a.value)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)
    return record(out_value, lambda g: a.add_grad(g * (1.0 - out_value**2)))


def logistic(x):
    """Elementwise sigmoid of an array, the forward of `sigmoid`."""
    # exp overflow for very negative x just saturates to 0, which is correct.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    out_value = logistic(a.value)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)
    return record(out_value, lambda g: a.add_grad(g * out_value * (1.0 - out_value)))


def exp(a: Tensor) -> Tensor:
    out_value = np.exp(a.value)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)
    return record(out_value, lambda g: a.add_grad(g * out_value))


def square(a: Tensor) -> Tensor:
    if not (_grad_enabled and a.requires_grad):
        return Tensor(a.value**2)
    return record(a.value**2, lambda g: a.add_grad(g * 2.0 * a.value))


def minimum(a, b) -> Tensor:
    """Elementwise min; the gradient follows the smaller branch (ties -> a)."""
    a, b = _wrap(a), _wrap(b)
    out_value = np.minimum(a.value, b.value)
    if not (_grad_enabled and (a.requires_grad or b.requires_grad)):
        return Tensor(out_value)
    take_a = a.value <= b.value

    def backward_fn(g):
        if a.requires_grad:
            a.add_grad(unbroadcast(g * take_a, a.value.shape))
        if b.requires_grad:
            b.add_grad(unbroadcast(g * ~take_a, b.value.shape))

    return record(out_value, backward_fn)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where no clamping happened."""
    out_value = np.clip(a.value, lo, hi)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)
    inside = (a.value >= lo) & (a.value <= hi)
    return record(out_value, lambda g: a.add_grad(g * inside))


def sum_all(a: Tensor) -> Tensor:
    if not (_grad_enabled and a.requires_grad):
        return Tensor(a.value.sum())
    return record(
        a.value.sum(),
        lambda g: a.add_grad(np.broadcast_to(g, a.value.shape).copy()),
    )


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out_value = a.value.sum(axis=axis)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)
    return record(
        out_value,
        lambda g: a.add_grad(np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy()),
    )


def mean_all(a: Tensor) -> Tensor:
    n = a.value.size
    if not (_grad_enabled and a.requires_grad):
        return Tensor(a.value.mean())
    return record(
        a.value.mean(),
        lambda g: a.add_grad(np.broadcast_to(g / n, a.value.shape).copy()),
    )


def reshape(a: Tensor, shape) -> Tensor:
    if not (_grad_enabled and a.requires_grad):
        return Tensor(a.value.reshape(shape))
    return record(a.value.reshape(shape), lambda g: a.add_grad(g.reshape(a.value.shape)))


def take(a: Tensor, indices) -> Tensor:
    """Elements of the flattened `a` at `indices`, as np.take without an axis.

    Positions no index names get a zero gradient; repeated indices add up.
    """
    indices = np.asarray(indices)
    out_value = a.value.take(indices)
    if not (_grad_enabled and a.requires_grad):
        return Tensor(out_value)

    def backward_fn(g):
        grad = np.zeros(a.value.size)
        np.add.at(grad, indices, g)
        a.add_grad(grad.reshape(a.value.shape))

    return record(out_value, backward_fn)


def backward(loss: Tensor):
    """Propagate d(loss) through every taped node into .grad accumulators.

    Consumes the tape: the graph must be rebuilt (loss recomputed) before
    calling backward again; leaf gradients then accumulate across calls.
    Taped nodes, the loss among them, are left without a gradient.
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward() expects a scalar loss, got shape {loss.value.shape}")
    loss.add_grad(np.ones_like(loss.value))
    for node in reversed(_tape):
        # Take the closure and the gradient off the node before running it, so
        # what only they hold (a layer's cached activations, the gradient of
        # its output) is freed as the walk goes, not when the tape is cleared.
        backward_fn, node.backward_fn = node.backward_fn, None
        grad, node.grad = node.grad, None
        if backward_fn is not None and grad is not None:
            backward_fn(grad)
    clear_tape()
