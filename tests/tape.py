"""Reference reverse-mode autodiff over float64 arrays: the tests' oracle.

The program's explicit gradients are checked against compositions of these
primitive ops, whose reverse walk fixes the expression forms and summation
order the kernels reproduce bit for bit; a kernel enters a reference loss as
one node (`record`) over its forward and backward.  Ops tape their outputs in
creation order; backward() walks the tape once in reverse, accumulating into
the .grad of leaves (the program's `Param`s, and Tensors made with
requires_grad), and consumes it.  no_grad() skips taping.
"""

from contextlib import contextmanager

import numpy as np

from airs.nn.tensor import Param

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


def tape_size() -> int:
    return len(_tape)


def clear_tape():
    """Empty the tape and release every node's backward closure."""
    for node in _tape:
        node.backward_fn = None
    _tape.clear()


class Tensor(Param):
    """An op's output, or a leaf that takes a gradient when made with requires_grad."""

    __slots__ = ("backward_fn", "requires_grad")

    def __init__(self, value, requires_grad=False):
        super().__init__(value)
        self.backward_fn = None
        self.requires_grad = requires_grad


def _tracked(t) -> bool:
    """Whether t takes a gradient: a Param always, a Tensor when it requires one."""
    return type(t) is Param or t.requires_grad


def _wrap(x):
    return x if isinstance(x, Param) else Tensor(x)


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


def _op(out_value, *edges) -> Tensor:
    """`out_value` of an op, taped when one of its inputs takes a gradient.

    Each edge is (input, fn): the backward adds fn(g) to each such input, in
    edge order, for the output's gradient g.
    """
    live = [(t, fn) for t, fn in edges if _tracked(t)]
    if not (_grad_enabled and live):
        return Tensor(out_value)

    def backward_fn(g):
        for t, fn in live:
            t.add_grad(fn(g))

    return record(out_value, backward_fn)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _op(a.value + b.value, (a, lambda g: unbroadcast(g, a.value.shape)),
               (b, lambda g: unbroadcast(g, b.value.shape)))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _op(a.value - b.value, (a, lambda g: unbroadcast(g, a.value.shape)),
               (b, lambda g: unbroadcast(-g, b.value.shape)))


def neg(a) -> Tensor:
    return _op(-a.value, (a, lambda g: -g))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _op(a.value * b.value, (a, lambda g: unbroadcast(g * b.value, a.value.shape)),
               (b, lambda g: unbroadcast(g * a.value, b.value.shape)))


def matmul(a, b) -> Tensor:
    return _op(a.value @ b.value, (a, lambda g: g @ b.value.T), (b, lambda g: a.value.T @ g))


def tanh(a) -> Tensor:
    out_value = np.tanh(a.value)
    return _op(out_value, (a, lambda g: g * (1.0 - out_value**2)))


def sigmoid(a) -> Tensor:
    # exp overflow for very negative inputs just saturates to 0, which is correct.
    with np.errstate(over="ignore"):
        out_value = 1.0 / (1.0 + np.exp(-a.value))
    return _op(out_value, (a, lambda g: g * out_value * (1.0 - out_value)))


def exp(a) -> Tensor:
    out_value = np.exp(a.value)
    return _op(out_value, (a, lambda g: g * out_value))


def square(a) -> Tensor:
    return _op(a.value**2, (a, lambda g: g * 2.0 * a.value))


def minimum(a, b) -> Tensor:
    """Elementwise min; the gradient follows the smaller branch (ties -> a)."""
    a, b = _wrap(a), _wrap(b)
    take_a = a.value <= b.value
    return _op(np.minimum(a.value, b.value),
               (a, lambda g: unbroadcast(g * take_a, a.value.shape)),
               (b, lambda g: unbroadcast(g * ~take_a, b.value.shape)))


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where no clamping happened."""
    inside = (a.value >= lo) & (a.value <= hi)
    return _op(np.clip(a.value, lo, hi), (a, lambda g: g * inside))


def sum_all(a) -> Tensor:
    return _op(a.value.sum(), (a, lambda g: np.broadcast_to(g, a.value.shape).copy()))


def sum_axis(a, axis: int) -> Tensor:
    return _op(a.value.sum(axis=axis),
               (a, lambda g: np.broadcast_to(np.expand_dims(g, axis), a.value.shape).copy()))


def mean_all(a) -> Tensor:
    n = a.value.size
    return _op(a.value.mean(), (a, lambda g: np.broadcast_to(g / n, a.value.shape).copy()))


def reshape(a, shape) -> Tensor:
    return _op(a.value.reshape(shape), (a, lambda g: g.reshape(a.value.shape)))


def backward(loss: Tensor):
    """Propagate d(loss) through every taped node into the leaves' .grad, and
    consume the tape; taped nodes, the loss among them, keep no gradient."""
    if loss.value.ndim != 0:
        raise ValueError(f"backward() expects a scalar loss, got shape {loss.value.shape}")
    loss.add_grad(np.ones_like(loss.value))
    for node in reversed(_tape):
        # Taken off the node first, so what only they hold is freed as the walk goes.
        backward_fn, node.backward_fn = node.backward_fn, None
        grad, node.grad = node.grad, None
        if backward_fn is not None and grad is not None:
            backward_fn(grad)
    clear_tape()
