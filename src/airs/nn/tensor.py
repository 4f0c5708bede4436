"""Minimal reverse-mode autodiff over float64 numpy arrays.

Ops append their results to a tape in creation order, which is already a
topological order of the graph; backward() walks the tape once in reverse,
routing each node's gradient to its inputs, and consumes the tape.  Gradients
accumulate into .grad, so computing a fresh loss and calling backward() again
adds to the accumulators.  A no_grad() context skips taping entirely, which
keeps rollout-time forwards cheap.

Fused ops.  A layer may tape a whole block of arithmetic as one node with a
hand-written backward (`record`), or as two adjacent nodes when the block has
two outputs (`record_pair`, whose backward runs once with both gradients,
either of which may be None).  Float sums depend on their order, so a fused
op reproduces the tape of the primitive ops it replaces bit for bit:
- its forward evaluates the same numpy expressions as the primitives would;
- it skips the part of its backward that hangs off an output, or an
  intermediate, whose gradient is None, as the reverse walk would skip those
  nodes;
- it calls `add_grad` on each input and parameter once per use, in the order
  the reverse walk over the primitive nodes did, and sums gradients of its
  intermediates in that order too, consumers outside the block first;
- under no_grad, or when no input needs a gradient, it returns plain Tensors
  from the same forward, so rollouts and updates share one code path.
The two nodes of a pair refer to each other through their shared backward, so
`clear_tape` drops every node's `backward_fn`: the graph is then freed by
reference counting, after backward() and on an aborted update alike.
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


def record_pair(first_value, second_value, backward_fn):
    """Tape a two-output op as two adjacent nodes sharing one backward.

    `backward_fn(g_first, g_second)` runs once, when the reverse walk meets the
    first output that has a gradient; by then every consumer of both outputs,
    all taped later, has run.  Either gradient may be None.
    """
    first, second = Tensor(first_value), Tensor(second_value)

    def run(_):
        first.backward_fn = second.backward_fn = None
        backward_fn(first.grad, second.grad)

    for out in (first, second):
        out.requires_grad = True
        out.backward_fn = run
        _tape.append(out)
    return first, second


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


def stack(tensors) -> Tensor:
    """Same-shape tensors stacked along a new leading axis."""
    tensors = [_wrap(t) for t in tensors]
    out_value = np.stack([t.value for t in tensors])
    if not (_grad_enabled and any(t.requires_grad for t in tensors)):
        return Tensor(out_value)

    def backward_fn(g):
        for t, g_t in zip(tensors, g):
            if t.requires_grad:
                t.add_grad(g_t)

    return record(out_value, backward_fn)


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
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward() expects a scalar loss, got shape {loss.value.shape}")
    loss.add_grad(np.ones_like(loss.value))
    for node in reversed(_tape):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)
    clear_tape()
