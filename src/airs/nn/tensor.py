"""Parameters and the entry of the update's reverse pass.

Gradients are explicit array code: each differentiable piece returns its
output and a cache, and its backward adds the parameter gradients into each
`Param.grad`.  The dense layers, the log-density and the loss write each
gradient in the expression forms and summation order of the primitive
reverse-mode ops it stands for (the tests keep that tape as the reference),
so they are bit-equal to it; the mogrifier cell's fused kernels match it to
1e-12 relative.
"""

import numpy as np


class Param:
    """A float64 parameter array and the gradient summed into it (None before the first)."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None

    def add_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g


# `backward` and `tape_size` are there for the benchmark's tracer (airsbench/
# tracing.py): it times `backward` as `nn.backward` and reads `tape_size`
# before each call, until a benchmark change points it at the update itself.


def backward(reverse, *args):
    """Run the update's reverse pass, `reverse(*args)`: one call per epoch."""
    reverse(*args)


def tape_size() -> int:
    """Nodes on the tape: always 0, as nothing is taped."""
    return 0
