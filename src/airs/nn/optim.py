"""Adam with bias correction, operating on `Param` arrays and their gradients."""

import numpy as np


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, step):
    """One update of `param` and its moments, all in place.

    m and v are the running first/second moments before this step; `step`
    counts from 1 for bias correction.
    """
    # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
    # param -= (lr * m_hat) / (sqrt(v_hat) + eps), each rounding step in that
    # order, through two scratch arrays.
    a = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += a
    b = np.square(grad)
    b *= 1.0 - beta2
    v *= beta2
    v += b
    np.divide(m, 1.0 - beta1**step, out=a)
    a *= lr
    np.divide(v, 1.0 - beta2**step, out=b)
    np.sqrt(b, out=b)
    b += eps
    a /= b
    param -= a


class Adam:
    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            adam_update(
                p.value, p.grad, self.m[i], self.v[i],
                self.lr, self.beta1, self.beta2, self.eps, self.step_count,
            )
