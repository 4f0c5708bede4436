"""Adam with bias correction, operating on `Param` arrays and their gradients."""

import numpy as np


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, step):
    """One in-place update; returns the new (m, v) moments.

    m and v are the running first/second moments before this step; `step`
    counts from 1 for bias correction.
    """
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return m, v


class Adam:
    def __init__(self, params, lr=3e-4, betas=(0.9, 0.999), eps=1e-8):
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
            self.m[i], self.v[i] = adam_update(
                p.value, p.grad, self.m[i], self.v[i],
                self.lr, self.beta1, self.beta2, self.eps, self.step_count,
            )
