"""Plain-NumPy float32 forward kernels: the one copy that autograd
training, the KV-cached inference engine, multi-adapter serving and the
tensor-parallel reference all call, so they round the same way.  Kernels
with a hand-written backward also return the intermediates it reuses.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gelu", "layer_norm", "log_softmax", "softmax"]

GELU_C = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh-approximate GELU (MPT/GPT); returns ``(out, tanh_value)``.

    ``x * x * x`` rather than ``x**3``: float32 ``pow`` is far slower.
    """
    t = np.tanh(GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm over the last axis; returns ``(out, x_hat, inv_std)``."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    return x_hat * gamma + beta, x_hat, inv_std


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
