"""Fused operations for the transformer hot path.

Each function here has a hand-derived backward pass instead of being a
composition of primitive ops.  This keeps the autograd graph shallow
(important: our models run thousands of steps per experiment) and keeps
all the arithmetic inside vectorized NumPy kernels.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autograd import Tensor, unbroadcast

__all__ = [
    "softmax",
    "log_softmax",
    "cross_entropy",
    "batched_cross_entropy",
    "layer_norm",
    "embedding",
    "batched_embedding",
    "dropout",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out_data = kernels.softmax(x.data, axis=axis)

    def backward(grad):
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        return (out_data * (grad - dot),)

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    out_data = kernels.log_softmax(x.data, axis=axis)
    soft = np.exp(out_data)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor._make(out_data.astype(np.float32), (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -100) -> Tensor:
    """Mean token-level cross entropy for causal language modelling.

    Parameters
    ----------
    logits:
        Float tensor of shape ``(..., vocab)``; leading axes are
        flattened internally (e.g. ``(batch, seq, vocab)``).
    targets:
        Integer array broadcastable to the leading axes of ``logits``.
    ignore_index:
        Target value to exclude from the loss (used for padding).
    """
    targets = np.asarray(targets)
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, vocab)
    flat_targets = targets.reshape(-1)
    valid = flat_targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy received no valid targets")

    log_probs = kernels.log_softmax(flat_logits)

    rows = np.arange(flat_targets.shape[0])
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[rows, safe_targets]
    loss = -(picked * valid).sum() / n_valid

    def backward(grad):
        # grad is a scalar; softmax-minus-onehot, averaged over tokens.
        soft = np.exp(log_probs)
        soft[rows, safe_targets] -= 1.0
        soft *= (valid / n_valid)[:, None]
        return ((grad * soft).reshape(logits.shape).astype(np.float32),)

    return Tensor._make(np.asarray(loss, dtype=np.float32), (logits,), backward)


def batched_cross_entropy(logits: Tensor, targets: np.ndarray,
                          ignore_index: int = -100) -> Tensor:
    """Per-model mean cross entropy for ``K`` stacked models.

    The leading axis of ``logits`` indexes independent models (the
    batched client plane stacks K clients' graphs); the result is a
    ``(K,)`` tensor of per-model mean losses.  Each slice computes
    exactly what :func:`cross_entropy` computes for that model alone —
    summing the ``(K,)`` vector and calling ``backward()`` seeds every
    model's loss with gradient 1.0, so the stacked backward pass is
    the K sequential backward passes run at once, with no gradient
    flow between models.

    Parameters
    ----------
    logits:
        Float tensor of shape ``(K, ..., vocab)``.
    targets:
        Integer array of shape ``(K, ...)`` matching the leading axes.
    """
    targets = np.asarray(targets)
    k = logits.shape[0]
    vocab = logits.shape[-1]
    flat_logits = logits.data.reshape(k, -1, vocab)
    flat_targets = targets.reshape(k, -1)
    valid = flat_targets != ignore_index
    n_valid = valid.sum(axis=1)
    if np.any(n_valid == 0):
        raise ValueError("batched_cross_entropy received a model with no "
                         "valid targets")

    log_probs = kernels.log_softmax(flat_logits)

    models = np.arange(k)[:, None]
    rows = np.arange(flat_targets.shape[1])[None, :]
    safe_targets = np.where(valid, flat_targets, 0)
    picked = log_probs[models, rows, safe_targets]
    # Per-row reduction over the same contiguous token axis the scalar
    # op reduces, divided by a float32 count exactly like the scalar
    # op's weak-scalar division.
    loss = -(picked * valid).sum(axis=1) / n_valid.astype(np.float32)

    def backward(grad):
        soft = np.exp(log_probs)
        soft[models, rows, safe_targets] -= 1.0
        soft *= (valid / n_valid[:, None])[:, :, None]
        out = grad.reshape(k, 1, 1) * soft
        return (out.reshape(logits.shape).astype(np.float32),)

    return Tensor._make(loss.astype(np.float32), (logits,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine parameters."""
    out_data, x_hat, inv_std = kernels.layer_norm(x.data, gamma.data, beta.data, eps)

    def backward(grad):
        dg = unbroadcast(grad * x_hat, gamma.shape)
        db = unbroadcast(grad, beta.shape)
        dxhat = grad * gamma.data
        # Standard layer-norm backward identity.
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - x_hat * (dxhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std
        return (dx.astype(np.float32), dg.astype(np.float32), db.astype(np.float32))

    return Tensor._make(out_data.astype(np.float32), (x, gamma, beta), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Lookup rows of ``weight`` at integer ``indices``."""
    indices = np.asarray(indices)
    out_data = weight.data[indices]

    def backward(grad):
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.shape[-1]))
        return (full,)

    return Tensor._make(out_data, (weight,), backward)


def batched_embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Per-model row lookup for ``K`` stacked embedding tables.

    ``weight`` has shape ``(K, vocab, dim)`` — one table per stacked
    model — and ``indices`` has shape ``(K, ...)``; model ``k`` gathers
    only from table ``k``, so gradients never mix between models.  The
    backward ``np.add.at`` scatters per model in the same row-major
    order the scalar :func:`embedding` uses, keeping the accumulation
    order (and hence the float32 sums) identical slice by slice.
    """
    indices = np.asarray(indices)
    k = weight.shape[0]
    model_idx = np.arange(k).reshape((k,) + (1,) * (indices.ndim - 1))
    out_data = weight.data[model_idx, indices]

    def backward(grad):
        full = np.zeros_like(weight.data)
        flat_models = np.broadcast_to(model_idx, indices.shape).reshape(-1)
        np.add.at(full, (flat_models, indices.reshape(-1)),
                  grad.reshape(-1, weight.shape[-1]))
        return (full,)

    return Tensor._make(out_data, (weight,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    out_data = x.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor._make(out_data, (x,), backward)
