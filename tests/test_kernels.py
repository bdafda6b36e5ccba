"""The shared float32 forward kernels and the slice-gradient scatter.

Training, the KV-cached inference engine and multi-adapter serving
must call the same kernels (identical bytes on identical inputs), and
``Tensor.__getitem__``'s backward must equal an ``np.add.at`` scatter
bit for bit whatever the index kind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.nn import DecoderLM, InferenceEngine
from repro.serve import MultiAdapterEngine
from repro.tensor import Tensor, kernels, ops

CFG = ModelConfig("micro", n_blocks=2, d_model=16, n_heads=2, vocab_size=32,
                  seq_len=24)


def gelu_reference(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


class TestGeluKernel:
    def test_dense_grid_within_float32_bound_of_float64_reference(self):
        x = np.linspace(-8.0, 8.0, 400_001, dtype=np.float32)
        out, _ = kernels.gelu(x)
        assert out.dtype == np.float32
        assert np.abs(out - gelu_reference(x)).max() <= 1e-6

    def test_returns_the_tanh_its_backward_reuses(self, rng):
        x = rng.standard_normal(257).astype(np.float32)
        out, t = kernels.gelu(x)
        np.testing.assert_array_equal(out, 0.5 * x * (1.0 + t))


def record_calls(monkeypatch, name: str) -> list[tuple[tuple, np.ndarray]]:
    """Patch ``kernels.<name>`` to log ``(input arrays, output)`` copies."""
    calls = []
    original = getattr(kernels, name)

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        out = result[0] if isinstance(result, tuple) else result
        calls.append((tuple(np.array(a) for a in args), out.copy()))
        return result

    monkeypatch.setattr(kernels, name, recorder)
    return calls


def engine_calls(monkeypatch, name: str, prompt: np.ndarray) -> dict[str, list]:
    """Kernel calls made by one prefill of each serving engine."""
    model = DecoderLM(CFG, seed=0)
    calls = record_calls(monkeypatch, name)
    InferenceEngine(model).prefill(prompt)
    per_engine = {"inference": list(calls)}
    calls.clear()
    engine = MultiAdapterEngine(model)
    engine.open("r")
    engine.prefill_batch({"r": prompt})
    per_engine["serving"] = list(calls)
    monkeypatch.undo()
    return per_engine


TRAINING_OPS = {
    "gelu": lambda x: Tensor(x).gelu().data,
    "layer_norm": lambda x, g, b: ops.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data,
    "softmax": lambda x: ops.softmax(Tensor(x)).data,
}


@pytest.mark.parametrize("name", sorted(TRAINING_OPS))
def test_serving_engines_compute_training_bytes(monkeypatch, rng, name):
    prompt = rng.integers(2, CFG.vocab_size, size=9)
    for engine, calls in engine_calls(monkeypatch, name, prompt).items():
        assert calls, f"{engine} engine bypassed kernels.{name}"
        for args, out in calls:
            assert out.dtype == np.float32
            assert out.tobytes() == TRAINING_OPS[name](*args).tobytes(), engine


class TestGetitemBackward:
    BASIC = [3, np.int64(-2), slice(1, 5), slice(None, None, 2), None,
             Ellipsis, (slice(None), 1), (Ellipsis, np.int64(0)),
             (None, 2, slice(0, 3)), (1, Ellipsis, None)]

    @pytest.mark.parametrize("index", BASIC, ids=repr)
    def test_basic_index_matches_add_at_bit_for_bit(self, rng, index):
        data = rng.standard_normal((6, 4, 5)).astype(np.float32)
        x = Tensor(data, requires_grad=True)
        y = x[index]
        grad = rng.standard_normal(y.shape).astype(np.float32)
        # Signed zeros: add.at onto a zero buffer turns -0.0 into +0.0.
        grad.reshape(-1)[::3] = -0.0
        y.backward(grad)
        reference = np.zeros_like(data)
        np.add.at(reference, index, grad)
        assert x.grad.tobytes() == reference.tobytes()

    def test_fancy_index_with_repeats_accumulates(self):
        x = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        x[[0, 0, 2]].backward(np.ones((3, 3), dtype=np.float32))
        np.testing.assert_array_equal(x.grad[:, 0], [2.0, 0.0, 1.0, 0.0])
