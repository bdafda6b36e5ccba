"""State-dict serialization, tree arithmetic, and metric aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    History,
    RoundRecord,
    aggregate_metrics,
    decode_state,
    encode_state,
    state_bytes,
    state_to_vector,
    tree_add,
    tree_mean,
    tree_norm,
    tree_scale,
    tree_sub,
    tree_zeros_like,
    vector_to_state,
)


def sample_state(rng, keys=("a", "b.c")) -> dict:
    return {k: rng.normal(size=(3, 2)).astype(np.float32) for k in keys}


class TestVectorRoundtrip:
    def test_roundtrip(self, rng):
        state = sample_state(rng)
        vec = state_to_vector(state)
        back = vector_to_state(vec, state)
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    def test_vector_is_key_sorted(self, rng):
        state = {"z": np.array([1.0], dtype=np.float32),
                 "a": np.array([2.0], dtype=np.float32)}
        np.testing.assert_array_equal(state_to_vector(state), [2.0, 1.0])

    def test_size_mismatch_rejected(self, rng):
        state = sample_state(rng)
        with pytest.raises(ValueError):
            vector_to_state(np.zeros(3), state)

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError):
            state_to_vector({})

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        state = {"w": rng.normal(size=(rows, cols)).astype(np.float32)}
        back = vector_to_state(state_to_vector(state), state)
        np.testing.assert_array_equal(back["w"], state["w"])


class TestByteEncoding:
    def test_compressed_roundtrip(self, rng):
        state = sample_state(rng)
        back = decode_state(encode_state(state))
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    def test_raw_roundtrip(self, rng):
        # zlib level 0 stores the packed arrays uncompressed.
        state = sample_state(rng)
        back = decode_state(encode_state(state, 0))
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    def test_compression_shrinks_redundant_payloads(self):
        state = {"w": np.zeros((256, 256), dtype=np.float32)}
        compressed = encode_state(state, 1)
        raw = encode_state(state, 0)
        assert len(compressed) < len(raw) / 10

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_state(b"XXXXgarbage")

    def test_state_bytes(self):
        state = {"w": np.zeros((10, 10), dtype=np.float32)}
        assert state_bytes(state) == 400
        assert state_bytes(state, bytes_per_param=2) == 200


class TestTreeMath:
    def test_add_sub_inverse(self, rng):
        a, b = sample_state(rng), sample_state(rng)
        back = tree_sub(tree_add(a, b), b)
        for k in a:
            np.testing.assert_allclose(back[k], a[k], rtol=1e-6)

    def test_scale(self, rng):
        a = sample_state(rng)
        doubled = tree_scale(a, 2.0)
        for k in a:
            np.testing.assert_allclose(doubled[k], 2 * a[k])

    def test_mean_uniform(self, rng):
        states = [sample_state(rng) for _ in range(3)]
        mean = tree_mean(states)
        for k in states[0]:
            expected = np.mean([s[k] for s in states], axis=0)
            np.testing.assert_allclose(mean[k], expected, rtol=1e-5, atol=1e-6)

    def test_mean_weighted(self, rng):
        a, b = sample_state(rng), sample_state(rng)
        mean = tree_mean([a, b], weights=[3.0, 1.0])
        for k in a:
            np.testing.assert_allclose(mean[k], 0.75 * a[k] + 0.25 * b[k],
                                       rtol=1e-5, atol=1e-6)

    def test_mean_weight_validation(self, rng):
        a = sample_state(rng)
        with pytest.raises(ValueError):
            tree_mean([a], weights=[0.0])
        with pytest.raises(ValueError):
            tree_mean([a, a], weights=[1.0])
        with pytest.raises(ValueError):
            tree_mean([])

    def test_key_mismatch_rejected(self, rng):
        a = sample_state(rng, keys=("a",))
        b = sample_state(rng, keys=("b",))
        with pytest.raises(KeyError):
            tree_add(a, b)

    def test_zeros_like_and_norm(self, rng):
        a = sample_state(rng)
        zeros = tree_zeros_like(a)
        assert tree_norm(zeros) == 0.0
        expected = np.sqrt(sum(float((v**2).sum()) for v in a.values()))
        assert tree_norm(a) == pytest.approx(expected, rel=1e-5)

    @given(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_scale_linearity(self, alpha, beta):
        rng = np.random.default_rng(0)
        a = sample_state(rng)
        left = tree_scale(a, alpha + beta)
        right = tree_add(tree_scale(a, alpha), tree_scale(a, beta))
        for k in a:
            np.testing.assert_allclose(left[k], right[k], atol=1e-4)


class TestMetrics:
    def test_aggregate_uniform(self):
        out = aggregate_metrics([{"loss": 1.0}, {"loss": 3.0}])
        assert out["loss"] == pytest.approx(2.0)

    def test_aggregate_weighted(self):
        out = aggregate_metrics([{"loss": 1.0}, {"loss": 3.0}], weights=[3.0, 1.0])
        assert out["loss"] == pytest.approx(1.5)

    def test_partial_keys(self):
        out = aggregate_metrics([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert out["a"] == pytest.approx(2.0)
        assert out["b"] == pytest.approx(2.0)

    def test_empty(self):
        assert aggregate_metrics([]) == {}

    def test_history_accessors(self):
        history = History()
        for i, ppl in enumerate([30.0, 20.0, 25.0]):
            history.append(RoundRecord(i, ppl, np.log(ppl), ["c0"],
                                       comm_bytes_up=10, comm_bytes_down=5))
        assert history.best_perplexity() == 20.0
        assert history.rounds_to_target(21.0) == 1
        assert history.rounds_to_target(10.0) is None
        assert history.total_comm_bytes == 45
        assert len(history) == 3

    def test_round_record_train_ppl(self):
        record = RoundRecord(0, 10.0, np.log(8.0), ["c0"])
        assert record.train_perplexity == pytest.approx(8.0)

    def test_empty_history_best_raises(self):
        with pytest.raises(ValueError):
            History().best_perplexity()
