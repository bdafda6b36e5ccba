"""The block-parallel Markov walk reproduces the scalar walk exactly.

``MarkovSource.sample_tokens`` walks long chains (token caches) as
speculative blocks in lockstep and short ones one step at a time.
Both must give the tokens — and leave the generator in the state —
of the scalar ``bisect`` oracle in ``helpers.py``, on every kernel
shape: sparse, dense, mixed Pile kernels, rows that sum to just below
one, and permutations, whose walks never merge.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import markov_walk_oracle, permutation_kernel
from repro.data import partition_stream
from repro.data.synthetic import (
    _BLOCK,
    _BUCKETS,
    _SCALAR_BELOW,
    MarkovSource,
    SyntheticC4,
    SyntheticPile,
    _block_walk,
    _transitions,
    make_kernel,
    make_source,
)


KERNELS = {
    "sparse": make_source("c4", vocab=64).kernel,
    # bench_tables7_8_downstream's DENSE_KERNEL.
    "dense": make_kernel(seed=11, vocab=32, successors=14, concentration=0.5),
    "pile-mixed": SyntheticPile(vocab=64, heterogeneity=0.5).sources["arxiv"].kernel,
    # Rows summing to 1 - 5e-9 (inside the row-sum tolerance): any
    # u >= cum[-1] must clip to the last id.
    "short-rows": make_source("c4", vocab=64).kernel * (1.0 - 5e-9),
    # Walks from different states never meet: every block needs repair.
    "permutation": permutation_kernel(32),
}
LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 65_536]


class ScriptedRng:
    """Stand-in for ``np.random.Generator`` that hands out a fixed
    start state and fixed uniforms, recording each draw."""

    def __init__(self, start: int, uniforms: np.ndarray):
        self.start = start
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.draws: list[tuple] = []

    def integers(self, low, high):
        self.draws.append(("integers", low, high))
        return self.start

    def random(self, n):
        self.draws.append(("random", n))
        assert n == self.uniforms.size
        return self.uniforms.copy()


def _edge_uniforms(kernel: np.ndarray, n: int, seed: int) -> np.ndarray:
    """``n`` uniforms drawn from the values where a walk can go wrong:
    every cumulative value and its predecessor double, every bucket
    edge ``k / 2**12``, and ``[cum[-1], 1)``."""
    cum = np.cumsum(kernel, axis=1).ravel()
    values = np.concatenate([
        cum, np.nextafter(cum, 0.0),
        np.arange(_BUCKETS) / _BUCKETS,
        np.cumsum(kernel, axis=1)[:, -1],
        [np.nextafter(1.0, 0.0)],
    ])
    values = values[(values >= 0.0) & (values < 1.0)]
    return np.random.default_rng(seed).choice(values, size=n)


class TestMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(KERNELS)), n=st.sampled_from(LENGTHS),
           seed=st.integers(0, 2**32 - 1))
    def test_sample_tokens(self, name, n, seed):
        kernel = KERNELS[name]
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = MarkovSource(kernel, seed=0).sample_tokens(n, rng=rng_new)
        want = markov_walk_oracle(kernel, n, rng_old)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(KERNELS)),
           block=st.sampled_from([1, 2, 5, 16, _BLOCK]),
           blocks=st.integers(1, 5), extra=st.sampled_from([-1, 0, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_walk_at_block_edges(self, name, block, blocks, extra, seed):
        """The block walk on its own, at short lengths around block
        boundaries (``sample_tokens`` only uses it for long calls)."""
        kernel = KERNELS[name]
        n = max(1, blocks * block + extra)
        rng = np.random.default_rng(seed)
        start = int(rng.integers(2, kernel.shape[0]))
        uniforms = rng.random(n)
        want = markov_walk_oracle(kernel, n, ScriptedRng(start, uniforms))
        got = _block_walk(_transitions(kernel), start, uniforms, block=block)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    @pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _SCALAR_BELOW + 3])
    def test_edge_uniforms(self, name, n):
        """Uniforms exactly on a cumulative value, on a bucket edge and
        at or past ``cum[-1]``, through both the scalar and the block
        walk."""
        kernel = KERNELS[name]
        uniforms = _edge_uniforms(kernel, n, seed=n)
        rng_new, rng_old = ScriptedRng(3, uniforms), ScriptedRng(3, uniforms)
        got = MarkovSource(kernel, seed=0).sample_tokens(n, rng=rng_new)
        np.testing.assert_array_equal(got, markov_walk_oracle(kernel, n, rng_old))
        assert rng_new.draws == rng_old.draws

    def test_short_rows_clip_to_last_id(self):
        """``u >= cum[-1]`` clips to the last id; checked on its own so
        the edge-uniform test above cannot pass without reaching it."""
        kernel = KERNELS["short-rows"]
        uniforms = np.full(_SCALAR_BELOW, np.nextafter(1.0, 0.0))
        tokens = MarkovSource(kernel, seed=0).sample_tokens(
            uniforms.size, rng=ScriptedRng(5, uniforms))
        assert (tokens == kernel.shape[0] - 1).all()


# SHA-256 of the int64 token caches, computed with the scalar walk
# before the block walk existed.  Photon's default data seed (1234)
# and the tiny model's 64-token vocabulary; each cache is drawn the way
# ``CachedTokenStream(source, ..., seed=s)`` draws it, from
# ``default_rng(s + 1)`` with ``s = data_seed + shard`` (validation:
# ``data_seed - 1``; Pile client i: ``data_seed + i``).
DATA_SEED = 1234
C4_DIGESTS = {
    0: "ab00633a3bc66d2e8c6d9415d85156daf53ddedbcc97788660599d56cbd3751f",
    31: "628bcc29f4e83b5e447269f2214da5545647a66b7bd52a5356bde6d3f7462c2c",
    63: "23e127115f73fc5baa01ec1b6b352ee0e560bd94137879c06ae68aaedb1ad424",
}
C4_VALIDATION_DIGEST = (
    "b93cb8b706224e5ba7a94f9b53b3080a8867a94f084ae677248887e4d28431bb")
PILE_DIGESTS = [  # client_sources(8) at heterogeneity 0.5
    "83d8a0bd2b3ece63a177c6a7bef4eae202dab3b6b0b099d52dda3b576b60e8b3",
    "6f454ae09b26e125a82c8e2351a482f96624c900ec2d2964f35d8c91b5ef7a9b",
    "94872b965cc3071d96d137c3d949b5a953d6223c00570001f112e1acf15ea3d7",
    "0b06fdbc233f53ffacd80643bf7e6dda07e85c35d5357958bcc841dcad3cf088",
    "063572858e4e3ad5397110e69466aec56aec4a5cd0d11b9234717effea102fc6",
    "8a796f2cb690747c94a85ed2e655a59bff8ccfeedeaa28ec5bd7e216da48810a",
    "3a766b4b2152a33941bf67c6e99845dcf44e14035340fbacbe04e7f4956ee172",
    "d60246787dc888b5c9ab51dd4796ee18e0295bb277b0d2e09b331154f6eda5c0",
]


def _cache_digest(source: MarkovSource, stream_seed: int) -> str:
    tokens = source.sample_tokens(65_536, rng=np.random.default_rng(stream_seed + 1))
    return hashlib.sha256(tokens.astype(np.int64).tobytes()).hexdigest()


class TestGoldenCaches:
    def test_c4_shards_and_validation(self):
        c4 = SyntheticC4(num_shards=64, vocab=64, seed=DATA_SEED)
        for shard, digest in C4_DIGESTS.items():
            assert _cache_digest(c4.shard(shard), DATA_SEED + shard) == digest, shard
        assert _cache_digest(c4.validation(), DATA_SEED - 1) == C4_VALIDATION_DIGEST

    def test_pile_client_sources(self):
        pile = SyntheticPile(vocab=64, seed=DATA_SEED, heterogeneity=0.5)
        sources = pile.client_sources(8)
        got = [_cache_digest(src, DATA_SEED + i) for i, src in enumerate(sources)]
        assert got == PILE_DIGESTS


class TestTables:
    def test_built_once_per_kernel(self):
        c4 = SyntheticC4(num_shards=4, vocab=64, seed=5)
        tables = c4.source._tables
        assert all(c4.shard(i)._tables is tables for i in range(4))
        assert c4.validation()._tables is tables
        for part in partition_stream(c4.shard(0), 2, batch_size=2, seq_len=8):
            assert part.source._tables is tables
        # An equal kernel in a fresh array shares them too.
        assert MarkovSource(c4.source.kernel.copy(), seed=1)._tables is tables

    def test_table_is_small(self):
        tables = make_source("c4", vocab=64)._tables
        assert tables.flat.dtype == np.int8
        assert tables.flat.nbytes <= 256 * 1024

    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0],
                                     [-1e-300, 1.0]])
    def test_negative_or_nonfinite_entries_rejected(self, row):
        kernel = np.array([row, [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            MarkovSource(kernel, seed=0, specials=0)
