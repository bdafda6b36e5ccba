"""Token-cache build: the Markov walk behind every ``repro train`` start.

Photon's data sources pre-tokenize and cache their shards so clients
stream cheaply afterwards (paper §4, "Data Streaming for DS").  Here
that is ``CachedTokenStream``: the paper's C4 recipe builds 64 shard
caches plus a validation cache of 65,536 tokens each, all drawn by
``MarkovSource.sample_tokens``.  This bench builds those 65 caches the
way ``Photon`` does (tiny-model vocabulary, default data seed) and
gates one metric through ``check_regression.py``:

* ``tokens_per_s`` — cache tokens generated per wall second, best of
  three builds.

The gate allows 2x headroom (``--threshold 0.5 --higher-is-better``),
like the other wall-clock gates: the failure it guards against is the
walk silently falling back to one Python step per token, several times
slower, not runner noise.  The bench also asserts that shard 0's cache
is token-for-token the scalar oracle's (``tests/helpers.py``).

A second arm walks a permutation kernel, whose walks never merge, so
every block of the block-parallel walk needs repair: the worst case.
It must stay exact and within 2x of the scalar oracle's time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import model_config
from repro.data import CachedTokenStream, MarkovSource, SyntheticC4

from common import print_table

sys.path.insert(0, str(Path(__file__).parents[1] / "tests"))
from helpers import markov_walk_oracle, permutation_kernel

NUM_SHARDS = 64
CACHE_TOKENS = 65_536
DATA_SEED = 1234   # Photon's default data seed
BUILDS = 3

ARTIFACT = Path(__file__).parent / "artifacts" / "data_walk.json"


def build_caches() -> list[CachedTokenStream]:
    """The 64 shard caches and the validation cache of a C4 run, seeded
    as ``Photon._build_data`` seeds them."""
    tiny = model_config("tiny")
    c4 = SyntheticC4(num_shards=NUM_SHARDS, vocab=tiny.vocab_size, seed=DATA_SEED)
    caches = [CachedTokenStream(c4.shard(s), 4, tiny.seq_len,
                                cache_tokens=CACHE_TOKENS, seed=DATA_SEED + s)
              for s in range(NUM_SHARDS)]
    caches.append(CachedTokenStream(c4.validation(), 4, tiny.seq_len,
                                    cache_tokens=CACHE_TOKENS, seed=DATA_SEED - 1))
    return caches


def _best_of(fn, repeats: int = BUILDS) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def run_worst_case(chains: int = 8) -> dict:
    """The permutation kernel: block walk vs the scalar oracle."""
    source = MarkovSource(permutation_kernel(model_config("tiny").vocab_size), seed=0)

    def walk(sample):
        return [sample(np.random.default_rng(c)) for c in range(chains)]

    block_s, tokens = _best_of(
        lambda: walk(lambda rng: source.sample_tokens(CACHE_TOKENS, rng=rng)))
    scalar_s, oracle = _best_of(
        lambda: walk(lambda rng: markov_walk_oracle(source.kernel, CACHE_TOKENS, rng)))
    return {
        "tokens": chains * CACHE_TOKENS,
        "best_s": round(block_s, 4),
        "tokens_per_s": round(chains * CACHE_TOKENS / block_s),
        "slowdown_vs_scalar": round(block_s / scalar_s, 3),
        "exact": all(np.array_equal(a, b) for a, b in zip(tokens, oracle)),
    }


def run_walk() -> dict:
    times = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        caches = build_caches()
        times.append(time.perf_counter() - start)
    shard0 = caches[0]
    oracle = markov_walk_oracle(shard0.source.kernel, CACHE_TOKENS,
                                np.random.default_rng(DATA_SEED + 1))
    tokens = len(caches) * CACHE_TOKENS
    best = min(times)
    return {
        "caches": len(caches),
        "tokens": tokens,
        "best_s": round(best, 4),
        "median_s": round(float(np.median(times)), 4),
        "tokens_per_s": round(tokens / best),
        "exact": bool(np.array_equal(shard0._cache, oracle)),
    }


def test_data_walk(run_once):
    results = {"c4-65-caches": run_once(run_walk),
               "permutation-worst-case": run_worst_case()}
    r, worst = results["c4-65-caches"], results["permutation-worst-case"]

    print_table(
        f"Token-cache build: {r['caches']} C4 caches x {CACHE_TOKENS:,} "
        f"tokens, best of {BUILDS}",
        ["Arm", "Tokens", "Best (s)", "Median (s)", "Tokens/s", "Exact"],
        [["c4-65-caches", r["tokens"], r["best_s"], r["median_s"],
          f"{r['tokens_per_s']:,}", r["exact"]]],
    )
    print_table(
        "Worst case: permutation kernel (no walks merge), 8 chains",
        ["Arm", "Tokens", "Best (s)", "Tokens/s", "x scalar walk", "Exact"],
        [["permutation-worst-case", worst["tokens"], worst["best_s"],
          f"{worst['tokens_per_s']:,}", worst["slowdown_vs_scalar"],
          worst["exact"]]],
    )

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "config": {"num_shards": NUM_SHARDS, "cache_tokens": CACHE_TOKENS,
                   "data_seed": DATA_SEED, "builds": BUILDS},
        "results": results,
    }, indent=2))

    assert r["exact"], "shard 0's cache differs from the scalar oracle walk"
    assert r["tokens"] == 65 * CACHE_TOKENS
    assert worst["exact"], "permutation walk differs from the scalar oracle"
    assert worst["slowdown_vs_scalar"] <= 2.0, worst
