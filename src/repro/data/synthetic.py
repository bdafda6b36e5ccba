"""Synthetic corpora standing in for C4 and The Pile.

The paper partitions C4 [40] into 64 uniform shards for the IID
experiments and uses four Pile [42] sources (ArXiv, C4, Wikipedia,
Project Gutenberg) for the heterogeneity study (Section 5.1).  We
cannot ship those corpora, so each *source* here is a seeded
order-1 Markov chain over a shared character alphabet:

* a transformer can learn a Markov chain essentially optimally, so
  training curves have the same qualitative shape as real LM loss
  curves (fast early drop, long tail);
* distinct transition kernels per source give *measurable*
  distribution shift between clients, which is exactly what the
  non-IID experiments exercise;
* the entropy rate of each kernel lower-bounds achievable loss, so
  perplexity targets can be set relative to a known optimum.

The chain is sparse (each state allows a handful of successors) which
gives low entropy rates and a large learnable gap from the uniform
baseline.
"""

from __future__ import annotations

import functools
from bisect import bisect_right

import numpy as np

from .tokenizer import CharTokenizer, DEFAULT_ALPHABET

__all__ = [
    "MarkovSource",
    "RepetitionSource",
    "make_kernel",
    "make_source",
    "mixed_kernel",
    "PILE_SOURCE_NAMES",
    "SyntheticC4",
    "SyntheticPile",
    "kernel_divergence",
    "stationary_distribution",
    "cross_perplexity",
]

#: The four Pile text sources used in Section 5.1.
PILE_SOURCE_NAMES = ("arxiv", "c4", "wikipedia", "gutenberg")

#: Per-source RNG seeds; any fixed distinct values work, these make
#: the corpora deterministic across runs.
_SOURCE_SEEDS = {"c4": 11, "arxiv": 23, "wikipedia": 37, "gutenberg": 53}


def make_kernel(seed: int, vocab: int, successors: int, concentration: float,
                 specials: int = 2) -> np.ndarray:
    """Build a sparse row-stochastic transition matrix.

    Each state transitions to ``successors`` successor states with
    Dirichlet(concentration) weights.  Ids below ``specials`` (pad/unk)
    are never emitted and self-loop formally (they are unreachable from
    valid starts).
    """
    rng = np.random.default_rng(seed)
    kernel = np.zeros((vocab, vocab), dtype=np.float64)
    emittable = np.arange(specials, vocab)
    for state in range(vocab):
        if state < specials:
            kernel[state, state] = 1.0
            continue
        succ = rng.choice(emittable, size=min(successors, emittable.size), replace=False)
        weights = rng.dirichlet(np.full(succ.size, concentration))
        kernel[state, succ] = weights
    return kernel


def mixed_kernel(base: np.ndarray, other: np.ndarray, heterogeneity: float) -> np.ndarray:
    """Interpolate two kernels: 0 → identical to base (IID), 1 → fully
    source-specific.  Used to dial non-IID-ness continuously."""
    if not 0.0 <= heterogeneity <= 1.0:
        raise ValueError(f"heterogeneity must be in [0, 1], got {heterogeneity}")
    return (1.0 - heterogeneity) * base + heterogeneity * other


def kernel_divergence(a: np.ndarray, b: np.ndarray, specials: int = 2) -> float:
    """Mean total-variation distance between transition rows — a simple
    scalar measure of how non-IID two sources are."""
    rows = slice(specials, None)
    return float(0.5 * np.abs(a[rows] - b[rows]).sum(axis=1).mean())


# Lookup-table walk (see :class:`MarkovSource`).  ``u`` in [0, 1)
# falls in bucket ``floor(u * 2**_BUCKET_BITS)``; scaling a double by
# a power of two is exact, so the bucket is too.
_BUCKET_BITS = 12
_BUCKETS = 1 << _BUCKET_BITS
#: Block length of the speculative walk.
_BLOCK = 128
#: Below this many tokens the scalar walk is cheaper than the block
#: walk's fixed cost of ~2 x ``_BLOCK`` vectorized steps.
_SCALAR_BELOW = 8192


class _Transitions:
    """Sampling tables of one kernel, shared by every source over it.

    ``rows`` are the cumulative rows without their last value, as
    Python lists (the scalar walk's ``bisect``).  ``table[b, s]`` is
    the successor of state ``s`` for every ``u`` in bucket ``b``, or -1
    where a cumulative value lies strictly inside the bucket and only
    the exact ``bisect`` decides.  Bucket-major, so a step's flat index
    is ``b * vocab + s`` with ``b * vocab`` precomputed.
    """

    def __init__(self, kernel: np.ndarray):
        vocab = kernel.shape[0]
        # Without its last value a row counts at most vocab - 1, which
        # is exactly the clip for u >= cum[-1].
        cum = np.cumsum(kernel, axis=1)[:, :-1]
        self.rows = cum.tolist()
        self.vocab = vocab
        dtype = np.int8 if vocab <= 127 else np.int16 if vocab <= 32767 else np.int32
        edges = np.arange(_BUCKETS) / _BUCKETS
        table = np.empty((_BUCKETS, vocab), dtype=dtype)
        for state, row in enumerate(cum):
            # One row at a time keeps the build's scratch at 32 KB.
            table[:, state] = np.searchsorted(row, edges, side="right")
            scaled = row[row < 1.0] * _BUCKETS
            inside = scaled != np.floor(scaled)
            table[scaled[inside].astype(np.intp), state] = -1
        self.flat = table.reshape(-1)
        self.flat.flags.writeable = False  # shared by every source


@functools.lru_cache(maxsize=32)
def _cached_transitions(shape: tuple, blob: bytes) -> _Transitions:
    return _Transitions(np.frombuffer(blob, dtype=np.float64).reshape(shape))


def _transitions(kernel: np.ndarray) -> _Transitions:
    """The tables of ``kernel``, built once per distinct kernel."""
    return _cached_transitions(kernel.shape, kernel.tobytes())


def _scalar_walk(rows: list, state: int, uniforms: list) -> list:
    """The chain from ``state``, one ``bisect`` per step."""
    return [state := bisect_right(rows[state], u) for u in uniforms]


def _rewalk(rows: list, state: int, uniforms: list, old: list) -> list:
    """Walk from ``state`` alongside the path ``old`` until the walk
    meets it; returns the steps before the meeting point (all of them
    if it never meets)."""
    new = []
    for u, seen in zip(uniforms, old):
        state = bisect_right(rows[state], u)
        if state == seen:
            break
        new.append(state)
    return new


def _block_walk(tables: _Transitions, start: int, uniforms: np.ndarray,
                block: int = _BLOCK) -> np.ndarray:
    """The chain from ``start`` driven by ``uniforms``, walked as
    speculative blocks in lockstep, then repaired (see MarkovSource)."""
    n = uniforms.size
    nb = -(-n // block)
    flat, rows = tables.flat, tables.rows
    # Row offsets ``bucket * vocab``, laid out (step in block, block)
    # so one lockstep step reads a contiguous row; padding steps are
    # walked and discarded.
    cells = np.zeros(nb * block, dtype=np.int32)
    np.multiply(uniforms, _BUCKETS, out=cells[:n], casting="unsafe")
    cells *= tables.vocab
    cells = np.ascontiguousarray(cells.reshape(nb, block).T)
    path = np.empty((block, nb), dtype=flat.dtype)
    cell = np.empty(nb, dtype=np.int32)

    def walk(state: np.ndarray) -> None:
        """Every block from its entry state, one lockstep step per row."""
        for j in range(block):
            # Indices are always in range; "wrap" is just the mode in
            # which take writes to ``out`` without a buffer.
            nxt = flat.take(np.add(cells[j], state, out=cell), out=path[j],
                            mode="wrap")
            if nxt.min() < 0:  # ambiguous cells: the exact count
                for lane in np.flatnonzero(nxt < 0).tolist():
                    u = uniforms[min(lane * block + j, n - 1)]
                    nxt[lane] = bisect_right(rows[state[lane]], u)
            state = nxt

    # Pass 1 enters every block at ``start`` (exact for the first
    # block, a guess for the rest); pass 2 enters each at its
    # predecessor's pass-1 end, which is exact wherever the pass-1 walk
    # has merged with the true chain.
    entry = np.full(nb, start, dtype=np.intp)
    walk(entry)
    entry[1:] = path[-1, :-1]
    walk(entry)

    # Repair, in block order: a block whose entry differs from its
    # predecessor's (final) end is re-walked one step at a time until
    # it meets its pass-2 path.  If it never does, its end changed and
    # the next block is checked too.
    pending = (np.flatnonzero(path[-1, :-1] != entry[1:]) + 1).tolist()
    entry = entry.tolist()
    out = path.T.reshape(-1)[:n].astype(np.int64)
    i = 0
    while i < len(pending):
        k = pending[i]
        i += 1
        lo, hi = k * block, min(n, (k + 1) * block)
        state = int(out[lo - 1])
        if state == entry[k]:
            continue
        new = _rewalk(rows, state, uniforms[lo:hi].tolist(), out[lo:hi].tolist())
        out[lo:lo + len(new)] = new
        if lo + len(new) == hi and k + 1 < nb and pending[i:i + 1] != [k + 1]:
            pending.insert(i, k + 1)
    return out


class MarkovSource:
    """A text source: a Markov kernel plus a seeded sampling stream.

    ``sample_tokens(n)`` draws a token sequence; independent shards of
    the same source share the kernel but use distinct RNG streams, so
    shards are IID draws from one distribution (the paper's C4 setup).

    The walk is the recurrence ``s_{i+1} = min(#{c in cum[s_i] : c <=
    u_i}, vocab - 1)`` over one start draw ``rng.integers`` and ``n``
    uniforms ``rng.random(n)``; every ``n`` draws exactly those, so
    tokens and the generator's state afterwards do not depend on how
    the recurrence is evaluated.  Short calls evaluate it one step at
    a time (``bisect`` on the cumulative row).  Calls of at least
    ``_SCALAR_BELOW`` tokens (every token-cache build) use a
    block-parallel walk that gives the same tokens:

    * **Lookup table**, built once per kernel: ``u * 2**12`` is exact,
      so its floor names a bucket, and ``table[bucket, s]`` holds the
      successor for every ``u`` in the bucket.  Where a cumulative
      value lies strictly inside a bucket the cell is -1 and that
      step takes the exact ``bisect`` (under 0.1% of cells on C4).
    * **Speculative blocks**: the chain is cut into blocks of
      ``_BLOCK`` steps, all walked in lockstep, one vector gather per
      step.  Pass 1 enters every block at the start state, a guess for
      all but the first; pass 2 enters each block at its predecessor's
      pass-1 end.  Two walks driven by the same uniforms meet and then
      agree for good (on the C4 kernel half of them meet within ~30
      steps, 93% within one block), so most pass-2 entries are exact.
    * **Repair**, in block order: a block whose entry differs from its
      predecessor's final end is re-walked one step at a time until it
      meets its pass-2 path, after which that path is already the
      chain's.  A block that never meets changed its end, so the next
      block is checked in turn.  Every block is then a walk from its
      predecessor's final end, which is the recurrence exactly.

    Worst case: a kernel whose walks never meet (a permutation) leaves
    every block to the repair, so the call costs a scalar walk plus the
    two lockstep passes: ~2x the scalar path at ``_SCALAR_BELOW``
    tokens, ~1.2x at 65,536 (measured on a 2-core host).
    """

    def __init__(self, kernel: np.ndarray, seed: int, name: str = "source",
                 specials: int = 2):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise ValueError("kernel must be square")
        if not np.isfinite(kernel).all() or (kernel < 0).any():
            raise ValueError("kernel entries must be finite and non-negative")
        row_sums = kernel.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-8):
            raise ValueError("kernel rows must sum to 1")
        self.kernel = kernel
        self.name = name
        self.specials = specials
        self._rng = np.random.default_rng(seed)
        self._tables = _transitions(kernel)
        self.vocab = kernel.shape[0]

    def sample_tokens(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample ``n`` tokens by walking the chain."""
        rng = rng or self._rng
        state = int(rng.integers(self.specials, self.vocab))
        tables = self._tables
        if n >= _SCALAR_BELOW:
            return _block_walk(tables, state, rng.random(n))
        # .tolist() keeps the exact float64 values; bisect_right on a
        # Python list == np.searchsorted(row, u, side="right").
        walk = _scalar_walk(tables.rows, state, rng.random(n).tolist())
        return np.array(walk, dtype=np.int64)

    def entropy_rate(self) -> float:
        """Entropy rate in nats under the stationary distribution —
        the theoretical floor for LM loss on this source."""
        # Stationary distribution via power iteration on emittable states.
        pi = np.full(self.vocab, 1.0 / (self.vocab - self.specials))
        pi[: self.specials] = 0.0
        for _ in range(200):
            pi = pi @ self.kernel
            pi /= pi.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            log_k = np.where(self.kernel > 0, np.log(self.kernel), 0.0)
        row_entropy = -(self.kernel * log_k).sum(axis=1)
        return float((pi * row_entropy).sum())

    def optimal_perplexity(self) -> float:
        """exp(entropy rate): the best achievable perplexity."""
        return float(np.exp(self.entropy_rate()))


def stationary_distribution(kernel: np.ndarray, specials: int = 2,
                            iterations: int = 300) -> np.ndarray:
    """Stationary distribution of a Markov kernel via power iteration
    (special tokens carry zero mass)."""
    pi = np.full(kernel.shape[0], 1.0 / (kernel.shape[0] - specials))
    pi[:specials] = 0.0
    for _ in range(iterations):
        pi = pi @ kernel
        pi /= pi.sum()
    return pi


def cross_perplexity(true_kernel: np.ndarray, predictor_kernel: np.ndarray,
                     specials: int = 2) -> float:
    """Perplexity of the best model of ``predictor_kernel`` evaluated
    on text drawn from ``true_kernel``.

    This is the achievable *floor* for a model trained on one
    distribution (e.g. the four-source Pile mixture) and evaluated on
    another (the C4 validation set) — the right normalizer for the
    heterogeneity experiments, where the mixture-trained model cannot
    reach the in-distribution optimum.
    """
    pi = stationary_distribution(true_kernel, specials)
    log_pred = np.where(true_kernel > 0,
                        np.log(np.maximum(predictor_kernel, 1e-12)), 0.0)
    cross_entropy = -(pi[:, None] * true_kernel * log_pred).sum()
    return float(np.exp(cross_entropy))


class RepetitionSource:
    """Markov text with verbatim repeated spans.

    Real text repeats itself (names, phrases, quotations); pure
    order-1 Markov text does not, which makes in-context skills like
    copying and induction unlearnable from it.  This wrapper emits
    Markov text where every span of ``span`` tokens is immediately
    repeated, giving models a pre-training signal for the
    copy/induction downstream tasks (Tables 7/8).  Learning to exploit
    it requires attention composition (≥ 2 transformer blocks), so
    task accuracy becomes capacity-dependent — the property the
    downstream comparison measures.
    """

    def __init__(self, base: MarkovSource, span: int = 8, repeat_prob: float = 1.0,
                 seed: int = 0):
        if span < 1:
            raise ValueError("span must be >= 1")
        if not 0.0 <= repeat_prob <= 1.0:
            raise ValueError("repeat_prob must be in [0, 1]")
        self.base = base
        self.span = span
        self.repeat_prob = repeat_prob
        self.vocab = base.vocab
        self.name = f"{base.name}+rep{span}"
        self._rng = np.random.default_rng(seed)

    def sample_tokens(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        rng = rng or self._rng
        pieces: list[np.ndarray] = []
        total = 0
        while total < n:
            segment = self.base.sample_tokens(self.span, rng=rng)
            pieces.append(segment)
            total += segment.size
            if rng.random() < self.repeat_prob:
                pieces.append(segment.copy())
                total += segment.size
        return np.concatenate(pieces)[:n]


def make_source(name: str, vocab: int | None = None, seed_offset: int = 0,
                heterogeneity: float = 1.0) -> MarkovSource:
    """Construct one of the named sources.

    Parameters
    ----------
    name:
        One of :data:`PILE_SOURCE_NAMES` (``"c4"`` doubles as the C4
        corpus source).
    vocab:
        Vocabulary size; defaults to the char tokenizer's.
    heterogeneity:
        0 makes every source identical to the shared base kernel
        (IID control); 1 keeps sources fully distinct.
    """
    if name not in _SOURCE_SEEDS:
        raise KeyError(f"unknown source {name!r}; available: {sorted(_SOURCE_SEEDS)}")
    vocab = vocab or CharTokenizer(DEFAULT_ALPHABET).vocab_size
    base = make_kernel(seed=7, vocab=vocab, successors=4, concentration=0.6)
    specific = make_kernel(seed=_SOURCE_SEEDS[name], vocab=vocab,
                            successors=4, concentration=0.6)
    kernel = mixed_kernel(base, specific, heterogeneity)
    return MarkovSource(kernel, seed=_SOURCE_SEEDS[name] + seed_offset, name=name)


class SyntheticC4:
    """C4 substitute: one source, uniformly sharded.

    Mirrors Section 5.1: "randomly partitioning the C4 dataset
    uniformly into 64 equally sized shards.  N clients refer to a
    subset of N shards."  All shards share the kernel and differ only
    in their RNG stream, i.e. the partition is IID.
    """

    def __init__(self, num_shards: int = 64, vocab: int | None = None, seed: int = 0):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.seed = seed
        self.source = make_source("c4", vocab=vocab, seed_offset=seed)

    def shard(self, index: int) -> MarkovSource:
        """Return shard ``index`` as an independently-seeded source."""
        if not 0 <= index < self.num_shards:
            raise IndexError(f"shard index {index} out of range [0, {self.num_shards})")
        return MarkovSource(self.source.kernel, seed=1000 + self.seed * 97 + index,
                            name=f"c4-shard{index}")

    def validation(self) -> MarkovSource:
        """Held-out stream (distinct RNG stream, same distribution) —
        the stand-in for the C4 validation set."""
        return MarkovSource(self.source.kernel, seed=999_983 + self.seed,
                            name="c4-validation")


class SyntheticPile:
    """Pile substitute: four stylistically distinct sources.

    ``client_sources(n_clients)`` reproduces the paper's three
    configurations: 4 clients (one source each), 8 (each source split
    in two), 16 (each source split in four).
    """

    def __init__(self, vocab: int | None = None, seed: int = 0,
                 heterogeneity: float = 1.0):
        self.seed = seed
        self.heterogeneity = heterogeneity
        self.sources = {
            name: make_source(name, vocab=vocab, seed_offset=seed,
                              heterogeneity=heterogeneity)
            for name in PILE_SOURCE_NAMES
        }

    def client_sources(self, n_clients: int) -> list[MarkovSource]:
        """Assign sources to clients per the Section 5.1 recipe."""
        if n_clients % len(PILE_SOURCE_NAMES) != 0:
            raise ValueError(
                f"n_clients must be a multiple of {len(PILE_SOURCE_NAMES)}, got {n_clients}"
            )
        splits = n_clients // len(PILE_SOURCE_NAMES)
        clients = []
        for name in PILE_SOURCE_NAMES:
            kernel = self.sources[name].kernel
            for j in range(splits):
                clients.append(
                    MarkovSource(kernel, seed=5000 + self.seed * 131 + len(clients),
                                 name=f"{name}-part{j}")
                )
        return clients

    def validation(self) -> MarkovSource:
        """C4-distribution validation stream (the paper evaluates the
        Pile runs on the C4 validation set)."""
        c4 = self.sources["c4"]
        return MarkovSource(c4.kernel, seed=888_887 + self.seed, name="pile-validation")
