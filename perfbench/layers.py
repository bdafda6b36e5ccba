"""Per-layer attribution of a traced episode, measured from outside.

:class:`LayerTrace` wraps the public entry point of each ``repro``
layer (the table below) in the traced process only.  Every wrapped
call becomes a span with a name, start, end and parent; spans go to a
:class:`repro.obs.Tracer`, so ``python -m repro.obs.analyze`` reads the
exported file.  Totals, self times (a span's duration minus the part
its child spans cover) and call counts are accumulated as the spans
close, so no post-pass over the span list is needed.

A call into a layer from inside the same layer (``super().step``, a
recursive walk) is folded into the outer span, so call counts are
counts of layer entries.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

# (layer, module, attribute) — attribute is "Class.method" or a name
# looked up in that module's namespace (where the caller resolves it).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("data.sample_tokens", "repro.data.synthetic", "MarkovSource.sample_tokens"),
    ("data.next_batch", "repro.data.stream", "CachedTokenStream.next_batch"),
    ("nn.forward", "repro.nn.transformer", "DecoderLM.loss"),
    ("tensor.backward", "repro.tensor.autograd", "Tensor.backward"),
    ("optim.adamw_step", "repro.optim.optimizers", "AdamW.step"),
    ("fed.client_train", "repro.fed.client", "LLMClient.train"),
    ("fed.batched_train", "repro.fed.engine", "train_clients_batched"),
    ("link.send", "repro.fed.link", "Link.send_state"),
    ("link.recv", "repro.fed.link", "Link.recv_state"),
    ("codec.encode", "repro.compress.codec", "Codec.encode"),
    ("codec.encode", "repro.fed.link", "encode_state"),
    ("codec.decode", "repro.compress.codec", "Codec.decode"),
    ("codec.decode", "repro.fed.link", "decode_state"),
    ("fed.merge", "repro.fed.engine", "tree_mean"),
    ("eval", "repro.fed.engine", "evaluate_perplexity"),
    ("runstate.save", "repro.fed.runstate", "RunStateCheckpointer.save"),
    ("serve.prefill", "repro.serve.engine", "MultiAdapterEngine.prefill_batch"),
    ("serve.decode", "repro.serve.engine", "MultiAdapterEngine.decode"),
    ("serve.sample_token", "repro.serve.replay", "sample_token"),
)
# ServerOpt.step is wrapped on every subclass that defines it.  The
# serve-zipf adapter source ("serve.adapter_fetch") is the benchmark's
# own function; workloads.build_serve wraps it.
SERVER_STEP = ("fed.server_step", "repro.fed.server_opt", "ServerOpt")


def _state_nbytes(state) -> int:
    return sum(getattr(v, "nbytes", 0) for v in state.values())


def _count(trace: "LayerTrace", layer: str, args, result) -> None:
    """Work counts measured at the layer boundary."""
    extra = trace.extra
    if layer == "data.sample_tokens":
        extra["data.tokens_generated"] += int(args[1])
    elif layer == "nn.forward":
        extra["nn.forward_tokens"] += int(args[1].size)
    elif layer == "fed.client_train":
        extra["fed.updates_attempted"] += 1
    elif layer == "fed.batched_train":
        extra["fed.updates_attempted"] += len(args[0])
    elif layer == "codec.encode":
        # Codec.encode(self, state, ...) or encode_state(state, ...)
        state = next(a for a in args if isinstance(a, dict))
        extra["codec.encode_raw_bytes"] += _state_nbytes(state)
    elif layer == "codec.decode":
        extra["codec.decode_raw_bytes"] += _state_nbytes(result)
    elif layer == "runstate.save":
        extra["runstate.bytes_written"] += (
            result.stat().st_size + result.with_suffix(".json").stat().st_size)
    elif layer == "serve.decode":
        extra["serve.decode_streams"] += len(args[1])


class LayerTrace:
    """Span store and wrapper installer for one traced process."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.in_phase = False
        self.phase_top_s = 0.0  # top-level span time inside the phase
        self.active = True
        self._stack: list[list] = []  # [layer, span id, start, child_s]
        self._ids = 0
        self._main = threading.get_ident()
        # perf_counter value at the tracer's host-clock zero
        self._t0 = time.perf_counter() - tracer.now_host()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, layer: str, fn):
        """Return ``fn`` timed as a call into ``layer``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            if (not self.active or threading.get_ident() != self._main
                    or (stack and stack[-1][0] == layer)):
                return fn(*args, **kwargs)
            self._ids += 1
            parent = stack[-1] if stack else None
            frame = [layer, self._ids, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = time.perf_counter()
                dur = end - frame[2]
                self.calls[layer] += 1
                self.total_s[layer] += dur
                self.self_s[layer] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                elif self.in_phase:
                    self.phase_top_s += dur
                self.tracer.span_host(
                    layer, layer, frame[2] - self._t0, dur,
                    id=frame[1], parent=parent[1] if parent else 0)
            _count(self, layer, args, result)
            return result

        return timed

    def install(self) -> None:
        """Wrap every entry point; raises if one no longer exists."""
        for layer, module_name, attr in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            self._patch(owner, attr, layer)
        layer, module_name, base_name = SERVER_STEP
        module = importlib.import_module(module_name)
        base = getattr(module, base_name)
        for cls in [base, *_subclasses(base)]:
            if "step" in vars(cls):
                self._patch(cls, "step", layer)

    def _patch(self, owner, attr: str, layer: str) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = False


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


def fwd_flops_per_token(cfg) -> float:
    """Analytic forward FLOPs per token: 2 per multiply-accumulate over
    every weight matrix (blocks + LM head) plus the attention score and
    context products (2 * n_blocks * seq_len * d_model), as in Kaplan
    et al. (2020)."""
    d = cfg.d_model
    matmul_params = cfg.n_blocks * (4 + 2 * cfg.expansion_ratio) * d * d
    head = cfg.vocab_size * d
    return 2.0 * (matmul_params + head) + 2.0 * cfg.n_blocks * cfg.seq_len * d


def adamw_bytes_per_step(cfg) -> float:
    """fp32 bytes an AdamW step touches: read param, grad, m, v and
    write param, m, v — 7 arrays of n_params floats."""
    return 7 * 4.0 * cfg.n_params
