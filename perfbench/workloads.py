"""The three benchmark workloads, built through repro's public API.

Each builder takes the workload seed and a scratch directory and
returns a :class:`Built` whose ``run()`` is the measured phase.  The
inputs come from the seed and the fixed artifacts below, so the same
seed gives the same inputs in every process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

# Shapes, by workload name.  Changing any value changes the workload;
# the config hash in the run manifest records which shape was run.
# ``episodes`` is the least number of untraced episodes a run makes:
# serve-zipf's phase is short and its speed swings most between
# episodes on a shared host, so it takes more of them.
SHAPES: dict[str, dict] = {
    "fed-sync-paper": dict(
        episodes=3, model="tiny", population=8, clients_per_round=8,
        local_steps=32, rounds=3, batch_size=4, max_lr=4e-3, mode="sync",
        local_plane="sequential", compression="none", server_opt="fedavg",
        server_lr=1.0, checkpoint_every=None,
    ),
    "fed-async-comm": dict(
        episodes=3, model="small", population=16, clients_per_round=8,
        local_steps=2, rounds=8, batch_size=4, max_lr=4e-3, mode="async",
        buffer_size=8,
        local_plane="batched", compression="int8", error_feedback=True,
        # FedAdam's own step size: with FedConfig's default
        # server_lr=1.0 FedAdam diverges.
        server_opt="fedadam", server_lr=1e-2, checkpoint_every=1,
    ),
    "serve-zipf": dict(
        episodes=6, model="small", requests=1024, users=64, zipf=1.1,
        rank=4, cache_capacity=8, batch_size=8, temperature=0.0,
        prompt_len=(4, 12), gen_len=(8, 24), adapter_scale=0.05,
        reference_requests=16,
    ),
}

# The seed varies what a run draws — the model initialisation and the
# federation's random streams (sampling, stochastic rounding) for
# fed-*, the tenants' adapters for serve-zipf — over fixed artifacts:
# the synthetic C4 corpus (repro's default data seed), the served base
# checkpoint and the request trace.  The tenant sequence, and so the
# adapter cache's hits and misses, is the same for every seed.
CORPUS_SEED = 1234
BASE_MODEL_SEED = 0
TRACE_SEED = 0


def config_hash(name: str) -> str:
    blob = json.dumps({"workload": name, **SHAPES[name]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class Built:
    """A workload ready to measure: ``run()`` is the measured phase,
    ``summary()`` reads the outcome afterwards (untimed)."""

    run: Callable[[], object]
    summary: Callable[[object], dict]
    handles: dict = field(default_factory=dict)


def build_fed(name: str, seed: int, workdir: str,
              wrap: Callable = lambda layer, fn: fn) -> Built:
    """A ``Photon`` job; ``workdir`` holds its RunState checkpoints.
    (``wrap`` is unused: every fed layer is wrapped where it is defined,
    see ``layers.py``.)"""
    from repro.config import FedConfig, OptimConfig, model_config
    from repro.fed import Photon

    shape = SHAPES[name]
    model = model_config(shape["model"])
    fed = FedConfig(
        population=shape["population"],
        clients_per_round=shape["clients_per_round"],
        local_steps=shape["local_steps"], rounds=shape["rounds"],
        server_opt=shape["server_opt"], server_lr=shape["server_lr"],
        seed=seed, mode=shape["mode"],
        buffer_size=shape.get("buffer_size"),
        local_plane=shape["local_plane"],
        compression=shape["compression"],
        error_feedback=shape.get("error_feedback", False),
        checkpoint_dir=(workdir if shape["checkpoint_every"] else None),
        checkpoint_every=shape["checkpoint_every"],
    )
    # The `repro train` recipe: warm up over a quarter of the client
    # steps, cosine-decay over all of them, no weight decay.
    total = fed.total_client_steps
    optim = OptimConfig(max_lr=shape["max_lr"],
                        warmup_steps=min(max(1, total // 4), total - 1),
                        schedule_steps=total, batch_size=shape["batch_size"],
                        weight_decay=0.0)
    photon = Photon(model, fed, optim, corpus="c4", max_workers=1,
                    data_seed=CORPUS_SEED, init_seed=seed)

    def summary(history) -> dict:
        link = photon.aggregator.link
        records = list(history)
        result = photon.result()
        return {
            "val_ppl": [float(r.val_perplexity) for r in records],
            "wire_bytes": [int(r.comm_bytes_up + r.comm_bytes_down)
                           for r in records],
            "updates": [len(r.clients) for r in records],
            "failed_updates": sum(len(r.failed_clients) for r in records),
            "tokens": int(result.tokens_processed),
            # Both ends of every message, as History.total_comm_bytes
            # and `repro train` report it.
            "link_wire_bytes": int(link.bytes_sent + link.bytes_received),
            "link_raw_bytes": int(link.raw_bytes_sent
                                  + link.raw_bytes_received),
            "link_messages": int(link.messages_sent),
        }

    return Built(run=photon.train, summary=summary,
                 handles={"photon": photon, "model_config": model})


def build_serve(name: str, seed: int, workdir: str,
                wrap: Callable = lambda layer, fn: fn) -> Built:
    """A request replay over a multi-adapter engine; ``wrap(layer, fn)``
    times the benchmark's own adapter source in a traced episode."""
    from repro.config import model_config
    from repro.nn import DecoderLM, apply_lora, lora_state_dict
    from repro.serve import (
        AdapterCache,
        MultiAdapterEngine,
        RequestReplayer,
        SyntheticTrace,
        synthetic_adapter,
    )

    shape = SHAPES[name]
    cfg = model_config(shape["model"])
    model = DecoderLM(cfg, seed=BASE_MODEL_SEED)
    probe = DecoderLM(cfg, seed=BASE_MODEL_SEED)
    apply_lora(probe, rank=shape["rank"])
    template = lora_state_dict(probe)

    def raw_adapter_source(user_id: int):
        return synthetic_adapter(template, user_id, 0,
                                 scale=shape["adapter_scale"], seed=seed)

    fetched = {"bytes": 0}

    def adapter_source(user_id: int):
        # Called on a cache miss: the adapter moves to the serving tier.
        adapter = raw_adapter_source(user_id)
        fetched["bytes"] += adapter.nbytes
        return adapter

    adapter_source = wrap("serve.adapter_fetch", adapter_source)

    engine = MultiAdapterEngine(model, base_version=0,
                                max_streams=shape["batch_size"])
    cache = AdapterCache(shape["cache_capacity"])
    replayer = RequestReplayer(engine, cache, adapter_source,
                               batch_size=shape["batch_size"],
                               temperature=shape["temperature"], seed=seed)
    trace = SyntheticTrace(shape["requests"], shape["users"],
                           zipf_s=shape["zipf"],
                           prompt_len=tuple(shape["prompt_len"]),
                           gen_len=tuple(shape["gen_len"]),
                           vocab_size=cfg.vocab_size, seed=TRACE_SEED)

    def summary(result) -> dict:
        return {
            "requests": int(result.requests),
            "tokens_out": int(result.tokens_out),
            "latencies_ms": [float(x) for x in result.latencies_ms],
            "cache_hits": int(result.cache_hits),
            "cache_misses": int(result.cache_misses),
            "cache_evictions": int(result.cache_evictions),
            "fetched_bytes": fetched["bytes"],
            "outputs_sha": _outputs_digest(result.outputs),
        }

    return Built(run=lambda: replayer.run(trace), summary=summary,
                 handles={"model_config": cfg, "cache": cache, "trace": trace,
                          "template": template,
                          "raw_adapter_source": raw_adapter_source})


def _outputs_digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(outputs[key].astype("<i8").tobytes())
    return h.hexdigest()[:16]


BUILDERS = {"fed-sync-paper": build_fed, "fed-async-comm": build_fed,
            "serve-zipf": build_serve}
