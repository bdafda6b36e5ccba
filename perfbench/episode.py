"""One benchmark episode: a fresh process that sets a workload up,
runs its measured phase once and prints one JSON line.

    python3 perfbench/episode.py WORKLOAD SEED SPAWN_T TRACE OUTDIR

``SPAWN_T`` is the parent's ``time.perf_counter()`` just before it
started this process (CLOCK_MONOTONIC, shared by all processes on
Linux), so ``setup_s`` counts interpreter start-up, ``import repro``
and the workload build.  With ``TRACE`` = 1 the layer wrappers of
:mod:`layers` are installed after the import and before the build, and
the spans are written to ``OUTDIR`` as Chrome trace JSON.
"""

import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _import_repro() -> float:
    start = time.perf_counter()
    import repro  # noqa: F401
    return time.perf_counter() - start


def _serve_checks(built, result) -> dict:
    """Count requests missing or short of their token budget; check the
    served tokens of a fixed request subset against single-tenant
    decoding (merge_lora + InferenceEngine, greedy) and score them under
    that reference model."""
    import numpy as np

    from repro.nn import (
        DecoderLM,
        InferenceEngine,
        apply_lora,
        load_lora_state_dict,
        merge_lora,
    )

    from workloads import BASE_MODEL_SEED, SHAPES

    shape = SHAPES["serve-zipf"]
    handles = built.handles
    cfg, trace, template = handles["model_config"], handles["trace"], handles["template"]
    requests = list(trace)
    incomplete = 0
    for request in requests:
        served = result.outputs.get(request.request_id)
        budget = min(request.max_new_tokens, cfg.seq_len - request.prompt.size)
        if served is None or served.size != request.prompt.size + budget:
            incomplete += 1
    stride = max(1, len(requests) // shape["reference_requests"])
    subset = requests[::stride][:shape["reference_requests"]]
    engines: dict[int, InferenceEngine] = {}
    mismatched, nll, scored = 0, 0.0, 0
    for request in subset:
        engine = engines.get(request.user_id)
        if engine is None:
            adapter = handles["raw_adapter_source"](request.user_id)
            model = DecoderLM(cfg, seed=BASE_MODEL_SEED)
            apply_lora(model, rank=shape["rank"])
            load_lora_state_dict(model, {
                key: adapter.pairs[int(key.split(".")[0][4:])][key.endswith(".b")]
                for key in template})
            engine = engines[request.user_id] = InferenceEngine(merge_lora(model))
        served = result.outputs.get(request.request_id)
        expected = engine.generate(request.prompt, request.max_new_tokens,
                                   temperature=0.0)
        if served is None or not np.array_equal(served, expected):
            mismatched += 1
        if served is None or served.size <= request.prompt.size:
            continue
        # Teacher-forced NLL of the served continuation: served tokens
        # that are not the reference's choice raise it.
        engine.reset()
        prompt_len = request.prompt.size
        logits = engine.prefill(served[:prompt_len])
        for i in range(prompt_len, served.size):
            shifted = logits - logits.max()
            nll -= float(shifted[served[i]] - np.log(np.exp(shifted).sum()))
            scored += 1
            if i + 1 < served.size:
                logits = engine.decode_step(int(served[i]))
    return {"incomplete": incomplete, "reference_checked": len(subset),
            "reference_mismatched": mismatched,
            "reference_ppl": float(np.exp(nll / scored)) if scored else float("inf")}


def main(argv: list[str]) -> int:
    name, seed, spawn_t, traced, outdir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4]))
    import_s = _import_repro()
    import numpy

    import workloads

    layer_trace = None
    if traced:
        from repro.obs import Tracer

        from layers import LayerTrace

        layer_trace = LayerTrace(Tracer(outdir / f"trace-{name}-seed{seed}.json"))
        layer_trace.install()
    wrap = layer_trace.wrap if layer_trace else (lambda layer, fn: fn)

    workdir = outdir / f"work-{name}-{time.time_ns()}"
    try:
        built = workloads.BUILDERS[name](name, seed, str(workdir), wrap=wrap)
        update_times: list[float] = []
        photon = built.handles.get("photon")
        if photon is not None:
            # Observe each server update as it lands (one list append).
            history = photon.aggregator.history

            def stamped_append(record, append=history.append):
                append(record)
                update_times.append(time.perf_counter())

            history.append = stamped_append
        phase_start = time.perf_counter()
        setup_s = phase_start - spawn_t
        if layer_trace:
            layer_trace.in_phase = True
        out = built.run()
        phase_end = time.perf_counter()
        if layer_trace:
            layer_trace.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = built.summary(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": name, "seed": seed, "traced": traced,
        "numpy": numpy.__version__,
        "import_s": import_s, "setup_s": setup_s,
        "phase_s": phase_end - phase_start,
        "wall_s": phase_end - spawn_t, "peak_rss_mb": rss_mb,
        **summary,
    }
    if photon is not None:
        edges = [phase_start, *update_times]
        record["latencies_ms"] = [1e3 * (b - a) for a, b in zip(edges, edges[1:])]
    else:
        record.update(_serve_checks(built, out))
    if layer_trace:
        from layers import adamw_bytes_per_step, fwd_flops_per_token

        cfg = built.handles["model_config"]
        layer_trace.tracer.export()
        record["layers"] = {
            "fwd_flops_per_token": fwd_flops_per_token(cfg),
            "adamw_bytes_per_step": adamw_bytes_per_step(cfg),
            "calls": dict(layer_trace.calls),
            "total_s": dict(layer_trace.total_s),
            "self_s": dict(layer_trace.self_s),
            "extra": dict(layer_trace.extra),
            "phase_top_s": layer_trace.phase_top_s,
            "trace_path": str(layer_trace.tracer.path),
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
