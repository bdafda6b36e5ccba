"""The repository benchmark: federated training and multi-tenant serving,
end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, both modes

A run is a sequence of *episodes*, each a fresh process
(``episode.py``) that imports ``repro``, builds the workload from the
seed and runs its measured phase once: ``Photon.train()`` for the
``fed-*`` workloads, ``RequestReplayer.run()`` for ``serve-zipf``.
Episodes repeat until ``--seconds`` of measured phase have run and
the workload's minimum number of episodes (four when traced) have
ended; each metric is the median over episodes, so one slow episode
does not move it.

``--trace 0`` runs untraced episodes and reports the end-to-end
metrics.  ``--trace 1`` interleaves untraced and traced episodes of
the same seed: the traced ones time every layer from outside
(``layers.py``) and give the per-layer metrics; traced over untraced
wall time is ``trace.overhead_ratio``.

Every episode's outputs are checked (see :func:`check`).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Episodes run one at a time
with no worker pools and BLAS threads capped at the number of usable
CPUs.  Artifacts (Chrome traces, run manifests) go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("fed-sync-paper", "fed-async-comm", "serve-zipf")
# Not used while the benchmark was tuned: confirm a gain claim on it.
HELD_OUT_SEED = 104729
RUN_BUDGET_S = 165.0  # a run must end well inside 180 s
UNIFORM_PPL = 64.0  # vocab 64: a model no better than uniform
COVERAGE_TARGET = 0.95

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("val_ppl", "ppl"),
    ("wire_mb", "MB"),
    ("peak_rss_mb", "MB"),
)

# layer -> (total time, self time, calls) metric names
LAYER_METRICS = {
    "data.sample_tokens": ("data.sample_tokens_s", "data.sample_tokens_self_s",
                           "data.sample_tokens_calls"),
    "data.next_batch": ("data.next_batch_s", "data.next_batch_self_s",
                        "data.next_batch_calls"),
    "nn.forward": ("nn.forward_s", "nn.forward_self_s", "nn.forward_calls"),
    "tensor.backward": ("tensor.backward_s", "tensor.backward_self_s",
                        "tensor.backward_calls"),
    "optim.adamw_step": ("optim.adamw_step_s", "optim.adamw_step_self_s",
                         "optim.adamw_step_calls"),
    "fed.client_train": ("fed.client_train_s", "fed.client_train_self_s",
                         "fed.client_train_calls"),
    "fed.batched_train": ("fed.batched_train_s", "fed.batched_train_self_s",
                          "fed.batched_train_calls"),
    "link.send": ("link.send_s", "link.send_self_s", "link.messages"),
    "link.recv": ("link.recv_s", "link.recv_self_s", "link.recv_calls"),
    "codec.encode": ("codec.encode_s", "codec.encode_self_s",
                     "codec.encode_calls"),
    "codec.decode": ("codec.decode_s", "codec.decode_self_s",
                     "codec.decode_calls"),
    "fed.merge": ("fed.merge_s", "fed.merge_self_s", "fed.merge_calls"),
    "fed.server_step": ("fed.server_step_s", "fed.server_step_self_s",
                        "fed.server_updates"),
    "eval": ("eval.s", "eval.self_s", "eval.calls"),
    "runstate.save": ("runstate.save_s", "runstate.save_self_s",
                      "runstate.saves"),
    "serve.prefill": ("serve.prefill_s", "serve.prefill_self_s",
                      "serve.prefill_calls"),
    "serve.decode": ("serve.decode_s", "serve.decode_self_s",
                     "serve.decode_calls"),
    "serve.adapter_fetch": ("serve.adapter_fetch_s",
                            "serve.adapter_fetch_self_s",
                            "serve.adapter_fetch_calls"),
    "serve.sample_token": ("serve.sample_token_s", "serve.sample_token_self_s",
                           "serve.sample_token_calls"),
}

# Per-layer metrics that are not a layer's time or call count: name ->
# unit.  Counts and bytes are deterministic for a seed.
LAYER_EXTRAS = {
    "import_s": "s",
    "data.tokens_generated": "count",
    "data.sample_tokens_per_s": "tok/s",
    "nn.forward_gflop": "GFLOP",
    "nn.forward_gflop_per_s": "GFLOP/s",
    "tensor.backward_gflop": "GFLOP",
    "tensor.backward_gflop_per_s": "GFLOP/s",
    "optim.adamw_gb": "GB",
    "optim.adamw_gb_per_s": "GB/s",
    "codec.encode_mb": "MB",
    "codec.encode_mb_per_s": "MB/s",
    "codec.decode_mb": "MB",
    "codec.decode_mb_per_s": "MB/s",
    "fed.updates_attempted": "count",
    "fed.updates_merged": "count",
    "link.raw_mb": "MB",
    "link.wire_mb": "MB",
    "link.compression_ratio": "ratio",
    "runstate.mb_written": "MB",
    "serve.streams_per_decode": "ratio",
    "serve.cache_hit_rate": "ratio",
    "serve.cache_evictions": "count",
    "engine.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Episode fields that depend only on the code and the seed: every
# episode of a run must agree on them, traced or not.
DETERMINISTIC = ("val_ppl", "wire_bytes", "updates", "failed_updates",
                 "tokens", "link_wire_bytes", "link_raw_bytes",
                 "link_messages", "requests", "tokens_out", "cache_hits",
                 "cache_misses", "cache_evictions", "fetched_bytes",
                 "outputs_sha", "incomplete", "reference_checked",
                 "reference_mismatched", "reference_ppl")


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------
def _child_env() -> tuple[dict, int]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env, nproc


def run_episode(name: str, seed: int, traced: bool, deadline: float,
                env: dict) -> dict:
    remaining = deadline - time.perf_counter()
    if remaining <= 1.0:
        raise BenchError(f"{name}: out of time before an episode could start")
    spawn_t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "episode.py"), name, str(seed),
             repr(spawn_t), "1" if traced else "0", str(OUT)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: episode did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{name}: episode exited {proc.returncode}\n"
                         f"{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{name}: episode printed no result\n"
                         f"{proc.stderr[-4000:]}") from None


def run_episodes(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Untraced episodes (``trace`` off) or untraced, traced, traced,
    untraced, … (``trace`` on) until ``seconds`` of measured phase and
    the minimum count are reached, within the run budget."""
    from workloads import SHAPES

    env, _ = _child_env()
    minimum = 4 if trace else SHAPES[name]["episodes"]
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    episodes: list[dict] = []
    measured = 0.0
    while True:
        # untraced, traced, traced, untraced, ...
        traced = trace and len(episodes) % 4 in (1, 2)
        episode = run_episode(name, seed, traced, deadline, env)
        episodes.append(episode)
        measured += episode["phase_s"]
        longest = max(e["wall_s"] for e in episodes) + 1.0
        enough = len(episodes) >= minimum and measured >= seconds
        if enough or time.perf_counter() + longest > deadline:
            break
    if len(episodes) < minimum:
        raise BenchError(f"{name}: only {len(episodes)} episodes fit the "
                         f"{RUN_BUDGET_S:.0f} s budget")
    return episodes


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check(name: str, episodes: list[dict]) -> tuple[int, int, list[str]]:
    """Returns (attempted, failed, problems).

    fed-*: every round's val ppl finite, the final one below the uniform
    baseline, Link counters covering the History's, no failed client
    updates.  serve-zipf: every request answered with its full token
    budget, and the reference subset token-identical to single-tenant
    merge_lora + InferenceEngine greedy decoding.  ``failed`` counts the
    operations (client updates, requests) these checks reject.  Both:
    every episode of the run (traced or not) has identical deterministic
    outputs.
    """
    problems: list[str] = []
    attempted = failed = 0
    for i, e in enumerate(episodes):
        tag = f"episode {i} ({'traced' if e['traced'] else 'untraced'})"
        if name.startswith("fed-"):
            n = sum(e["updates"]) + e["failed_updates"]
            bad = e["failed_updates"]
            ppl = e["val_ppl"]
            if not all(p == p and p < float("inf") for p in ppl):
                problems.append(f"{tag}: non-finite val ppl {ppl}")
                bad = n
            elif ppl[-1] >= UNIFORM_PPL:
                problems.append(f"{tag}: final val ppl {ppl[-1]:.4g} is not "
                                f"below the uniform {UNIFORM_PPL:g}")
                bad = n
            # The Link also meters broadcasts to clients still in
            # flight when an async run stops, so it may exceed History.
            if e["link_wire_bytes"] < sum(e["wire_bytes"]):
                problems.append(f"{tag}: Link counted {e['link_wire_bytes']} "
                                f"wire bytes, less than History's "
                                f"{sum(e['wire_bytes'])}")
                bad = n
        else:
            n = e["requests"]
            bad = e["incomplete"] + e["reference_mismatched"]
            if e["incomplete"]:
                problems.append(f"{tag}: {e['incomplete']} of {n} requests "
                                "missing or short of their token budget")
            if e["reference_mismatched"]:
                problems.append(f"{tag}: {e['reference_mismatched']} of "
                                f"{e['reference_checked']} reference requests "
                                "differ from single-tenant merge_lora "
                                "decoding")
        attempted += n
        failed += bad
    first = episodes[0]
    for i, e in enumerate(episodes[1:], 1):
        diff = [k for k in DETERMINISTIC if e.get(k) != first.get(k)]
        if diff:
            problems.append(f"episode {i} differs from episode 0 in {diff}")
    traced = [e["layers"] for e in episodes if e["traced"]]
    for i, layers in enumerate(traced[1:], 1):
        for key in ("calls", "extra"):
            if layers[key] != traced[0][key]:
                problems.append(f"traced episode {i}: per-layer {key} differ "
                                "from the first traced episode")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(name: str, episodes: list[dict]) -> dict[str, float]:
    plain = [e for e in episodes if not e["traced"]]
    first = plain[0]
    if name.startswith("fed-"):
        tokens = [e["tokens"] / e["phase_s"] for e in plain]
        val_ppl = first["val_ppl"][-1]
        wire = first["link_wire_bytes"]
    else:
        tokens = [e["tokens_out"] / e["phase_s"] for e in plain]
        val_ppl = first["reference_ppl"]
        wire = first["fetched_bytes"]
    return {
        "setup_s": statistics.median(e["setup_s"] for e in plain),
        "tokens_per_s": statistics.median(tokens),
        # Percentiles within each episode, then the median over
        # episodes: one episode's stall cannot set the run's tail.
        "latency_p50_ms": statistics.median(
            percentile(e["latencies_ms"], 50) for e in plain),
        "latency_p99_ms": statistics.median(
            percentile(e["latencies_ms"], 99) for e in plain),
        "val_ppl": val_ppl,
        "wire_mb": wire / 1e6,
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in plain),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer(episodes: list[dict]) -> dict[str, float]:
    """Times are medians over the traced episodes; counts agree
    between them (checked) and are taken from the first."""
    traced = [e for e in episodes if e["traced"]]
    plain = [e for e in episodes if not e["traced"]]
    layers = [e["layers"] for e in traced]
    first, extra = layers[0], layers[0]["extra"]

    def med(key: str, layer: str) -> float:
        return statistics.median(lay[key].get(layer, 0.0) for lay in layers)

    out: dict[str, float] = {}
    for layer, (total, self_, calls) in LAYER_METRICS.items():
        out[total] = med("total_s", layer)
        out[self_] = med("self_s", layer)
        out[calls] = first["calls"].get(layer, 0)
    e0 = traced[0]
    fed = "tokens" in e0
    fwd = first["fwd_flops_per_token"]
    out["import_s"] = statistics.median(e["import_s"] for e in traced)
    out["data.tokens_generated"] = extra.get("data.tokens_generated", 0)
    out["data.sample_tokens_per_s"] = _rate(out["data.tokens_generated"],
                                            out["data.sample_tokens_s"])
    out["nn.forward_gflop"] = fwd * extra.get("nn.forward_tokens", 0) / 1e9
    out["nn.forward_gflop_per_s"] = _rate(out["nn.forward_gflop"],
                                          out["nn.forward_s"])
    trained = e0["tokens"] if fed else 0
    out["tensor.backward_gflop"] = 2 * fwd * trained / 1e9
    out["tensor.backward_gflop_per_s"] = _rate(out["tensor.backward_gflop"],
                                               out["tensor.backward_s"])
    out["optim.adamw_gb"] = (first["adamw_bytes_per_step"]
                             * out["optim.adamw_step_calls"] / 1e9)
    out["optim.adamw_gb_per_s"] = _rate(out["optim.adamw_gb"],
                                        out["optim.adamw_step_s"])
    for side in ("encode", "decode"):
        out[f"codec.{side}_mb"] = extra.get(f"codec.{side}_raw_bytes", 0) / 1e6
        out[f"codec.{side}_mb_per_s"] = _rate(out[f"codec.{side}_mb"],
                                              out[f"codec.{side}_s"])
    out["fed.updates_attempted"] = extra.get("fed.updates_attempted", 0)
    out["fed.updates_merged"] = sum(e0["updates"]) if fed else 0
    out["link.raw_mb"] = e0.get("link_raw_bytes", 0) / 1e6
    out["link.wire_mb"] = e0.get("link_wire_bytes", 0) / 1e6
    out["link.compression_ratio"] = _rate(out["link.raw_mb"], out["link.wire_mb"])
    out["runstate.mb_written"] = extra.get("runstate.bytes_written", 0) / 1e6
    out["serve.streams_per_decode"] = _rate(extra.get("serve.decode_streams", 0),
                                            out["serve.decode_calls"])
    if not fed:
        out["serve.cache_hit_rate"] = e0["cache_hits"] / e0["requests"]
        out["serve.cache_evictions"] = e0["cache_evictions"]
    else:
        out["serve.cache_hit_rate"] = out["serve.cache_evictions"] = 0
    phase = statistics.median(e["phase_s"] for e in traced)
    top = statistics.median(lay["phase_top_s"] for lay in layers)
    out["engine.self_s"] = phase - top
    out["trace.coverage"] = _rate(top, phase)
    out["trace.overhead_ratio"] = (
        statistics.median(e["wall_s"] for e in traced)
        / statistics.median(e["wall_s"] for e in plain))
    return out


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def exact_counts(episodes: list[dict]) -> dict:
    """The run's deterministic outputs and, when traced, layer counts."""
    counts = {"outputs": {k: episodes[0].get(k) for k in DETERMINISTIC}}
    traced = [e["layers"] for e in episodes if e["traced"]]
    if traced:
        counts["layers"] = {"calls": traced[0]["calls"],
                            "extra": traced[0]["extra"]}
    return counts


def check_ledger(name: str, seed: int, episodes: list[dict]) -> list[str]:
    """Compare with earlier runs of this seed in this checkout on the
    same sources, numpy and thread count (``out/counts-*.json``), then
    record this run."""
    counts = exact_counts(episodes)
    path = OUT / f"counts-{name}-seed{seed}.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = (f"{source_sha()}/numpy-{episodes[0]['numpy']}"
           f"/threads-{_child_env()[1]}")
    earlier = ledger.get(key, {})
    problems = [f"{part} counts differ from an earlier run of seed {seed} "
                "on the same sources" for part in counts
                if part in earlier and earlier[part] != counts[part]]
    ledger[key] = {**earlier, **counts}
    OUT.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, sort_keys=True) + "\n")
    return problems


def manifest(name: str, seed: int, args, episodes: list[dict]) -> dict:
    from workloads import SHAPES, config_hash

    _, nproc = _child_env()
    counts = exact_counts(episodes)
    traced = [e["layers"] for e in episodes if e["traced"]]
    return {
        "workload": name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "episodes": len(episodes),
        "traced_episodes": sum(e["traced"] for e in episodes),
        "git_sha": git_sha(), "source_sha": source_sha(),
        "python": platform.python_version(), "numpy": episodes[0]["numpy"],
        "nproc": nproc, "blas_threads": nproc,
        "config_hash": config_hash(name), "config": SHAPES[name],
        "episode_times": [
            {k: e[k] for k in ("traced", "setup_s", "phase_s", "wall_s")}
            for e in episodes],
        "counts_digest": hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16],
        "trace_file": traced[-1]["trace_path"] if traced else None,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) >= 1e-3 else f"{value:.3g}"


def print_end_to_end(rows: dict[str, dict[str, float]],
                     samples: dict[str, str]) -> None:
    names = [n for n, _ in END_TO_END]
    width = max(len(w) for w in rows) + 2
    print("end to end (medians over untraced episodes)".ljust(width))
    print(" " * width + "".join(f"{n:>16}" for n in names) + f"{'latency n':>14}")
    print(" " * width + "".join(f"{u:>16}" for _, u in END_TO_END))
    for workload, metrics in rows.items():
        print(workload.ljust(width)
              + "".join(f"{_fmt(metrics[n]):>16}" for n in names)
              + f"{samples[workload]:>14}")


# First-principles column: layer -> (analytic work, achieved rate),
# from counts and computed sizes only.
KERNEL_WORK = {
    "data.sample_tokens": ("data.tokens_generated", "data.sample_tokens_per_s"),
    "nn.forward": ("nn.forward_gflop", "nn.forward_gflop_per_s"),
    "tensor.backward": ("tensor.backward_gflop", "tensor.backward_gflop_per_s"),
    "optim.adamw_step": ("optim.adamw_gb", "optim.adamw_gb_per_s"),
    "codec.encode": ("codec.encode_mb", "codec.encode_mb_per_s"),
    "codec.decode": ("codec.decode_mb", "codec.decode_mb_per_s"),
}


def print_layers(name: str, m: dict[str, float]) -> None:
    print(f"\nper layer: {name} (medians over traced episodes; self = total "
          "minus time in wrapped callees)")
    print(f"{'layer':<22}{'total s':>10}{'self s':>10}{'calls':>10}"
          f"{'analytic work':>22}{'achieved':>22}")
    for layer, (total, self_, calls) in LAYER_METRICS.items():
        if not m[calls]:
            continue
        work = rate = ""
        if layer in KERNEL_WORK:
            w, r = KERNEL_WORK[layer]
            work = f"{_fmt(m[w])} {LAYER_EXTRAS[w]}"
            rate = f"{_fmt(m[r])} {LAYER_EXTRAS[r]}"
        print(f"{layer:<22}{m[total]:>10.3f}{m[self_]:>10.3f}"
              f"{_fmt(m[calls]):>10}{work:>22}{rate:>22}".rstrip())
    print(f"{'engine.self_s':<22}{m['engine.self_s']:>10.3f}{'':>20}"
          f"  (phase time outside every named layer; "
          f"{100 * m['trace.coverage']:.1f}% attributed)")
    shown = {"engine.self_s", "trace.coverage",
             *(x for pair in KERNEL_WORK.values() for x in pair)}
    rest = [f"{k} {_fmt(m[k])} {u}" for k, u in LAYER_EXTRAS.items()
            if k not in shown and m[k]]
    for i in range(0, len(rest), 3):
        print("  " + "".join(f"{cell:<40}" for cell in rest[i:i + 3]).rstrip())


def run_one(name: str, seed: int, args) -> dict:
    episodes = run_episodes(name, seed, args.seconds, bool(args.trace))
    attempted, failed, problems = check(name, episodes)
    problems += check_ledger(name, seed, episodes)
    for problem in problems:
        print(f"CHECK FAILED [{name}]: {problem}")
    e2e = end_to_end(name, episodes)
    layers = per_layer(episodes) if args.trace else None
    if layers and name.startswith("fed-") and layers["trace.coverage"] < COVERAGE_TARGET:
        print(f"note [{name}]: {100 * layers['trace.coverage']:.1f}% of train "
              f"time is in named layers (target {100 * COVERAGE_TARGET:.0f}%)")
    info = manifest(name, seed, args, episodes)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"manifest-{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2) + "\n")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "e2e": e2e, "layers": layers, "manifest": info,
            "samples": "{}x{}".format(sum(not e["traced"] for e in episodes),
                                      len(episodes[0]["latencies_ms"]))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    print_end_to_end({n: r["e2e"] for n, r in results.items()},
                     {n: r["samples"] for n, r in results.items()})
    if args.trace:
        for n, r in results.items():
            print_layers(n, r["layers"])
    for n, r in results.items():
        print(f"manifest [{n}]: {json.dumps(r['manifest'], sort_keys=True)}")

    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({"correct": correct,
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values())}))
        return 0 if correct else 1
    r = results[args.workload]
    if args.trace:
        units = {**{m: "s" for names_ in LAYER_METRICS.values() for m in names_[:2]},
                 **{names_[2]: "count" for names_ in LAYER_METRICS.values()},
                 **LAYER_EXTRAS}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in r["layers"].items()}
    else:
        metrics = {m: {"value": r["e2e"][m], "unit": u} for m, u in END_TO_END}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
