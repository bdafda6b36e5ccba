"""Ablation — Link compression and quantization.

Section 4: "Link provides an extensible post-processing pipeline by
leveraging model compression ... By default, Photon uses lossless
compression techniques without pruning."  This ablation measures the
payload sizes and convergence impact of the Link's transport modes on
the same federated run:

* raw (uncompressed float32 — the lossless run's raw-volume meters),
* zlib (the lossless default),
* int8 quantization + zlib (``make_codec("int8")`` on uplink and
  downlink; lossy, ~4x smaller).

Shape asserted: zlib <= raw payloads; int8 < half of raw; both
training runs converge, with the lossy run within 15% of the lossless
one.
"""

from __future__ import annotations

from repro.compress import make_codec
from repro.config import FedConfig, OptimConfig
from repro.fed import Link, Photon

from common import MICRO, print_table

N_CLIENTS = 2
LOCAL_STEPS = 8
ROUNDS = 6


def _int8_link() -> Link:
    codec = make_codec("int8")
    return Link(uplink_codec=codec, downlink_codec=codec)


LINKS = {"zlib": Link, "int8+zlib": _int8_link}


def run_modes() -> dict[str, dict]:
    results = {}
    for name, make_link in LINKS.items():
        optim = OptimConfig(max_lr=4e-3, warmup_steps=4,
                            schedule_steps=ROUNDS * LOCAL_STEPS,
                            batch_size=4, weight_decay=0.0)
        photon = Photon(
            MICRO,
            FedConfig(population=N_CLIENTS, clients_per_round=N_CLIENTS,
                      local_steps=LOCAL_STEPS, rounds=ROUNDS),
            optim, data_seed=3,
        )
        link = photon.aggregator.link = make_link()
        history = photon.train()
        results[name] = {
            "ppl": history.val_perplexities,
            "bytes": history.total_comm_bytes,
        }
        if name == "zlib":
            results["raw"] = {
                "ppl": history.val_perplexities,
                "bytes": link.raw_bytes_sent + link.raw_bytes_received,
            }
    return results


def test_ablation_link_compression(run_once):
    results = run_once(run_modes)

    rows = [[name, f"{results[name]['bytes']:,}", f"{results[name]['ppl'][-1]:.2f}"]
            for name in ("raw", "zlib", "int8+zlib")]
    print_table("Ablation: Link payload modes",
                ["Mode", "Total bytes", "Final PPL"], rows)

    raw = results["raw"]["bytes"]
    assert results["zlib"]["bytes"] <= raw
    assert results["int8+zlib"]["bytes"] < raw / 2
    for name, r in results.items():
        assert r["ppl"][-1] < 0.5 * r["ppl"][0], name
    # Lossy quantization costs at most 15% final perplexity here.
    assert results["int8+zlib"]["ppl"][-1] <= results["zlib"]["ppl"][-1] * 1.15
