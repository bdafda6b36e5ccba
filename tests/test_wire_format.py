"""The one wire container behind the Link, every codec and failover.

``MAGIC + zlib(pack_arrays(arrays))`` keeps dtypes, decodes formats
written by earlier versions, and rejects corrupt payloads with a
one-line ``ValueError`` instead of loading them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.compress import make_codec
from repro.fed.failover import deserialize_tree, serialize_tree
from repro.fed.link import Link
from repro.utils.serialization import MAGIC, decode_state, encode_state, pack_arrays


def small_state() -> dict:
    rng = np.random.default_rng(5)
    return {"w": rng.normal(size=(16, 8)).astype(np.float32),
            "b": rng.normal(size=(8,)).astype(np.float32)}


def link_payload() -> tuple[bytes, object]:
    link = Link()
    message = link.send_state(small_state(), "c0", "agg")

    def decode(payload):
        message.payload = payload
        return link.recv_state(message)

    return message.payload, decode


def codec_payload() -> tuple[bytes, object]:
    codec = make_codec("int8", seed=0)
    return codec.encode(small_state(), "c0", "agg"), codec.decode


def tree_payload() -> tuple[bytes, object]:
    tree = {"state": small_state(), "step": 3,
            "counters": np.arange(4, dtype=np.int64), "rng": b"\x01\x02"}
    return serialize_tree(tree)[0], deserialize_tree


PAYLOADS = {"link": link_payload, "codec": codec_payload, "tree": tree_payload}


def truncate(at):
    return lambda p: p[:at] if at >= 0 else p[:len(p) + at]


def flip(p: bytes) -> bytes:
    i = len(p) // 2
    return p[:i] + bytes([p[i] ^ 0xFF]) + p[i + 1:]


CORRUPTIONS = {
    "empty": truncate(0),
    "cut_in_magic": truncate(2),
    "magic_only": truncate(4),
    "cut_after_zlib_header": truncate(6),
    "cut_in_half": lambda p: p[:len(p) // 2],
    "cut_last_byte": truncate(-1),
    "flipped_body_byte": flip,
    "wrong_magic": lambda p: b"ZLB0" + p[4:],
    "appended_junk": lambda p: p + b"junk",
    "appended_zero": lambda p: p + b"\x00",
}


class TestCorruptPayloads:
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_intact_payload_decodes(self, kind):
        payload, decode = PAYLOADS[kind]()
        decode(payload)

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_corruption_rejected(self, kind, corruption):
        payload, decode = PAYLOADS[kind]()
        with pytest.raises(ValueError) as info:
            decode(CORRUPTIONS[corruption](payload))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("body, fault", [
        (pack_arrays({"w": np.zeros(4, np.float32)})[:-4], "overruns"),
        (pack_arrays({"w": np.zeros(4, np.float32)}) + b"\x00", "after the last array"),
        (pack_arrays({"o": np.array([None], dtype=object)}), "object dtype"),
        (pack_arrays({"w": np.zeros(4, np.float32)}).replace(b"<f4", b"<?4"),
         "corrupt payload body"),
        (b"\x01\x00", "corrupt payload body"),
    ])
    def test_malformed_body_rejected(self, body, fault):
        with pytest.raises(ValueError, match=fault):
            decode_state(MAGIC + zlib.compress(body))


class TestContainer:
    def test_dtypes_and_shapes_survive(self):
        arrays = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.array(2.5),
            "i64": np.arange(-3, 3, dtype=np.int64),
            "u8": np.frombuffer(b"\x00\xffab", dtype=np.uint8),
            "bool": np.array([True, False]),
            "empty": np.zeros((3, 0), dtype=np.float16),
            "strided": np.arange(10, dtype=np.int32)[::2],
        }
        back = decode_state(encode_state(arrays))
        assert list(back) == list(arrays)
        for k, v in arrays.items():
            assert back[k].dtype == v.dtype and back[k].shape == v.shape, k
            np.testing.assert_array_equal(back[k], v)
            assert back[k].flags.writeable

    def test_one_magic_for_every_path(self):
        for payload, _ in (f() for f in PAYLOADS.values()):
            assert payload[:4] == MAGIC

    def test_int8_payload_from_earlier_version_still_decodes(self):
        # make_codec("int8", seed=0).encode(state) as written before the
        # Link, codecs and failover shared one container (the format
        # RunState checkpoints with a checkpoint_codec hold on disk).
        payload = bytes.fromhex(
            "43505831789c63616060e06048ca4c2cb6b22ab460aec9346464060a899eae"
            "8789165b30dba49930b0351fb461652887a9626202aa02618503f1f56071a8"
            "ba05997ed6000c6a12e6")
        state = {"bias": np.array([0.5, -1.25, 3.0], np.float32),
                 "w": np.array([[0.1, -0.2], [0.3, 0.4]], np.float32)}
        assert make_codec("int8", seed=0).encode(state) == payload
        back = make_codec("int8", seed=0).decode(payload)
        expected = {  # what the earlier version decoded the payload to
            "bias": [0.4960629940032959, -1.251968502998352, 3.0],
            "w": [[0.10078740119934082, -0.20157480239868164],
                  [0.29921260476112366, 0.4000000059604645]],
        }
        for k, v in expected.items():
            np.testing.assert_array_equal(back[k], np.array(v, np.float32))
        assert back["w"].dtype == np.float32


MASK_SCRIPT = """
import hashlib
import numpy as np
from repro.fed.link import SecureAggregator
agg = SecureAggregator(["alice", "bob", "carol"], seed=11)
masked = agg.mask("bob", {"w": np.zeros((4, 4), np.float32)})
print(hashlib.sha256(masked["w"].tobytes()).hexdigest())
"""


def test_secure_aggregation_masks_ignore_hash_seed():
    src = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", MASK_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
