"""Parameter (de)serialization shared by Link, codecs and failover.

State dicts travel between Photon components in two forms:

* flat ``float32`` vectors — for arithmetic (averaging, masking,
  pseudo-gradients) and for the FSDP parameter sharding;
* byte payloads — what the Link actually "transmits", enabling exact
  accounting of communication volume.  One dtype-preserving container,
  ``MAGIC + zlib(pack_arrays(arrays))``, carries the lossless Link
  default (the paper's "lossless compression techniques without
  pruning"), every :mod:`repro.compress` codec and failover's RunState
  trees; :func:`decode_state` rejects a corrupt payload.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

__all__ = [
    "MAGIC",
    "state_to_vector",
    "vector_to_state",
    "state_bytes",
    "pack_arrays",
    "encode_state",
    "decode_state",
    "tree_map",
    "tree_add",
    "tree_scale",
    "tree_sub",
    "tree_mean",
    "tree_zeros_like",
    "tree_norm",
]

StateDict = dict[str, np.ndarray]

#: The one wire framing: 4-byte magic, then a zlib stream.
MAGIC = b"CPX1"


def state_to_vector(state: StateDict) -> np.ndarray:
    """Flatten a state dict into one float32 vector (key-sorted)."""
    if not state:
        raise ValueError("empty state dict")
    return np.concatenate(
        [np.asarray(state[k], dtype=np.float32).reshape(-1) for k in sorted(state)]
    )


def vector_to_state(vector: np.ndarray, template: StateDict) -> StateDict:
    """Inverse of :func:`state_to_vector` given a shape template."""
    vector = np.asarray(vector, dtype=np.float32)
    expected = sum(np.asarray(v).size for v in template.values())
    if vector.size != expected:
        raise ValueError(f"vector has {vector.size} elements, template needs {expected}")
    out: StateDict = {}
    offset = 0
    for key in sorted(template):
        shape = np.asarray(template[key]).shape
        size = int(np.prod(shape)) if shape else 1
        out[key] = vector[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


def state_bytes(state: StateDict, bytes_per_param: int = 4) -> int:
    """Uncompressed payload size of a state dict."""
    return bytes_per_param * sum(np.asarray(v).size for v in state.values())


def pack_arrays(arrays: dict[str, np.ndarray]) -> bytes:
    """Compact array container: ``[count | per-array (name, dtype,
    shape, data)]``.  npz spends ~230 bytes of zip/npy headers per
    entry, which at small payload sizes erases exactly the margin a
    1-byte-per-element codec fights for; this framing spends ~40.
    """
    parts = [struct.pack("<I", len(arrays))]
    for name, array in arrays.items():
        array = np.asarray(array)
        if not array.flags["C_CONTIGUOUS"]:
            # (0-d arrays are always contiguous, so this never runs
            # np.ascontiguousarray's 0-d -> 1-d promotion.)
            array = np.ascontiguousarray(array)
        name_b = name.encode()
        dtype_b = array.dtype.str.encode()
        parts += [struct.pack("<H", len(name_b)), name_b,
                  struct.pack("<B", len(dtype_b)), dtype_b,
                  struct.pack(f"<B{array.ndim}I", array.ndim, *array.shape),
                  array.tobytes()]
    return b"".join(parts)


def _unpack_arrays(body: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`; every array is a fresh,
    writable copy.  A body that does not parse exactly raises
    ``ValueError``."""
    arrays: dict[str, np.ndarray] = {}
    try:
        (count,), offset = struct.unpack_from("<I", body), 4
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode()
            offset += name_len
            (dtype_len,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dtype = np.dtype(body[offset:offset + dtype_len].decode())
            offset += dtype_len
            (ndim,) = struct.unpack_from("<B", body, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", body, offset)
            offset += 4 * ndim
            if dtype.hasobject:
                raise ValueError(f"array {name!r} has object dtype")
            size = math.prod(shape)
            if offset + size * dtype.itemsize > len(body):
                raise ValueError(f"array {name!r} overruns the payload body")
            arrays[name] = np.frombuffer(
                body, dtype=dtype, count=size, offset=offset,
            ).reshape(shape).copy()
            offset += size * dtype.itemsize
    except (struct.error, UnicodeDecodeError, TypeError) as exc:
        raise ValueError(f"corrupt payload body: {exc}") from None
    if offset != len(body):
        raise ValueError(
            f"corrupt payload body: {len(body) - offset} bytes after the last array")
    return arrays


def encode_state(arrays: dict[str, np.ndarray], level: int = 1) -> bytes:
    """Serialize named arrays, dtypes preserved, into one payload."""
    return MAGIC + zlib.compress(pack_arrays(arrays), level)


def decode_state(payload: bytes) -> StateDict:
    """Inverse of :func:`encode_state`.  Raises ``ValueError`` on a
    wrong magic, a corrupt or truncated zlib stream, or trailing
    bytes."""
    if payload[:4] != MAGIC:
        raise ValueError(f"payload magic {payload[:4]!r} is not {MAGIC!r}")
    stream = zlib.decompressobj()
    try:
        body = stream.decompress(memoryview(payload)[4:])
    except zlib.error as exc:
        raise ValueError(f"corrupt payload: {exc}") from None
    if not stream.eof:
        raise ValueError("truncated payload: the zlib stream ends early")
    if stream.unused_data:
        raise ValueError(
            f"corrupt payload: {len(stream.unused_data)} bytes after the zlib stream")
    return _unpack_arrays(body)


# ----------------------------------------------------------------------
# Tree arithmetic on state dicts (the server-side pseudo-gradient math)
# ----------------------------------------------------------------------

def tree_map(fn, state: StateDict) -> StateDict:
    return {k: fn(v) for k, v in state.items()}


def tree_add(a: StateDict, b: StateDict) -> StateDict:
    _check_keys(a, b)
    return {k: a[k] + b[k] for k in a}


def tree_sub(a: StateDict, b: StateDict) -> StateDict:
    _check_keys(a, b)
    return {k: a[k] - b[k] for k in a}


def tree_scale(state: StateDict, factor: float) -> StateDict:
    return {k: v * np.float32(factor) for k, v in state.items()}


def tree_mean(states: list[StateDict], weights: list[float] | None = None) -> StateDict:
    """(Weighted) mean over state dicts — the FedAvg aggregation."""
    if not states:
        raise ValueError("tree_mean over empty list")
    if weights is None:
        weights = [1.0] * len(states)
    if len(weights) != len(states):
        raise ValueError("weights and states length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    out = tree_scale(states[0], weights[0] / total)
    for state, w in zip(states[1:], weights[1:]):
        _check_keys(out, state)
        for k in out:
            out[k] = out[k] + state[k] * np.float32(w / total)
    return out


def tree_zeros_like(state: StateDict) -> StateDict:
    return {k: np.zeros_like(v) for k, v in state.items()}


def tree_norm(state: StateDict) -> float:
    """Global L2 norm of a state dict."""
    total = 0.0
    for v in state.values():
        total += float(np.sum(np.asarray(v, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def _check_keys(a: StateDict, b: StateDict) -> None:
    if a.keys() != b.keys():
        raise KeyError(
            f"state dict key mismatch: {sorted(a.keys() ^ b.keys())}"
        )
