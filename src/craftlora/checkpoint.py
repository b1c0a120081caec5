"""Binary checkpoint files for backbones, adapters and expert encoders.

Layout (all integers unsigned 32-bit little-endian, strings length-prefixed
UTF-8, tensors row-major 32-bit little-endian floats):

    magic "CRFT" | version | kind
    [adapter only: kind tag, rank, host hash, routing manifest]
    tensor count | tensors (name, rows, cols, data) | CRC32 of all prior bytes

Tensors are widened to float64 on load and narrowed with round-to-nearest
on save, so a save/load round trip is bit-exact at 32-bit precision. The
CRC is validated before anything is interpreted.
"""

import hashlib
import io
import os
import struct
import zlib

import numpy as np

from .adapters import LayerRouting, LoraAdapter
from .denoiser import Backbone
from .exceptions import CorruptCheckpoint, RoutingViolation
from .guidance import ExpertEncoderParams, MlpParams
from .prompts import EMB_DIM

MAGIC = b"CRFT"
VERSION = 1
KIND_CODES = {"backbone": 0, "adapter": 1, "encoder": 2}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


def _w_u32(buf, value):
    buf.write(struct.pack("<I", value))


def _w_str(buf, text):
    raw = text.encode("utf-8")
    _w_u32(buf, len(raw))
    buf.write(raw)


def _w_tensor(buf, name, arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    _w_str(buf, name)
    _w_u32(buf, arr.shape[0])
    _w_u32(buf, arr.shape[1])
    buf.write(arr.astype("<f4").tobytes())


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n):
        if self.pos + n > len(self.blob):
            raise CorruptCheckpoint(f"{self.path} is truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def text(self):
        return self.take(self.u32()).decode("utf-8")

    def tensor(self):
        name = self.text()
        rows = self.u32()
        cols = self.u32()
        data = np.frombuffer(self.take(rows * cols * 4), dtype="<f4")
        return name, data.astype(np.float64).reshape(rows, cols)


def _finish(path, buf):
    """Append the CRC and move the bytes into place atomically.

    The file is written beside the target and renamed over it only once
    complete, so a failed save never truncates an existing checkpoint.
    """
    payload = buf.getvalue()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _open(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 12:
        raise CorruptCheckpoint(f"{path} is too short to be a checkpoint")
    payload, stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(payload) & 0xFFFFFFFF != stored:
        raise CorruptCheckpoint(f"{path} failed its CRC check")
    reader = _Reader(payload, path)
    if reader.take(4) != MAGIC:
        raise CorruptCheckpoint(f"{path} has the wrong magic bytes")
    version = reader.u32()
    if version != VERSION:
        raise CorruptCheckpoint(f"{path} has unsupported format version {version}")
    kind_code = reader.u32()
    if kind_code not in KIND_NAMES:
        raise CorruptCheckpoint(f"{path} has unknown kind code {kind_code}")
    return reader, KIND_NAMES[kind_code]


def _read_tensors(reader):
    count = reader.u32()
    out = {}
    order = []
    for _ in range(count):
        name, arr = reader.tensor()
        out[name] = arr
        order.append(name)
    return out, order


def save_backbone(path, backbone):
    buf = io.BytesIO()
    buf.write(MAGIC)
    _w_u32(buf, VERSION)
    _w_u32(buf, KIND_CODES["backbone"])
    _w_u32(buf, backbone.n_layers)
    for name, w in backbone.items():
        _w_tensor(buf, name, w)
    _finish(path, buf)


def load_backbone(path):
    reader, kind = _open(path)
    if kind != "backbone":
        raise CorruptCheckpoint(f"{path} holds a {kind} checkpoint, expected backbone")
    tensors, order = _read_tensors(reader)
    return Backbone([(name, tensors[name]) for name in order])


def save_tensor_set(path, tensors):
    """Generic named-tensor container in the backbone framing.

    Used for the trunk's sidecar bases file; order is preserved.
    """
    buf = io.BytesIO()
    buf.write(MAGIC)
    _w_u32(buf, VERSION)
    _w_u32(buf, KIND_CODES["backbone"])
    _w_u32(buf, len(tensors))
    for name, arr in tensors:
        _w_tensor(buf, name, arr)
    _finish(path, buf)


def load_tensor_set(path):
    reader, kind = _open(path)
    if kind != "backbone":
        raise CorruptCheckpoint(f"{path} holds a {kind} checkpoint, expected a tensor set")
    tensors, order = _read_tensors(reader)
    return [(name, tensors[name]) for name in order]


def save_adapter(path, adapter):
    buf = io.BytesIO()
    buf.write(MAGIC)
    _w_u32(buf, VERSION)
    _w_u32(buf, KIND_CODES["adapter"])
    _w_str(buf, adapter.kind)
    _w_u32(buf, adapter.rank)
    _w_str(buf, adapter.host_hash or "")
    for side in (adapter.routing.content, adapter.routing.style):
        _w_u32(buf, len(side))
        for name in side:
            _w_str(buf, name)
    records = []
    for name, (b, a) in adapter.factors.items():
        records.append((f"{name}.down", b))
        records.append((f"{name}.up", a))
    records.append(("gate.w", adapter.gate_w))
    records.append(("gate.b", np.array([[adapter.gate_b]])))
    _w_u32(buf, len(records))
    for name, arr in records:
        _w_tensor(buf, name, arr)
    _finish(path, buf)


def load_adapter(path):
    reader, kind = _open(path)
    if kind != "adapter":
        raise CorruptCheckpoint(f"{path} holds a {kind} checkpoint, expected adapter")
    kind_tag = reader.text()
    if kind_tag not in ("content", "style"):
        raise CorruptCheckpoint(f"{path} has unknown adapter kind {kind_tag!r}")
    rank = reader.u32()
    host_hash = reader.text()
    sides = []
    for _ in range(2):
        count = reader.u32()
        sides.append(tuple(reader.text() for _ in range(count)))
    try:
        routing = LayerRouting(content=sides[0], style=sides[1])
    except RoutingViolation as exc:
        raise CorruptCheckpoint(f"{path} has an invalid routing manifest: {exc}") from exc
    tensors, _ = _read_tensors(reader)
    try:
        gate_w = tensors.pop("gate.w").reshape(-1)
        gate_b = float(tensors.pop("gate.b")[0, 0])
    except KeyError as exc:
        raise CorruptCheckpoint(f"{path} misses the gate records") from exc
    if gate_w.shape != (EMB_DIM,):
        raise CorruptCheckpoint(f"{path} has a gate of width {gate_w.shape}")
    factors = {}
    for name in sorted({n.rsplit(".", 1)[0] for n in tensors}):
        try:
            factors[name] = (tensors[f"{name}.down"], tensors[f"{name}.up"])
        except KeyError as exc:
            raise CorruptCheckpoint(f"{path} misses a factor for layer {name!r}") from exc
    stray = set(factors) - set(routing.side(kind_tag))
    if stray:
        raise CorruptCheckpoint(
            f"{path} carries factors outside its routed set: {sorted(stray)}"
        )
    return LoraAdapter(
        kind=kind_tag,
        rank=rank,
        factors=factors,
        gate_w=gate_w,
        gate_b=gate_b,
        routing=routing,
        host_hash=host_hash,
    )


_BRANCH_NAMES = ("identity", "content", "style")


def save_encoder(path, params):
    buf = io.BytesIO()
    buf.write(MAGIC)
    _w_u32(buf, VERSION)
    _w_u32(buf, KIND_CODES["encoder"])
    records = []
    branches = (params.identity_branch, params.content_branch, params.style_branch)
    for label, branch in zip(_BRANCH_NAMES, branches):
        records.append((f"branch_{label}.w1", branch.w1))
        records.append((f"branch_{label}.b1", branch.b1))
        records.append((f"branch_{label}.w2", branch.w2))
        records.append((f"branch_{label}.b2", branch.b2))
    records.append(("id_table", params.id_table))
    records.append(("head.w", params.head_w))
    records.append(("head.b", params.head_b))
    _w_u32(buf, len(records))
    for name, arr in records:
        _w_tensor(buf, name, arr)
    _finish(path, buf)


def load_encoder(path):
    reader, kind = _open(path)
    if kind != "encoder":
        raise CorruptCheckpoint(f"{path} holds a {kind} checkpoint, expected encoder")
    tensors, _ = _read_tensors(reader)
    try:
        branches = {
            label: MlpParams(
                w1=tensors[f"branch_{label}.w1"],
                b1=tensors[f"branch_{label}.b1"].reshape(-1),
                w2=tensors[f"branch_{label}.w2"],
                b2=tensors[f"branch_{label}.b2"].reshape(-1),
            )
            for label in _BRANCH_NAMES
        }
        return ExpertEncoderParams(
            identity_branch=branches["identity"],
            content_branch=branches["content"],
            style_branch=branches["style"],
            id_table=tensors["id_table"],
            head_w=tensors["head.w"],
            head_b=tensors["head.b"].reshape(-1),
        )
    except KeyError as exc:
        raise CorruptCheckpoint(f"{path} misses encoder record {exc}") from exc


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def inspect_checkpoint(path):
    """Structural summary after CRC validation; raises on corruption."""
    reader, kind = _open(path)
    summary = {"kind": kind, "version": VERSION, "crc_ok": True}
    if kind == "adapter":
        summary["adapter_kind"] = reader.text()
        summary["rank"] = reader.u32()
        summary["host_hash"] = reader.text()
        sides = []
        for _ in range(2):
            count = reader.u32()
            sides.append(tuple(reader.text() for _ in range(count)))
        overlap = set(sides[0]) & set(sides[1])
        if overlap:
            raise CorruptCheckpoint(f"{path} routing sets overlap: {sorted(overlap)}")
        summary["routing"] = {"content": sides[0], "style": sides[1]}
    tensors, order = _read_tensors(reader)
    summary["tensors"] = [(name, tensors[name].shape) for name in order]
    return summary
