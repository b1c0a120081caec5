"""Binary checkpoint files for backbones, adapters and named tensor sets.

Layout (all integers unsigned 32-bit little-endian, strings length-prefixed
UTF-8, tensors row-major 32-bit little-endian floats):

    magic "CRFT" | version | kind
    [adapter only: kind tag, rank, host hash, routing manifest]
    tensor count | tensors (name, rows, cols, data) | CRC32 of all prior bytes

Kind codes: 0 backbone, 1 adapter, 3 tensor set; code 2 is retired and
reads as unknown. No bytes may follow the last tensor, an adapter factor
must have the header's rank, and a tensor holding a NaN or an infinity
makes the file corrupt. Tensors are widened to float64 on load and narrowed
with round-to-nearest on save, so a save/load round trip is bit-exact at
32-bit precision. The CRC is validated before anything is interpreted.
"""

import hashlib
import io
import os
import struct
import zlib

import numpy as np

from .adapters import KINDS, LayerRouting, LoraAdapter
from .denoiser import Backbone
from .exceptions import CorruptCheckpoint, RoutingViolation
from .prompts import EMB_DIM

MAGIC = b"CRFT"
VERSION = 1
KIND_CODES = {"backbone": 0, "adapter": 1, "tensors": 3}
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


def write_atomic(path, data):
    """Write ``data`` (bytes) to ``path`` without ever truncating a good file."""
    write_all_atomic([(path, data)])


def write_all_atomic(files):
    """Write each ``(path, data)`` pair of a list without ever truncating a
    good file.

    Each file's bytes go to a temporary file beside its target and are
    flushed to disk; only once every one is complete are they renamed over
    their targets, in order. On a failure before the renames every
    temporary file is removed and every target is left as it was.
    """
    tmps = []
    try:
        for path, data in files:
            tmps.append(f"{path}.{os.getpid()}.tmp")
            with open(tmps[-1], "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        for tmp, (path, _) in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _save(path, kind, records, header=b""):
    """Write a ``kind`` file: the magic, version and kind code, ``header``
    (the adapter's fields), the count and ``records`` of ``(name, array)``
    tensors, then the CRC, moved into place with ``write_atomic``."""
    records = list(records)
    buf = io.BytesIO()
    buf.write(MAGIC)
    _w_u32(buf, VERSION)
    _w_u32(buf, KIND_CODES[kind])
    buf.write(header)
    _w_u32(buf, len(records))
    for name, arr in records:
        _w_tensor(buf, name, arr)
    payload = buf.getvalue()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    write_atomic(path, payload + struct.pack("<I", crc))


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
        if not np.isfinite(arr).all():
            raise CorruptCheckpoint(f"{reader.path} has non-finite entries in tensor {name!r}")
        out[name] = arr
        order.append(name)
    if reader.pos != len(reader.blob):
        raise CorruptCheckpoint(f"{reader.path} has bytes after its last tensor")
    return out, order


def _load(path, kind, what):
    """The ``(name, array)`` tensors, in file order, of a ``kind`` file of
    the count-plus-tensors layout; another kind is ``CorruptCheckpoint``
    naming ``what`` was expected."""
    reader, found = _open(path)
    if found != kind:
        raise CorruptCheckpoint(f"{path} holds a {found} checkpoint, expected {what}")
    tensors, order = _read_tensors(reader)
    return [(name, tensors[name]) for name in order]


def save_backbone(path, backbone):
    _save(path, "backbone", backbone.items())


def load_backbone(path):
    return Backbone(_load(path, "backbone", "backbone"))


def save_tensor_set(path, tensors):
    """Generic named-tensor container with its own kind.

    Used for the trunk's sidecar bases file; order is preserved.
    """
    _save(path, "tensors", tensors)


def load_tensor_set(path):
    return _load(path, "tensors", "a tensor set")


def save_adapter(path, adapter):
    header = io.BytesIO()
    _w_str(header, adapter.kind)
    _w_u32(header, adapter.rank)
    _w_str(header, adapter.host_hash or "")
    for side in (adapter.routing.content, adapter.routing.style):
        _w_u32(header, len(side))
        for name in side:
            _w_str(header, name)
    records = []
    for name, (b, a) in adapter.factors.items():
        records.append((f"{name}.down", b))
        records.append((f"{name}.up", a))
    records.append(("gate.w", adapter.gate_w))
    records.append(("gate.b", np.array([[adapter.gate_b]])))
    _save(path, "adapter", records, header.getvalue())


def _read_adapter(reader):
    """Kind tag, rank, host hash, routing and tensors of an adapter file.

    Each is checked, and every factor must have the header's rank.
    """
    kind_tag = reader.text()
    if kind_tag not in KINDS:
        raise CorruptCheckpoint(f"{reader.path} has unknown adapter kind {kind_tag!r}")
    rank = reader.u32()
    host_hash = reader.text()
    sides = [tuple(reader.text() for _ in range(reader.u32())) for _ in range(2)]
    try:
        routing = LayerRouting(content=sides[0], style=sides[1])
    except RoutingViolation as exc:
        raise CorruptCheckpoint(f"{reader.path} has an invalid routing manifest: {exc}") from exc
    tensors, order = _read_tensors(reader)
    for name in order:
        # the rank is the down factor's column count and the up factor's row count
        axis = {"down": 1, "up": 0}.get(name.rsplit(".", 1)[-1])
        if axis is not None and tensors[name].shape[axis] != rank:
            raise CorruptCheckpoint(
                f"{reader.path} has factor {name!r} of shape {tensors[name].shape}, "
                f"not of its rank {rank}"
            )
    return kind_tag, rank, host_hash, routing, tensors, order


def load_adapter(path):
    reader, kind = _open(path)
    if kind != "adapter":
        raise CorruptCheckpoint(f"{path} holds a {kind} checkpoint, expected adapter")
    kind_tag, rank, host_hash, routing, tensors, _ = _read_adapter(reader)
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
        kind_tag, rank, host_hash, routing, tensors, order = _read_adapter(reader)
        summary["adapter_kind"] = kind_tag
        summary["rank"] = rank
        summary["host_hash"] = host_hash
        summary["routing"] = {"content": routing.content, "style": routing.style}
    else:
        tensors, order = _read_tensors(reader)
    summary["tensors"] = [(name, tensors[name].shape) for name in order]
    return summary
