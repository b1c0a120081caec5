"""Binary PGM (P5) image files, 16-bit big-endian samples.

Stored samples always lie in [0, 1] of the quantization range; signed data
(for example style residuals) travels through an offset/scale comment in the
header so the original values round-trip.
"""

import hashlib

import numpy as np

from .exceptions import CorruptCheckpoint
from .validation import as_image

MAXVAL = 65535
_COMMENT_PREFIX = "# craftlora"


def pgm_bytes(img, offset=0.0, scale=1.0):
    """The P5 file of ``(img - offset) / scale``, quantized into 16-bit gray.

    With the default identity mapping the image is clipped to [0, 1] first.
    """
    img = as_image(img)
    data = (img - offset) / scale
    data = np.clip(data, 0.0, 1.0)
    samples = np.round(data * MAXVAL).astype(">u2")
    header = ["P5"]
    if offset != 0.0 or scale != 1.0:
        header.append(f"{_COMMENT_PREFIX} offset={offset!r} scale={scale!r}")
    header.append(f"{img.shape[1]} {img.shape[0]}")
    header.append(str(MAXVAL))
    return ("\n".join(header) + "\n").encode("ascii") + samples.tobytes()


def read_pgm(path, sha256=None):
    """Read a P5 file back into float64, applying any offset/scale comment.

    With ``sha256``, a hex digest, a file that does not hash to it is
    corrupt.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
        raise CorruptCheckpoint(f"{path} does not match its SHA-256 checksum")
    try:
        fields = []
        offset_scale = (0.0, 1.0)
        pos = 0
        while len(fields) < 4:
            end = blob.index(b"\n", pos)
            line = blob[pos:end].decode("ascii")
            pos = end + 1
            if line.startswith("#"):
                if line.startswith(_COMMENT_PREFIX):
                    parts = dict(p.split("=", 1) for p in line.split()[2:])
                    offset_scale = (float(parts["offset"]), float(parts["scale"]))
                continue
            fields.extend(line.split())
        if fields[0] != "P5":
            raise CorruptCheckpoint(f"{path} is not a binary PGM")
        width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
        if maxval != MAXVAL:
            raise CorruptCheckpoint(f"{path} has maxval {maxval}, expected {MAXVAL}")
        expected = width * height * 2
        payload = blob[pos:pos + expected]
        if len(payload) != expected:
            raise CorruptCheckpoint(f"{path} is truncated")
        samples = np.frombuffer(payload, dtype=">u2").reshape(height, width)
    except (ValueError, KeyError, IndexError) as exc:
        raise CorruptCheckpoint(f"{path} is not a valid PGM: {exc}") from exc
    off, scale = offset_scale
    return samples.astype(np.float64) / MAXVAL * scale + off
