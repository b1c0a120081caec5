"""Binary PGM (P5) image files, 16-bit big-endian samples.

Stored samples span [0, 1] of the quantization range; images are clipped to
[0, 1] on save.
"""

import hashlib

import numpy as np

from .exceptions import CorruptCheckpoint
from .validation import as_image

MAXVAL = 65535


def pgm_bytes(img):
    """The P5 file of ``img`` clipped to [0, 1], quantized into 16-bit gray."""
    img = as_image(img)
    samples = np.round(np.clip(img, 0.0, 1.0) * MAXVAL).astype(">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n{MAXVAL}\n"
    return header.encode("ascii") + samples.tobytes()


def read_pgm(path, sha256=None):
    """Read a P5 file back into float64 in [0, 1]; header comments are skipped.

    With ``sha256``, a hex digest, a file that does not hash to it is
    corrupt.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if sha256 is not None and hashlib.sha256(blob).hexdigest() != sha256:
        raise CorruptCheckpoint(f"{path} does not match its SHA-256 checksum")
    try:
        fields = []
        pos = 0
        while len(fields) < 4:
            end = blob.index(b"\n", pos)
            line = blob[pos:end].decode("ascii")
            pos = end + 1
            if not line.startswith("#"):
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
    except (ValueError, IndexError) as exc:
        raise CorruptCheckpoint(f"{path} is not a valid PGM: {exc}") from exc
    return samples.astype(np.float64) / MAXVAL
