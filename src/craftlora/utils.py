"""Seeding and scheduling helpers shared by every pipeline stage."""

import hashlib
import math

import numpy as np

from .exceptions import NumericalError

# A training loss this many times its first value has diverged; desk runs
# stay within 4x of their first loss.
DIVERGENCE_FACTOR = 1e3


def derive_seed(base, *labels):
    """Stable 64-bit seed from a base seed and a chain of string labels.

    Uses SHA-256 so the mapping is identical across platforms and runs
    (Python's builtin hash is salted per process and unusable here).
    """
    h = hashlib.sha256()
    h.update(str(int(base)).encode("utf-8"))
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed, *labels):
    """Counter-based generator (Philox) so trajectories replay exactly."""
    if labels:
        seed = derive_seed(seed, *labels)
    return np.random.Generator(np.random.Philox(key=int(seed)))


def lr_at(step, total, peak, start, floor, warmup):
    """Warm-up then cosine decay.

    Value at step 0 is ``start``, at the end of warm-up ``peak``, then a
    monotone cosine decay down to ``floor`` at ``total``.
    """
    if warmup > 0 and step < warmup:
        return start + (peak - start) * (step / warmup)
    if total <= warmup:
        return peak
    u = (step - warmup) / (total - warmup)
    u = min(max(u, 0.0), 1.0)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * u))


def check_loss(loss, history, stage):
    """Raise ``NumericalError`` when a step's loss is non-finite or exceeds
    ``DIVERGENCE_FACTOR`` times the first loss in ``history``."""
    if not math.isfinite(loss) or (history and loss > DIVERGENCE_FACTOR * history[0]):
        raise NumericalError(f"{stage} loss diverged at step {len(history)}")


class EvalCounter:
    """Counts network forward evaluations for the two-pass cost contract."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def bump(self):
        self.count += 1
