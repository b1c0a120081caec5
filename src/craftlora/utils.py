"""Seeding and scheduling helpers shared by every pipeline stage."""

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor

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


def standard_normal_rows(rngs, width):
    """An (n, width) array whose row i holds the next ``width`` standard
    normals of ``rngs[i]``, exactly what a single draw of that size takes."""
    out = np.empty((len(rngs), width))
    for gen, row in zip(rngs, out):
        gen.standard_normal(out=row)
    return out


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


def train_loop(stage, rates, steps, step, optimizer):
    """Run ``steps`` training steps and return the per-step loss history.

    Each step calls ``step()`` for ``(loss, grads)`` and then the Adam
    ``optimizer.step(grads, lr)`` at the warm-up cosine rate ``lr_at`` of
    ``rates`` (its ``peak_lr``, ``start_lr``, ``floor_lr`` and ``warmup``).
    A loss that is non-finite or exceeds ``DIVERGENCE_FACTOR`` times the
    first raises ``NumericalError`` before its update. Each loss sees the
    updates before it but not the last, so after the loop
    ``optimizer.flat`` must be finite, or ``NumericalError``. Overflow in
    the loop is silenced, so a float32 fit whose loss or parameters leave
    float32's range reaches those checks instead of warning.
    """
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            loss, grads = step()
            if not math.isfinite(loss) or (history and loss > DIVERGENCE_FACTOR * history[0]):
                raise NumericalError(f"{stage} loss diverged at step {i}")
            history.append(loss)
            lr = lr_at(i, steps, rates.peak_lr, rates.start_lr, rates.floor_lr, rates.warmup)
            optimizer.step(grads, lr)
    if not np.isfinite(optimizer.flat).all():
        raise NumericalError(f"{stage} parameters are non-finite after the last update")
    return history


def run_row_blocks(fn, n_rows, threads=1):
    """Concatenated results of ``fn(start, stop)`` over contiguous row blocks.

    The rows split evenly into ``threads`` blocks, never into blocks of
    fewer than two rows; with ``threads > 1`` the blocks run on a thread
    pool. A batched row's arithmetic does not depend on how many other rows
    share its batch once there are two or more (a batch of one rounds
    differently), so the block count never changes the result.
    """
    n_blocks = max(1, min(threads, n_rows // 2))
    bounds = [n_rows * k // n_blocks for k in range(n_blocks + 1)]
    blocks = list(zip(bounds[:-1], bounds[1:]))
    if threads > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=min(threads, n_blocks)) as pool:
            return np.concatenate(list(pool.map(lambda block: fn(*block), blocks)))
    return np.concatenate([fn(start, stop) for start, stop in blocks])

