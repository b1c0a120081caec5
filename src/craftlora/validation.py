"""Input validation helpers used at the public surfaces."""

import numpy as np

from .exceptions import OutOfRange, ShapeMismatch


def float_dtype(*arrays):
    """The dtype a computation on ``arrays`` runs in: float32 when every
    one is a float32 array, else float64."""
    return np.float32 if all(a.dtype == np.float32 for a in arrays) else np.float64


def as_matrix(x, name="matrix"):
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_images(x, name="images"):
    """Coerce to a finite float64 image (H, W) or stack (N, H, W); no axis empty."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except ValueError as exc:  # images of different shapes, or not numbers
        raise ShapeMismatch(f"{name} is not one numeric array: {exc}") from exc
    if arr.ndim not in (2, 3) or 0 in arr.shape:
        raise ShapeMismatch(f"{name} must be (H, W) or (N, H, W), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_image(x, name="image"):
    """``as_images`` restricted to one (H, W) image."""
    arr = as_images(x, name)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be one (H, W) image, got shape {arr.shape}")
    return arr


def check_same_shape(a, b, name_a="a", name_b="b"):
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"{name_a} has shape {a.shape} but {name_b} has shape {b.shape}"
        )


def as_timestep(t):
    """``t`` as a Python int; a bool or a non-integer raises ``OutOfRange``."""
    if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
        raise OutOfRange(f"t must be an integer timestep, got {t!r}")
    return int(t)
