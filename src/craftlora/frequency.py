"""Frequency-domain image decomposition on an orthonormal DCT-II basis.

Content is carried by low radial frequencies, style by the residual. The
normalized cutoff is measured as a fraction of the Nyquist radial frequency.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import BadCutoff, ShapeMismatch
from .validation import as_images

@functools.cache
def _dct_matrix(n):
    """The orthonormal DCT-II matrix C of size n, so that ``C @ v`` is the DCT
    of ``v``; built once per size and cached read-only."""
    k = np.arange(n)[:, None]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    mat[0] = np.sqrt(1.0 / n)
    mat.flags.writeable = False
    return mat


def dct2(x):
    """Orthonormal DCT-II over the last two axes, ``C_h @ x @ C_w^T``: one
    image or each of a stack."""
    return _dct_matrix(x.shape[-2]) @ x @ _dct_matrix(x.shape[-1]).T


def idct2(x):
    """Inverse of ``dct2``, ``C_h^T @ x @ C_w``."""
    return _dct_matrix(x.shape[-2]).T @ x @ _dct_matrix(x.shape[-1])


def radial_frequency(height, width):
    """Radial frequency of each DCT coefficient in units of Nyquist."""
    fy = np.arange(height) / height
    fx = np.arange(width) / width
    return np.hypot(fy[:, None], fx[None, :])


def gaussian_lowpass(img, sigma):
    """Gaussian low-pass: spectrum scaled by exp(-(f / (sigma * f_nyq))^2 / 2).

    ``img`` is one (H, W) image or an (N, H, W) stack filtered image by
    image. The DC coefficient is preserved exactly, so each output mean
    equals its input mean; constant images pass through unchanged, bit for
    bit.
    """
    img = as_images(img)
    if not 0.0 < sigma <= 1.0:
        raise BadCutoff(f"sigma must lie in (0, 1], got {sigma}")
    rho = radial_frequency(*img.shape[-2:])
    gain = np.exp(-0.5 * (rho / sigma) ** 2)
    gain[0, 0] = 1.0
    coeffs = dct2(img)
    coeffs *= gain
    out = idct2(coeffs)
    # a constant image is pure DC, where the filter is the identity
    constant = np.all(img == img[..., :1, :1], axis=(-2, -1))
    out[constant] = img[constant]
    return out


def style_residual(img, sigma):
    """High-frequency remainder ``img - gaussian_lowpass(img, sigma)``.

    Values are signed; together with the low-pass part it reconstructs the
    input exactly. Takes an image or a stack, like the low-pass.
    """
    img = as_images(img)
    return img - gaussian_lowpass(img, sigma)


@dataclass(frozen=True)
class FrequencyMask:
    """Binary radial mask over DCT coefficients.

    The mask cutoff is measured against the diagonal Nyquist frequency, so
    the open interval (0, 1) spans the whole spectrum: a low mask near 1
    keeps everything, a high mask near 1 keeps nothing. The low and high
    masks at the same cutoff partition the spectrum, so filtering with both
    and summing reproduces the input.
    """

    kind: str
    cutoff: float

    def __post_init__(self):
        if self.kind not in ("low", "high"):
            raise ValueError(f"mask kind must be 'low' or 'high', got {self.kind!r}")
        if not 0.0 < self.cutoff < 1.0:
            raise BadCutoff(f"cutoff must lie in (0, 1), got {self.cutoff}")

    def array(self, height, width):
        rho = radial_frequency(height, width) / np.sqrt(2.0)
        low = rho <= self.cutoff
        mask = low if self.kind == "low" else ~low
        return mask.astype(np.float64)


def freq_mask_filter(latent, mask):
    """Apply a binary frequency mask: ``idct2(mask * dct2(latent))``.

    ``latent`` is one (H, W) image or an (N, H, W) stack filtered image by
    image.
    """
    latent = as_images(latent, "latent")
    if not isinstance(mask, FrequencyMask):
        raise ShapeMismatch("mask must be a FrequencyMask")
    return idct2(mask.array(*latent.shape[-2:]) * dct2(latent))
