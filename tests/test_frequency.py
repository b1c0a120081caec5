import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora.exceptions import BadCutoff
from craftlora.frequency import (
    FrequencyMask,
    _dct_matrix,
    dct2,
    freq_mask_filter,
    gaussian_lowpass,
    idct2,
    style_residual,
)

PAPER_SIGMAS = (0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def dct_basis(n):
    """Orthonormal DCT-II matrix, row by row."""
    mat = np.zeros((n, n))
    for k in range(n):
        scale = np.sqrt((1.0 if k == 0 else 2.0) / n)
        mat[k] = scale * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n))
    return mat


def dct2_oracle(x):
    """Orthonormal DCT-II of one image as basis products."""
    h, w = x.shape
    return dct_basis(h) @ x @ dct_basis(w).T


def dct_coefficient(x, k, l):
    """X[k, l] of one image as the direct double cosine sum, independent of
    any basis matrix."""
    h, w = x.shape
    c_k = math.sqrt((1.0 if k == 0 else 2.0) / h)
    c_l = math.sqrt((1.0 if l == 0 else 2.0) / w)
    total = 0.0
    for y in range(h):
        for x_ in range(w):
            total += (
                x[y, x_]
                * math.cos(math.pi * k * (2 * y + 1) / (2 * h))
                * math.cos(math.pi * l * (2 * x_ + 1) / (2 * w))
            )
    return c_k * c_l * total


class TestDct:
    @staticmethod
    def coefficients(h, w):
        # DC, the highest-frequency corner and an interior coefficient
        return [(0, 0), (h - 1, w - 1), (h // 2 - 1, w // 3 + 1)]

    def test_single_image_matches_the_cosine_sum(self):
        img = np.random.default_rng(10).random((16, 16))
        coeffs = dct2(img)
        for k, l in self.coefficients(16, 16):
            assert abs(coeffs[k, l] - dct_coefficient(img, k, l)) < 1e-12

    def test_each_image_of_a_stack_matches_the_cosine_sum(self):
        stack = np.random.default_rng(11).random((3, 8, 12))
        coeffs = dct2(stack)
        assert coeffs.shape == stack.shape
        for img, img_coeffs in zip(stack, coeffs):
            for k, l in self.coefficients(8, 12):
                assert abs(img_coeffs[k, l] - dct_coefficient(img, k, l)) < 1e-12

    def test_round_trip(self):
        stack = np.random.default_rng(12).random((3, 8, 12))
        assert np.abs(idct2(dct2(stack)) - stack).max() < 1e-12
        img = stack[0]
        assert np.abs(dct2(idct2(img)) - img).max() < 1e-12

    def test_cached_matrix_refuses_writes(self):
        mat = _dct_matrix(8)
        assert _dct_matrix(8) is mat
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def low_mask_filter(img, cutoff):
    return freq_mask_filter(img, FrequencyMask("low", cutoff))


class TestGaussianLowpass:
    def test_constant_image_unchanged(self):
        img = np.full((16, 16), 0.375)
        out = gaussian_lowpass(img, 0.35)
        assert np.array_equal(out, img)
        # a constant row of a stack passes through bit for bit too
        stack = np.random.default_rng(8).random((3, 16, 16))
        stack[1] = 0.1
        out = gaussian_lowpass(stack, 0.35)
        assert out[1].tobytes() == stack[1].tobytes()
        assert not np.array_equal(out[0], stack[0])

    @pytest.mark.parametrize("fn", [gaussian_lowpass, style_residual, low_mask_filter])
    def test_stack_equals_one_image_at_a_time(self, fn):
        stack = np.random.default_rng(9).random((5, 12, 20))
        stack[2] = 0.5
        single = np.stack([fn(img, 0.35) for img in stack])
        assert fn(stack, 0.35).tobytes() == single.tobytes()

    def test_partition_reconstructs(self):
        rng = np.random.default_rng(0)
        img = rng.random((16, 16))
        for sigma in PAPER_SIGMAS:
            total = gaussian_lowpass(img, sigma) + style_residual(img, sigma)
            assert np.abs(total - img).max() < 1e-9

    def test_mean_preserved(self):
        rng = np.random.default_rng(1)
        img = rng.random((12, 20))
        out = gaussian_lowpass(img, 0.35)
        assert abs(out.mean() - img.mean()) < 1e-9

    def test_nyquist_checkerboard_collapses_to_mean(self):
        # In the DCT domain the alternating pattern is not a single bin, so
        # the collapse is measured in energy: the filter removes 99.9% of
        # the AC energy (oracle value 6.04e-4); pointwise leakage stays at
        # the corners below 0.1.
        idx = np.arange(16)
        img = ((idx[:, None] + idx[None, :]) % 2).astype(float)
        out = gaussian_lowpass(img, 0.35)
        ac_in = float(np.sum((img - img.mean()) ** 2))
        ac_out = float(np.sum((out - img.mean()) ** 2))
        assert ac_out < 1e-3 * ac_in
        assert np.abs(out - img.mean()).max() < 0.1

    def test_transform_domain_oracle(self):
        # gain applied per coefficient, checked against the direct DCT
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        out = gaussian_lowpass(img, 0.4)
        fy = np.arange(8) / 8.0
        rho = np.hypot(fy[:, None], fy[None, :])
        gain = np.exp(-0.5 * (rho / 0.4) ** 2)
        gain[0, 0] = 1.0
        expected_coeffs = gain * dct2_oracle(img)
        assert np.abs(dct2_oracle(out) - expected_coeffs).max() < 1e-10

    def test_bad_cutoff(self):
        img = np.zeros((4, 4))
        for sigma in (0.0, -0.1, 1.5):
            with pytest.raises(BadCutoff):
                gaussian_lowpass(img, sigma)


class TestStyleResidual:
    def test_constant_image_zero_residual(self):
        img = np.full((16, 16), 0.2)
        res = style_residual(img, 0.35)
        assert float(np.sum(res * res)) == 0.0

    def test_definitional_reconstruction(self):
        rng = np.random.default_rng(3)
        img = rng.random((16, 16))
        res = style_residual(img, 0.35)
        low = gaussian_lowpass(img, 0.35)
        assert np.abs(res + low - img).max() < 1e-12

    def test_low_frequency_sinusoid_mostly_passes(self):
        n = 16
        xx = np.arange(n)
        img = 0.5 + 0.4 * np.sin(2 * np.pi * xx / n)[None, :] * np.ones((n, 1))
        res = style_residual(img, 0.35)
        centered = img - img.mean()
        assert float(np.sum(res * res)) < 0.05 * float(np.sum(centered * centered))

    def test_residual_energy_nonincreasing_in_sigma(self):
        rng = np.random.default_rng(4)
        img = rng.random((16, 16))
        energies = [float(np.sum(style_residual(img, s) ** 2)) for s in PAPER_SIGMAS]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))


class TestFrequencyMask:
    def test_partition_of_unity(self):
        low = FrequencyMask("low", 0.3).array(16, 16)
        high = FrequencyMask("high", 0.3).array(16, 16)
        assert np.array_equal(low + high, np.ones((16, 16)))

    def test_all_ones_mask_is_identity(self):
        mask = FrequencyMask("low", 0.99)
        assert np.array_equal(mask.array(16, 16), np.ones((16, 16)))
        rng = np.random.default_rng(5)
        img = rng.random((16, 16))
        assert np.abs(freq_mask_filter(img, mask) - img).max() < 1e-12

    def test_low_plus_high_filters_sum_to_input(self):
        rng = np.random.default_rng(6)
        img = rng.random((16, 16))
        out = freq_mask_filter(img, FrequencyMask("low", 0.35)) + freq_mask_filter(
            img, FrequencyMask("high", 0.35)
        )
        assert np.abs(out - img).max() < 1e-9

    def test_delta_image_truncation_against_direct_dct(self):
        img = np.zeros((4, 4))
        img[1, 2] = 1.0
        out = freq_mask_filter(img, FrequencyMask("low", 0.5))
        coeffs = dct2_oracle(img)
        fy = np.arange(4) / 4.0
        rho = np.hypot(fy[:, None], fy[None, :]) / np.sqrt(2.0)
        keep = (rho <= 0.5).astype(float)
        expected = dct_basis(4).T @ (keep * coeffs) @ dct_basis(4)
        assert np.abs(out - expected).max() < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.random((8, 8))
        y = rng.random((8, 8))
        mask = FrequencyMask("high", 0.4)
        lhs = freq_mask_filter(2.5 * x - 1.25 * y, mask)
        rhs = 2.5 * freq_mask_filter(x, mask) - 1.25 * freq_mask_filter(y, mask)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_cutoff_validation(self):
        with pytest.raises(BadCutoff):
            FrequencyMask("low", 1.0)
        with pytest.raises(BadCutoff):
            FrequencyMask("high", 0.0)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FrequencyMask("band", 0.5)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    sigma=st.sampled_from(PAPER_SIGMAS),
    h=st.integers(min_value=4, max_value=24),
    w=st.integers(min_value=4, max_value=24),
)
def test_partition_property(seed, sigma, h, w):
    img = np.random.default_rng(seed).random((h, w))
    total = gaussian_lowpass(img, sigma) + style_residual(img, sigma)
    assert np.abs(total - img).max() < 1e-9
