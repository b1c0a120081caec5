import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craftlora.exceptions import DegenerateInput, NumericalError, ShapeMismatch
from craftlora.linalg import householder_qr, project_out, qr_backward


def svd_rank(mat, threshold=1e-8):
    """Independent rank oracle."""
    if mat.size == 0:
        return 0
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > threshold))


def random_orthonormal(m, r, rng):
    q, _ = np.linalg.qr(rng.standard_normal((m, r)))
    return q[:, :r]


class TestHouseholderQr:
    def test_identity(self):
        q, r = householder_qr(np.eye(2))
        assert np.allclose(q, np.eye(2))
        assert np.allclose(r, np.eye(2))

    def test_single_column_hand_case(self):
        q, r = householder_qr(np.array([[3.0], [4.0]]))
        assert np.allclose(q, [[0.6], [0.8]])
        assert np.allclose(r, [[5.0]])

    def test_random_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((8, 3))
        q, r = householder_qr(b)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-10
        assert np.abs(q @ r - b).max() < 1e-9

    def test_sign_convention_nonnegative_diagonal(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            b = rng.standard_normal((6, 4))
            _, r = householder_qr(b)
            assert np.all(np.diag(r) >= 0.0)
            assert np.allclose(r, np.triu(r))

    def test_dependent_columns_dropped(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((7, 2))
        b = np.hstack([b, b[:, :1] + b[:, 1:]])
        q, r = householder_qr(b)
        assert q.shape == (7, 2)
        assert np.abs(q @ r - b).max() < 1e-9

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateInput):
            householder_qr(np.zeros((5, 3)))

    def test_rank_matches_svd_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(3, 12))
            r = int(rng.integers(1, m + 1))
            rank = int(rng.integers(1, r + 1))
            b = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, r))
            q, _ = householder_qr(b)
            assert q.shape[1] == svd_rank(b)


class TestQrBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((9, 4))
        probe = rng.standard_normal((9, 4))

        def loss(mat):
            q, _ = householder_qr(mat)
            return float(np.sum(probe * q))

        q, r = householder_qr(b)
        grad = qr_backward(q, r, probe)
        h = 1e-6
        for _ in range(30):
            i, j = rng.integers(0, 9), rng.integers(0, 4)
            bp = b.copy()
            bp[i, j] += h
            bm = b.copy()
            bm[i, j] -= h
            fd = (loss(bp) - loss(bm)) / (2 * h)
            assert abs(fd - grad[i, j]) <= 1e-4 * max(abs(fd), abs(grad[i, j]), 1e-8)

    def test_solve_matches_the_explicit_inverse(self):
        rng = np.random.default_rng(5)
        q, r = householder_qr(rng.standard_normal((12, 6)))
        grad_q = rng.standard_normal((12, 6))
        s = q.T @ grad_q
        m = q @ np.tril(s - s.T, -1) + grad_q - q @ s
        expected = m @ np.linalg.inv(r).T
        got = qr_backward(q, r, grad_q)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_rejects_trapezoidal_r(self):
        with pytest.raises(ShapeMismatch):
            qr_backward(np.eye(3, 2), np.ones((2, 3)), np.zeros((3, 2)))


class TestProjectOut:
    def test_full_subspace_annihilates(self):
        rng = np.random.default_rng(5)
        q = random_orthonormal(5, 5, rng)
        w = rng.standard_normal((5, 3))
        assert np.abs(project_out(w, q)[0]).max() < 1e-12

    def test_removed_component_is_gone(self):
        rng = np.random.default_rng(6)
        q = random_orthonormal(16, 4, rng)
        w = rng.standard_normal((16, 16))
        out, _ = project_out(w, q)
        assert np.abs(q.T @ out).max() < 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        q = random_orthonormal(12, 3, rng)
        w = rng.standard_normal((12, 8))
        once, _ = project_out(w, q)
        twice, _ = project_out(once, q)
        assert np.abs(twice - once).max() < 1e-12

    def test_projection_rank_bounded_by_subspace(self):
        rng = np.random.default_rng(8)
        q = random_orthonormal(10, 3, rng)
        w = rng.standard_normal((10, 10))
        removed = w - project_out(w, q)[0]
        assert svd_rank(removed) <= 3

    def test_non_orthonormal_basis_projects_its_householder_span(self):
        rng = np.random.default_rng(9)
        b = rng.uniform(-0.02, 0.02, (16, 5)) @ np.triu(rng.standard_normal((5, 5)) + 3.0)
        w = rng.standard_normal((16, 7))
        q, _ = householder_qr(b)
        out, (bk, k) = project_out(w, b)
        assert np.abs(out - (w - q @ (q.T @ w))).max() < 1e-12
        assert np.abs(k - np.linalg.inv(b.T @ b)).max() <= 1e-10 * np.abs(k).max()
        assert np.abs(bk - b @ k).max() <= 1e-12 * np.abs(bk).max()

    def test_stack_projects_each_member(self):
        rng = np.random.default_rng(10)
        stack = rng.standard_normal((2, 12, 3))
        w = rng.standard_normal((12, 5))
        out, (bk, k) = project_out(w, stack)
        assert out.shape == (2, 12, 5) and bk.shape == (2, 12, 3) and k.shape == (2, 3, 3)
        for i in range(2):
            alone, (bk_i, k_i) = project_out(w, stack[i])
            for got, want in ((out[i], alone), (bk[i], bk_i), (k[i], k_i)):
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_rank_deficient_basis_raises(self):
        # repeated columns, a nearly dependent column, and a zero basis
        with pytest.raises(NumericalError, match="^the basis lost rank$"):
            project_out(np.eye(3), np.full((3, 2), 0.9))
        rng = np.random.default_rng(11)
        b = rng.standard_normal((8, 3))
        b[:, 2] = 2.0 * b[:, 0] + 1e-9 * rng.standard_normal(8)
        with pytest.raises(NumericalError):
            project_out(np.eye(8), b)
        with pytest.raises(NumericalError):
            project_out(np.eye(8), np.zeros((8, 2)))

    @pytest.mark.parametrize(
        "w0, b, error",
        [
            (np.eye(3), np.zeros((3, 0)), r"shape \(3, 0\) cannot project w0 of shape \(3, 3\)"),
            (np.eye(3).tolist(), [[1.0], [2.0], [2.0]], None),
            (np.eye(3), np.ones((4, 2)), r"shape \(4, 2\) cannot project w0 of shape \(3, 3\)"),
        ],
        ids=["no-columns", "nested-lists", "row-mismatch"],
    )
    def test_input_forms(self, w0, b, error):
        # a shape the projection cannot take is a ShapeMismatch naming both
        # shapes, not a raw NumPy error; nested lists project as arrays
        if error is not None:
            with pytest.raises(ShapeMismatch, match=error):
                project_out(w0, b)
            return
        out, _ = project_out(w0, b)
        want, _ = project_out(np.array(w0), np.array(b))
        assert np.array_equal(out, want)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=20),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_qr_properties_hold_for_random_shapes(m, r, seed):
    r = min(r, m)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((m, r))
    q, rr = householder_qr(b)
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() < 1e-10
    assert np.abs(q @ rr - b).max() < 1e-9
