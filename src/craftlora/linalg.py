"""Dense linear algebra primitives: QR, its backward pass, and orthogonal projection.

QR is NumPy's LAPACK Householder factorization (``geqrf``) with a
dependent-column drop rule on top. All arithmetic is 64-bit. Every function
is pure, so concurrent use is safe.
"""

import numpy as np

from .exceptions import DegenerateInput, NumericalError, ShapeMismatch
from .validation import as_matrix

# Columns whose residual falls below this fraction of the largest input
# column norm are treated as linearly dependent and dropped.
DROP_TOL_FACTOR = 1e-10

# The same test on the Cholesky pivots of a Gram matrix B^T B. Forming B^T B
# rounds at eps times the squared column norms, so a pivot of an exactly
# dependent column comes out near sqrt(eps) ~ 1.5e-8 of the largest column
# norm rather than near eps; the tolerance sits well above that level.
GRAM_PIVOT_TOL_FACTOR = 1e-6


def householder_qr(b):
    """Reduced QR with dependent-column dropping, on LAPACK's Householder QR.

    Returns ``(q, r)`` with ``q`` of shape ``(m, k)`` carrying orthonormal
    columns and ``r = q^T b`` of shape ``(k, n)``, upper trapezoidal to
    within the drop tolerance, ``k <= n`` after dropping columns that are
    numerically in the span of earlier ones. Scanning left to right, the
    first column whose pivot |r_jj| falls below ``DROP_TOL_FACTOR`` times
    the largest column norm is dropped and the rest are factored again,
    until no pivot is below it; a column's pivot is then its residual
    against the kept columns before it. Once m columns are kept, the later
    ones only carry coefficients. Column signs are flipped so that every
    pivot of ``r`` is nonnegative, which makes the output deterministic
    across platforms.

    Raises DegenerateInput when every column is numerically zero.
    """
    b = as_matrix(b, "b")
    m, n = b.shape
    if n == 0:
        return np.zeros((m, 0)), np.zeros((0, 0))
    scale = np.sqrt(np.einsum("ij,ij->j", b, b)).max()
    if scale == 0.0:
        raise DegenerateInput("every column of b is zero")
    kept = np.arange(n)
    while True:
        q, r = np.linalg.qr(b[:, kept])
        pivots = np.diagonal(r)
        small = np.flatnonzero(np.abs(pivots) < DROP_TOL_FACTOR * scale)
        if small.size == 0:
            break
        kept = np.delete(kept, small[0])
    q *= np.sign(pivots)
    return q, q.T @ b


def qr_backward(q, r, grad_q):
    """Pull a gradient w.r.t. ``q`` back to the QR input.

    Valid only for full-column-rank factorizations (no dropped columns);
    ``q`` is (m, k), ``r`` is (k, k) upper triangular. The loss may depend on
    ``q`` alone, which is all the projection training needs.
    """
    q = as_matrix(q, "q")
    r = as_matrix(r, "r")
    grad_q = as_matrix(grad_q, "grad_q")
    k = q.shape[1]
    if r.shape != (k, k):
        raise ShapeMismatch(
            f"qr_backward needs a square r for a full-rank factorization, got {r.shape}"
        )
    if grad_q.shape != q.shape:
        raise ShapeMismatch(f"grad_q shape {grad_q.shape} does not match q {q.shape}")
    if k == 0:
        return np.zeros((q.shape[0], 0))
    s = q.T @ grad_q
    p = np.tril(s - s.T, -1)
    m = q @ p + grad_q - q @ s
    # right-multiply by r^{-T}: (m r^{-T}) = (r^{-1} m^T)^T; r is upper
    # triangular, so the LU of the solve makes no row swaps
    return np.linalg.solve(r, m.T).T


def project_out(w0, b):
    """Remove the span of the basis ``b`` from ``w0``: W0 - B K B^T W0.

    ``b`` is an (m, r) basis of full column rank, orthonormal or not, or a
    (k, m, r) stack of them, and the result is then the (k, m, n) stack of
    ``w0`` projected by each. With G = B^T B and K = G^-1 from G's Cholesky
    factor, the projected weights are W0 - (B K)(B^T W0); they come back
    with the ``(B K, K)`` pair that the basis gradient reuses. The Cholesky
    pivots are the QR pivots |diag(R)| of B, but they carry the rounding of
    forming G; a pivot below ``GRAM_PIVOT_TOL_FACTOR`` times the largest
    column norm, or a Gram matrix the factorization rejects, means the
    basis lost rank and raises ``NumericalError``. A zero or non-finite
    basis fails the same check. A basis with no columns, or with a row
    count unlike ``w0``'s, raises ``ShapeMismatch``.
    """
    w0, b = np.asarray(w0), np.asarray(b)
    if min(w0.ndim, b.ndim) < 2 or b.shape[-1] == 0 or b.shape[-2] != w0.shape[-2]:
        raise ShapeMismatch(
            f"a basis of shape {b.shape} cannot project w0 of shape {w0.shape}: "
            "it needs at least one column and w0's row count"
        )
    gram = b.swapaxes(-1, -2) @ b
    tol = GRAM_PIVOT_TOL_FACTOR * np.sqrt(np.diagonal(gram, 0, -2, -1).max(axis=-1))
    try:
        chol = np.linalg.cholesky(gram)
        pivots = np.diagonal(chol, 0, -2, -1).min(axis=-1)
    except np.linalg.LinAlgError:
        pivots = None
    if pivots is None or not np.all((pivots >= tol) & (tol > 0.0)):
        raise NumericalError("the basis lost rank")
    chol_inv = np.linalg.inv(chol)
    k = chol_inv.swapaxes(-1, -2) @ chol_inv
    bk = b @ k
    return w0 - bk @ (b.swapaxes(-1, -2) @ w0), (bk, k)
