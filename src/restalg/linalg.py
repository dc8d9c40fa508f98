"""Dense linear-algebra backends: spectral norm by a Hermitian
eigensolve on M*M, of one matrix or of a stack at once (with LAPACK SVD
as the independent cross-check),
min over scalars c of ||A + cP|| for a rank-one projection P in closed
form (Parrott's theorem), column rank from the singular values, and
Haar-random unitaries."""

from __future__ import annotations

import numpy as np


def op_norm(mat):
    """Largest singular value of a dense matrix: the square root of the
    top eigenvalue of the Hermitian Gram matrix M*M (LAPACK eigensolver);
    the one-matrix case of op_norms."""
    M = np.asarray(mat, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    return float(op_norms(M[None])[0])


def op_norms(stack):
    """op_norm of every matrix of a (B, m, k) stack, with one stacked
    eigensolve over the (B, k, k) Gram matrices; each value is bitwise the
    one its matrix gives alone."""
    M = np.asarray(stack, dtype=np.complex128)
    if M.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if M.size == 0:
        return np.zeros(M.shape[0])
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    top = np.linalg.eigvalsh(np.conj(M).transpose(0, 2, 1) @ M)[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def svd_op_norm(mat):
    """Largest singular value straight from LAPACK; used as the
    independent backend in cross-checks."""
    M = np.asarray(mat, dtype=np.complex128)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def column_rank(cols, rel_tol=1e-9):
    """Numerical column rank: the number of singular values (LAPACK SVD)
    above rel_tol times the largest."""
    A = np.asarray(cols)
    if A.ndim != 2 or A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0]))


def haar_unitary(dim, rng):
    """A Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def min_shift_norm(A, P):
    """min over complex c of ||A + c P||, in closed form.

    Parrott's theorem (On a quotient norm and the Sz.-Nagy-Foias lifting
    theorem, J. Funct. Anal. 30, 1978): when P is a rank-one orthogonal
    projection, the minimum is max(||(I - P) A||, ||A (I - P)||).  That
    is the one premise; P need not commute with A.  Both norms are
    LAPACK SVDs.
    """
    return max(svd_op_norm(A - P @ A), svd_op_norm(A - A @ P))
