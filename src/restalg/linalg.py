"""Dense linear-algebra backends, each of one matrix or of a stack at
once: spectral norm by a Hermitian eigensolve on M*M, and by LAPACK SVD
as the independent cross-check, taken block by block over the connected
components of the matrix's own zero pattern; min over scalars c of
||A + cP|| for a rank-one projection P in closed form (Parrott's
theorem); and column rank from the singular values."""

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


# Matrices with fewer rows or columns than this take one dense SVD: the
# component search does not pay for itself below it.  Measured with one
# BLAS thread (timeit, best of 7, 2 shared vCPUs, numpy 2.4.6) on random
# complex block-diagonal matrices (blocks of 1 to 24) with permuted rows
# and columns, split against dense: 241 us against 209 us at n = 48, 281
# against 386 at n = 64, 355 against 667 at n = 82, 0.9 ms against
# 6.0 ms at n = 209; on I3's lambda_r (n = 34) 157 us against 48 us, on
# I4's (n = 209) 0.7 ms against 4.6 ms: the crossover lies between 48
# and 64.
SPLIT_MIN_DIM = 64


def svd_op_norm(mat):
    """Largest singular value by LAPACK SVD; the independent backend in
    cross-checks, and the one-matrix case of svd_op_norms."""
    M = np.asarray(mat, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    return float(svd_op_norms(M[None])[0])


def svd_op_norms(stack):
    """svd_op_norm of every matrix of a (B, m, k) stack; each value is
    bitwise the one its matrix gives alone.

    Below SPLIT_MIN_DIM rows or columns the stack takes one stacked
    LAPACK SVD.  From it on, each matrix is split into the connected
    components of the bipartite graph of its nonzero entries
    (pattern_blocks) and its value is the largest singular value over
    the components: row and column permutations are unitary and the norm
    of a direct sum is the largest norm of its parts.  The blocks come
    from the entries alone, every component is taken, and the values are
    singular values, not eigenvalues of a Gram matrix, so this route
    shares nothing with the block norms of restalg.cstar.
    """
    M = np.ascontiguousarray(stack, dtype=np.complex128)
    if M.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if M.size == 0:
        return np.zeros(M.shape[0])
    if min(M.shape[1:]) < SPLIT_MIN_DIM:
        return _svd_tops(M)
    # a NaN or an infinity is nonzero, so some block holds it
    return np.array([max((_svd_tops(b).max() for b in pattern_blocks(A)), default=0.0) for A in M])


def _svd_tops(M):
    """The largest singular value of every matrix of a contiguous (B, m, k)
    stack, by one stacked LAPACK SVD of finite entries."""
    # the float64 view tests both parts at once
    if not np.isfinite(M.view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(M, compute_uv=False)[:, 0]


def _pattern_labels(nonzero):
    """A component label per row and per column of an (m, k) boolean
    pattern, as one array of length m + k (rows first): two of them share
    a label exactly when a path of True entries joins them.

    Hook and compress over the edges np.nonzero(nonzero), O(nnz) a
    round: every label is a node of its own component and at most the
    node itself.  Each round lowers the label of the root each edge end
    points at to the smaller of the two ends' labels, then follows labels
    until every node points at a root (a node labelled with itself).  It
    stops when both ends of every edge carry the same label.
    """
    m, k = nonzero.shape
    # flatnonzero and divmod: several times faster than a 2-D np.nonzero
    rows, cols = np.divmod(np.flatnonzero(nonzero), k)
    ends = (rows, cols + m)
    labels = np.arange(m + k)
    while True:
        a, b = labels[ends[0]], labels[ends[1]]
        if np.array_equal(a, b):
            return labels
        low = np.minimum(a, b)
        np.minimum.at(labels, a, low)
        np.minimum.at(labels, b, low)
        while not np.array_equal(nxt := labels[labels], labels):
            labels = nxt


def pattern_blocks(M):
    """The connected components of M's nonzero pattern (_pattern_labels) as
    (q, a, b) stacks, one per component shape in the order of (a, b):
    entry [i] of a stack is M restricted to the a rows and b columns of
    one component, in their order in M, and the components of one shape
    come in the order of their labels.  Rows and columns with no nonzero
    entry are left out; together the blocks hold every nonzero entry of M
    once.  A matrix with no zero entry is one component, and one with at
    most one nonzero entry per row and per column is one (q, 1, 1)
    stack of them in row order; both are taken without the search."""
    M = np.ascontiguousarray(M, dtype=np.complex128)
    m, k = M.shape
    # an entry is nonzero when either part is: the float64 view's test,
    # paired up through a 2-byte view, is several times faster than M != 0
    nonzero = (M.view(np.float64) != 0).view(np.uint16) != 0
    if nonzero.all():
        yield M[None]
        return
    # at most one nonzero per row (the entries come row by row) and per
    # column: each entry is a component of its own, labelled by its row
    at = np.flatnonzero(nonzero)
    rows, cols = np.divmod(at, k)
    if (rows[1:] != rows[:-1]).all() and np.bincount(cols, minlength=k).max() <= 1:
        if at.size:
            yield M.reshape(-1)[at].reshape(-1, 1, 1)
        return
    labels = _pattern_labels(nonzero)
    # rows and columns per label; a label with both is a component, and
    # an empty row or column is a label of its own with no partner
    row_count = np.bincount(labels[:m], minlength=m + k)
    col_count = np.bincount(labels[m:], minlength=m + k)
    comps = np.flatnonzero((row_count > 0) & (col_count > 0))
    if not comps.size:
        return
    # stable sorts keep each component's rows and columns in their order
    rows = np.argsort(labels[:m], kind="stable")
    cols = np.argsort(labels[m:], kind="stable")
    row_start = (np.cumsum(row_count) - row_count)[comps]
    col_start = (np.cumsum(col_count) - col_count)[comps]
    a_of, b_of = row_count[comps], col_count[comps]
    # b <= k, so a (k + 1) + b sorts like the pair (a, b)
    key = a_of * (k + 1) + b_of
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order])) + 1
    for hit in np.split(order, bounds):
        a, b = int(a_of[hit[0]]), int(b_of[hit[0]])
        R = rows[row_start[hit, None] + np.arange(a)]
        C = cols[col_start[hit, None] + np.arange(b)]
        yield M[R[:, :, None], C[:, None, :]]


def column_rank(cols, rel_tol=1e-9):
    """Numerical column rank: the number of singular values (LAPACK SVD)
    above rel_tol times the largest."""
    A = np.asarray(cols)
    if A.ndim != 2 or A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0]))


def min_shift_norms(A, P):
    """min over complex c of ||A_b + c P|| for every matrix of a (B, n, n)
    stack A and one P, in closed form; each value is bitwise the one its
    matrix gives alone.

    Parrott's theorem (On a quotient norm and the Sz.-Nagy-Foias lifting
    theorem, J. Funct. Anal. 30, 1978): when P is a rank-one orthogonal
    projection, the minimum is max(||(I - P) A||, ||A (I - P)||).  That
    is the one premise; P need not commute with A.  It also gives
    P = P[:, j] P[j, :] / P[j, j] at the largest diagonal entry j, so P A
    and A P are outer products.  Both norms are svd_op_norms.
    """
    j = int(np.argmax(np.diagonal(P).real))
    col, row = P[:, j] / P[j, j], P[j, :]
    return np.maximum(
        svd_op_norms(A - col[:, None] * (row @ A)[:, None, :]),
        svd_op_norms(A - (A @ col)[:, :, None] * row),
    )
