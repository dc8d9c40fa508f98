import ast
import inspect
import itertools

import numpy as np
import pytest

from dense_reference import (
    dense_lift_norm,
    dense_svd_norm,
    min_shift_norm_one,
    pattern_blocks_reference,
    svd_op_norm_one,
)
from restalg import linalg
from restalg.algebra import random_rows
from restalg.families import gen_symmetric_inverse_monoid
from restalg.linalg import (
    SPLIT_MIN_DIM,
    column_rank,
    min_shift_norms,
    op_norm,
    op_norms,
    pattern_blocks,
    svd_op_norm,
    svd_op_norms,
)
from restalg.corpus import restricted_of
from restalg.reps import left_regular, lift, lift_many, restricted_left_regular
from restalg.restricted import build_restricted_semigroup


def test_op_norm_identity_and_zero():
    assert op_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert op_norm(np.zeros((4, 4))) == 0.0
    assert op_norm(np.zeros((0, 0))) == 0.0


def test_op_norm_z2_all_ones_pattern():
    M = np.array([[1.0, 1.0], [1.0, 1.0]])  # I + swap; eigenvalues 2 and 0
    assert op_norm(M) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_against_svd_oracle():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3, 5, 13, 34):
        for _ in range(10):
            M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert op_norm(M) == pytest.approx(svd_op_norm(M), rel=1e-10, abs=1e-10)


def test_op_norm_rectangular():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((4, 9))
    assert op_norm(M) == pytest.approx(svd_op_norm(M), rel=1e-10)


def test_op_norm_survives_orthogonal_start():
    # the all-ones start vector is orthogonal to the top eigenvector
    H = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert op_norm(H) == pytest.approx(3.0, abs=1e-9)


def test_op_norm_rejects_bad_input():
    # both backends, on both sides of the SVD route's split gate
    for norm in (op_norm, svd_op_norm):
        for bad in (np.ones(3), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="expected a matrix"):
                norm(bad)
        for bad in (np.inf, np.nan, complex(0.0, np.inf)):
            for n in (2, SPLIT_MIN_DIM):
                M = np.eye(n, dtype=np.complex128)
                M[1, 0] = bad
                with pytest.raises(ValueError, match="matrix entries must be finite"):
                    norm(M)
        assert norm(np.zeros((0, 0))) == 0.0
        assert norm(np.zeros((0, 100))) == 0.0


@pytest.mark.parametrize("gap", [0.0, 1e-7, 1e-5])
def test_op_norm_exactly_degenerate_top(gap):
    # top two singular values 3 and 3 (1 - gap): a near-tie must neither
    # stall the solver nor stop it short of the planted value
    rng = np.random.default_rng(13)
    q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    M = q @ np.diag([3.0, 3.0 * (1.0 - gap), 1.0, 0.5, 0.2, 0.1]) @ q.T
    assert op_norm(M) == pytest.approx(3.0, rel=1e-12)


def test_op_norms_stack_is_bitwise_one_matrix_at_a_time():
    # one stacked eigensolve gives what each matrix gives alone, for the
    # block sizes the corpus and I4 meet and beyond
    rng = np.random.default_rng(37)
    for d in range(1, 36):
        M = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        M[M.real > 1.0] = 0.0
        norms = op_norms(M)
        assert [op_norm(m) for m in M] == norms.tolist(), d
    assert op_norms(np.zeros((0, 3, 3))).shape == (0,)
    assert op_norms(np.zeros((2, 0, 3))).tolist() == [0.0, 0.0]


def test_op_norms_check_entries():
    M = np.zeros((3, 2, 2), dtype=np.complex128)
    M[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        op_norms(M)
    with pytest.raises(ValueError):
        op_norms(np.zeros((2, 2)))


def test_op_norm_of_a_transposed_view():
    # a non-contiguous complex view used to fail the finite-entries check
    A = np.arange(6).reshape(2, 3) + 1j
    assert op_norm(A.T) == pytest.approx(svd_op_norm(A), rel=1e-12)


def test_column_rank():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((10, 4))
    assert column_rank(A) == 4
    B = np.hstack([A, A @ rng.standard_normal((4, 3))])  # 3 dependent columns
    assert column_rank(B) == 4
    assert column_rank(np.zeros((5, 5))) == 0
    assert column_rank(A, rel_tol=1e9) == 0  # everything below the pivot cut


def test_column_rank_complex():
    v = np.array([[1.0], [1j]])
    A = np.hstack([v, 1j * v, v + 1j * v])
    assert column_rank(A) == 1


def _grid_min_shift(A, P, rounds=30, points=7):
    """min over complex c of ||A + c P|| on a shrinking complex grid."""
    center, width = 0.0j, 2.0 * svd_op_norm(A) + 1.0
    best = svd_op_norm(A)
    steps = np.linspace(-1.0, 1.0, points)
    for _ in range(rounds):
        grid = center + width * (steps[:, None] + 1j * steps[None, :]).ravel()
        values = [svd_op_norm(A + c * P) for c in grid]
        k = int(np.argmin(values))
        if values[k] < best:
            best = values[k]
        center = grid[k]
        width *= 2.0 / (points - 1)
    return best


def test_min_shift_norm_against_grid_search():
    # random A with a random rank-one P that does not commute with it
    rng = np.random.default_rng(16)
    for dim in (2, 3, 4, 5):
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        P = np.outer(v, v.conj())
        assert np.abs(A @ P - P @ A).max() > 1e-3
        value = min_shift_norms(A[None], P)[0]
        assert value == pytest.approx(_grid_min_shift(A, P), abs=1e-10)
        # a lower bound: no shift goes below it
        for c in 3.0 * (rng.standard_normal(20) + 1j * rng.standard_normal(20)):
            assert svd_op_norm(A + c * P) >= value - 1e-12


# ---------------------------------------------------------------------
# the SVD norm block by block against one SVD of the whole matrix


def _close(value, want):
    return abs(value - want) <= 1e-12 * abs(want)


def _random_block_diagonal(rng, dim):
    """Random complex rectangular blocks, some of them with no rows or no
    columns (zero columns or rows of the result), a few entries cleared,
    rows and columns permuted."""
    shapes = rng.integers(0, max(2, dim // 6), size=(dim, 2))
    shapes = shapes[: int(np.searchsorted(np.cumsum(shapes.min(axis=1)), dim)) + 1]
    m, k = shapes.sum(axis=0)
    M = np.zeros((m, k), dtype=np.complex128)
    i = j = 0
    for a, b in shapes:
        M[i : i + a, j : j + b] = rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
        i, j = i + a, j + b
    M[rng.random(M.shape) < 0.1] = 0.0
    return M[rng.permutation(m)][:, rng.permutation(k)]


def _lifts():
    """(representation, row, lift) for the lambda_r and lambda lifts of the
    deltas and of 20 random rows, over I4 and its zero-adjoined
    semigroup."""
    rng = np.random.default_rng(41)
    I4 = gen_symmetric_inverse_monoid(4)
    rs = build_restricted_semigroup(I4)
    for S in (I4, rs.sr):
        rows = np.concatenate([np.eye(S.n, dtype=np.complex128), random_rows(S, rng, 20)[0]])
        for rep in (restricted_left_regular(S), left_regular(S)):
            for lo in range(0, rows.shape[0], 32):
                yield from zip(itertools.repeat(rep), rows[lo : lo + 32], lift_many(rep, rows[lo : lo + 32]))


def test_svd_op_norm_matches_one_dense_svd():
    rng = np.random.default_rng(40)
    cases = []
    for dim in (12, SPLIT_MIN_DIM // 2, SPLIT_MIN_DIM, 150):
        cases += [_random_block_diagonal(rng, dim) for _ in range(5)]
    assert any(min(M.shape) < SPLIT_MIN_DIM for M in cases)
    assert any(min(M.shape) >= SPLIT_MIN_DIM for M in cases)
    # one component of the largest possible diameter, in order and permuted
    B = np.diag(rng.uniform(1, 2, 100)) + np.diag(rng.uniform(1, 2, 99), 1)
    cases += [B, B[::-1], B[rng.permutation(100)][:, rng.permutation(100)]]
    # a weighted partial permutation
    P = np.zeros((120, 130), dtype=np.complex128)
    rows = rng.choice(120, 90, replace=False)
    P[rows, rng.choice(130, 90, replace=False)] = rng.standard_normal(90) + 1j * rng.standard_normal(90)
    cases.append(P)
    one = np.zeros((100, 100))
    one[37, 81] = -2.5
    cases += [one, np.zeros((100, 100)), np.zeros((0, 0))]
    for M in cases:
        assert _close(svd_op_norm(M), dense_svd_norm(M)), M.shape
    assert svd_op_norm(one) == 2.5
    assert svd_op_norm(np.zeros((100, 100))) == 0.0
    # the dense references of the I4 lifts are shared with the block norm
    # tests (dense_lift_norm)
    for rep, row, A in _lifts():
        assert _close(svd_op_norm(A), dense_lift_norm(rep, row))


def test_pattern_blocks_of_i4_lifts():
    # above the gate the SVDs run on components of at most 24 x 24, which
    # together hold every nonzero entry of the lift once
    I4 = gen_symmetric_inverse_monoid(4)
    rng = np.random.default_rng(42)
    rep = restricted_left_regular(I4)
    assert rep.dim >= SPLIT_MIN_DIM
    for A in lift_many(rep, random_rows(I4, rng, 5)[0]):
        stacks = list(pattern_blocks(A))
        assert max(max(s.shape[1:]) for s in stacks) <= 24
        assert sum(s.shape[0] for s in stacks) > 1
        entries = np.concatenate([s[s != 0] for s in stacks])
        assert np.array_equal(np.sort_complex(entries), np.sort_complex(A[A != 0]))


def _weighted_partial_permutation(rng, m, k):
    """An (m, k) matrix with at most one nonzero entry per row and per
    column, random and complex, and about a third of its rows empty."""
    rows = rng.permutation(m)[: min(m, k) * 2 // 3]
    cols = rng.permutation(k)[: rows.size]
    M = np.zeros((m, k), dtype=np.complex128)
    M[rows, cols] = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
    return M


def _same_stacks(M):
    got, want = list(pattern_blocks(M)), list(pattern_blocks_reference(M))
    assert len(got) == len(want), M.shape
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g.view(np.uint8), w.view(np.uint8)), M.shape


def test_pattern_blocks_match_the_unique_grouping():
    # the one-pass split yields the stacks of the np.unique grouping in
    # the same order, bitwise
    rng = np.random.default_rng(48)
    I4 = gen_symmetric_inverse_monoid(4)
    rs = build_restricted_semigroup(I4)
    rows = np.concatenate([np.eye(I4.n)[::7], random_rows(I4, rng, 3)[0]]).astype(np.complex128)
    for rep in (restricted_left_regular(I4), left_regular(I4)):
        for A in lift_many(rep, rows):
            _same_stacks(A)
    # the quotient: lambda lifts over the zero-adjoined semigroup with the
    # zero column cleared
    zrows = np.concatenate([np.eye(rs.sr.n)[::9], random_rows(rs.sr, rng, 3)[0]]).astype(np.complex128)
    for A in lift_many(left_regular(rs.sr), zrows):
        A[:, rs.zero_index] = 0.0
        _same_stacks(A)
    # random sparse rectangular patterns, with empty rows and columns
    for _ in range(40):
        m, k = rng.integers(1, 160, 2)
        M = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        M[rng.random((m, k)) >= rng.uniform(0.0, 0.08)] = 0.0
        _same_stacks(M)
    M = np.zeros((90, 70), dtype=np.complex128)
    M[5:40:3, 10:60:2] = 1.0 + 1.0j
    M[70, 3] = -2.0
    _same_stacks(M)
    # all-zero, and non-contiguous views
    _same_stacks(np.zeros((80, 100), dtype=np.complex128))
    _same_stacks(M[::-1])
    _same_stacks(M.T)
    _same_stacks(_random_block_diagonal(rng, 150)[::2, 1::2])
    # weighted partial permutations, square and rectangular, with empty
    # rows and columns, and as non-contiguous views
    for m, k in ((70, 70), (90, 64), (64, 110), (5, 3), (1, 40)):
        P = _weighted_partial_permutation(rng, m, k)
        for view in (P, P[::-1], P.T, P[::2, 1::2], P[:, ::-1]):
            _same_stacks(view)


def test_pattern_blocks_take_a_partial_permutation_without_the_search(monkeypatch):
    # one (q, 1, 1) stack of the nonzero entries in row order, and the
    # norm their largest modulus; a second entry in a row, or in a column
    # only, sends the matrix through the search
    def no_search(nonzero):
        raise AssertionError("component search on a partial permutation")

    monkeypatch.setattr(linalg, "_pattern_labels", no_search)
    rng = np.random.default_rng(51)
    P = _weighted_partial_permutation(rng, 90, 70)
    rows, cols = np.nonzero(P)
    [stack] = pattern_blocks(P)
    assert stack.shape == (rows.size, 1, 1) and np.array_equal(stack[:, 0, 0], P[rows, cols])
    assert list(pattern_blocks(np.zeros((SPLIT_MIN_DIM, 3)))) == []
    assert svd_op_norm(P) == pytest.approx(np.abs(P).max(), rel=1e-15)
    I4 = gen_symmetric_inverse_monoid(4)
    assert svd_op_norm(lift_many(restricted_left_regular(I4), 2j * np.eye(I4.n)[[5]])[0]) == 2.0
    empty = np.flatnonzero(~P.any(axis=1))[0]
    for i, j in ((rows[0], cols[1]), (empty, cols[0])):
        Q = P.copy()
        Q[i, j] = 1.0
        with pytest.raises(AssertionError, match="component search"):
            svd_op_norm(Q)


def test_svd_op_norm_reads_finiteness_off_its_blocks():
    # from SPLIT_MIN_DIM on there is no pass over the whole matrix: a NaN
    # or an infinity is nonzero, so it lies in a block the SVDs take, in a
    # partial permutation, in a pattern that needs the search, and as the
    # one nonzero entry of the matrix
    rng = np.random.default_rng(52)
    n = SPLIT_MIN_DIM
    monomial = _weighted_partial_permutation(rng, n, n + 6)
    general = _random_block_diagonal(rng, 2 * n)[: n + 4, :n]
    general[7, :3] = 1.0
    lone = np.zeros((n, n), dtype=np.complex128)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)):
        for M, at in ((monomial, np.argwhere(monomial)[-1]), (general, (7, 1)), (lone, (n - 1, 2))):
            B = M.copy()
            B[tuple(at)] = bad
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                svd_op_norm(B)
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                svd_op_norms(np.stack([M, B]))


def test_svd_op_norm_takes_a_matrix_with_no_zero_entry_whole(monkeypatch):
    # one dense component: no component search, and the value is one SVD
    def no_search(nonzero):
        raise AssertionError("component search on a matrix with no zero entry")

    monkeypatch.setattr(linalg, "_pattern_labels", no_search)
    rng = np.random.default_rng(44)
    for shape in ((SPLIT_MIN_DIM, SPLIT_MIN_DIM), (209, 209), (70, 90)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert svd_op_norm(M) == float(np.linalg.svd(M, compute_uv=False)[0]), shape
    M[3, 5] = 0.0
    with pytest.raises(AssertionError, match="component search"):
        svd_op_norm(M)


def test_svd_op_norm_is_svd_alone(monkeypatch):
    # the cross-check backend takes no eigensolve and nothing but numpy
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve in the SVD route")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    A = next(iter(_lifts()))[2]
    assert svd_op_norm(A) == pytest.approx(1.0, rel=1e-12)
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(linalg))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or ".")
    assert imported == {"__future__", "numpy"}


def test_min_shift_norm_of_a_lift_is_the_dense_products():
    # for the lifted d_0 (exact 0/1 entries) the outer products are the
    # matmuls P A and A P bitwise
    I4 = gen_symmetric_inverse_monoid(4)
    rs = build_restricted_semigroup(I4)
    Lam = left_regular(rs.sr)
    P = Lam.mat(rs.zero_index)
    stack = lift_many(Lam, random_rows(rs.sr, np.random.default_rng(43), 3)[0])
    for A, got in zip(stack, min_shift_norms(stack, P)):
        assert got == max(svd_op_norm(A - P @ A), svd_op_norm(A - A @ P))


@pytest.mark.parametrize("n", [35, 209])
def test_stacked_svd_norms_equal_the_one_matrix_forms(n):
    # lifts through lambda_r with zeros, dense random matrices and a zero
    # matrix, on both sides of SPLIT_MIN_DIM: each stacked value is
    # bitwise the one its matrix gives alone, and the one a single
    # matrix gave before the stacked form
    S = restricted_of("I3").sr if n == 35 else gen_symmetric_inverse_monoid(4)
    assert S.n == n and (n < SPLIT_MIN_DIM) == (n == 35)
    rng = np.random.default_rng(45)
    A = lift_many(restricted_left_regular(S), random_rows(S, rng, 3)[0])
    dense = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    stack = np.concatenate([A, dense, np.zeros((1, n, n))])
    got = svd_op_norms(stack)
    assert got.shape == (len(stack),)
    for b, M in enumerate(stack):
        assert got[b] == svd_op_norm(M) == svd_op_norm_one(M), b

    # a rank-one orthogonal projection: the lifted zero of the
    # zero-adjoined semigroup at n = 35, a random one at n = 209
    if n == 35:
        Lam = left_regular(S)
        P = Lam.mat(S.zero)
        A = lift_many(Lam, random_rows(S, rng, 3)[0])
    else:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        P = np.outer(v, np.conj(v)) / np.vdot(v, v).real
    got = min_shift_norms(A, P)
    for b, M in enumerate(A):
        assert got[b] == min_shift_norms(M[None], P)[0] == min_shift_norm_one(M, P), b
    assert svd_op_norms(np.zeros((0, n, n))).shape == (0,)
    with pytest.raises(ValueError):
        svd_op_norms(A[0])
