import numpy as np
import pytest

from restalg.linalg import (
    column_rank,
    haar_unitary,
    min_shift_norm,
    op_norm,
    op_norms,
    svd_op_norm,
)


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
    with pytest.raises(ValueError):
        op_norm(np.ones(3))
    with pytest.raises(ValueError):
        op_norm(np.array([[np.nan, 0], [0, 1]]))


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


def test_haar_unitary():
    rng = np.random.default_rng(15)
    U = haar_unitary(6, rng)
    assert np.abs(U @ U.conj().T - np.eye(6)).max() < 1e-12


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
        value = min_shift_norm(A, P)
        assert value == pytest.approx(_grid_min_shift(A, P), abs=1e-10)
        # a lower bound: no shift goes below it
        for c in 3.0 * (rng.standard_normal(20) + 1j * rng.standard_normal(20)):
            assert svd_op_norm(A + c * P) >= value - 1e-12
