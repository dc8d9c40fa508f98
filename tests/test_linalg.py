import numpy as np
import pytest

from restalg.linalg import column_rank, golden_min, haar_unitary, op_norm, svd_op_norm


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


def test_golden_min_quadratic():
    v, x = golden_min(lambda t: (t - 1.3) ** 2 + 0.25, 0.0, 4.0, iters=60)
    assert v == pytest.approx(0.25, abs=1e-12)
    assert x == pytest.approx(1.3, abs=1e-6)


def test_golden_min_flat_valley():
    v, _ = golden_min(lambda t: max(1.0, abs(t - 2.0)), 0.0, 5.0, iters=50)
    assert v == pytest.approx(1.0, abs=1e-12)
