import gc
import weakref

import numpy as np
import pytest

from restalg.algebra import AlgebraElement, approx_identity, dot
from restalg.errors import (
    BaseMismatch,
    NotRestrictedMultiplicative,
)
from restalg.families import (
    all_partial_injections,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from restalg.reps import (
    Representation,
    compression_deviation,
    drop_zero,
    extend_with_zero,
    lambda_inner_identity_report,
    left_regular,
    lift,
    lift_rank,
    representation_report,
    require_membership,
    restricted_left_regular,
    restricted_multiplicativity_witness,
    restricted_right_regular,
    rho_inner_identity_report,
    rho_lift_identity_report,
    trace_form_rank,
)
from restalg.restricted import build_restricted_semigroup

Z2 = gen_group("cyclic", 2)
CHAIN2 = gen_chain_semilattice(2)
I2 = gen_symmetric_inverse_monoid(2)
I3 = gen_symmetric_inverse_monoid(3)


def test_lambda_r_z2_is_swap():
    lam = restricted_left_regular(Z2)
    assert np.array_equal(lam.mats[1].real, [[0, 1], [1, 0]])
    assert np.array_equal(lam.mats[0].real, np.eye(2))


def test_lambda_r_matches_rule_evaluation():
    # independent evaluation of the defining rule on every basis vector
    for S in (Z2, CHAIN2, I2):
        lam = restricted_left_regular(S)
        for x in range(S.n):
            M = np.zeros((S.n, S.n))
            for u in range(S.n):
                xi = np.zeros(S.n)
                xi[u] = 1.0
                for y in range(S.n):
                    if S.ran[x] == S.ran[y]:
                        M[y, u] += xi[S.mul[S.star[x], y]]
            assert np.array_equal(lam.mats[x].real, M), (x,)


def test_lambda_r_chain_projection():
    lam = restricted_left_regular(CHAIN2)
    assert np.array_equal(lam.mats[1].real, [[0, 0], [0, 1]])


def test_every_lambda_r_matrix_is_partial_isometry(full_corpus):
    for label, S in full_corpus:
        mats = restricted_left_regular(S).mats
        adj = mats.conj().transpose(0, 2, 1)
        assert np.abs(mats @ adj @ mats - mats).max() == 0.0, label


def test_group_lambda_full_equals_lambda_r():
    for S in (Z2, gen_group("symmetric", 3)):
        assert np.array_equal(left_regular(S).mats, restricted_left_regular(S).mats)


def test_membership_regular_representations(corpus):
    for label, S in corpus:
        for rep in (restricted_left_regular(S), restricted_right_regular(S), left_regular(S)):
            report = representation_report(rep)
            assert report.ok, (label, rep.name, [v.witness for v in report.violations])
            assert report.worst_norm <= 1 + 1e-9


def test_lambda_full_fails_restricted_on_i2():
    lam = left_regular(I2)
    hit = restricted_multiplicativity_witness(lam)
    assert hit is not None
    x, y, size = hit
    assert not I2.composable(x, y)
    assert size > 0
    bad = Representation(I2, lam.mats, "restricted", "lambda-as-restricted")
    with pytest.raises(NotRestrictedMultiplicative):
        require_membership(bad)


def test_lambda_full_restricted_violation_is_concrete():
    # s = (0 -> 1) composed with itself is the empty map, whose
    # order-based matrix is a rank-one projection, not zero
    elems = all_partial_injections(2)
    s = next(i for i, e in enumerate(elems) if e.pairs == ((0, 1),))
    empty = next(i for i, e in enumerate(elems) if e.pairs == ())
    lam = left_regular(I2)
    prod = lam.mats[s] @ lam.mats[s]
    assert not I2.composable(s, s)
    want = np.zeros((7, 7))
    want[empty, empty] = 1.0
    assert np.array_equal(prod.real, want)


def test_lift_point_mass_and_linearity():
    lam = restricted_left_regular(I2)
    for x in range(I2.n):
        assert np.array_equal(lift(lam, AlgebraElement.delta(I2, x)), lam.mats[x])
    rng = np.random.default_rng(8)
    f, g = AlgebraElement.random(I2, rng), AlgebraElement.random(I2, rng)
    assert np.abs(lift(lam, f + g) - lift(lam, f) - lift(lam, g)).max() < 1e-14
    with pytest.raises(BaseMismatch):
        lift(lam, AlgebraElement.delta(Z2, 0))


def test_lift_z2_all_ones():
    lam = restricted_left_regular(Z2)
    M = lift(lam, AlgebraElement(Z2, [1, 1]))
    assert np.array_equal(M.real, [[1, 1], [1, 1]])


def test_lift_is_star_homomorphism():
    rng = np.random.default_rng(9)
    for S in (Z2, CHAIN2, I2):
        lam = restricted_left_regular(S)
        for _ in range(20):
            f, g = AlgebraElement.random(S, rng), AlgebraElement.random(S, rng)
            assert np.abs(lift(lam, dot(f, g)) - lift(lam, f) @ lift(lam, g)).max() < 1e-12
            assert np.abs(lift(lam, f.tilde()) - lift(lam, f).conj().T).max() < 1e-14


def test_lifted_unit_is_projection():
    rng = np.random.default_rng(10)
    lam = restricted_left_regular(I3)
    for _ in range(10):
        F = rng.choice(I3.n, size=int(rng.integers(1, 8)), replace=False).tolist()
        B = lift(lam, approx_identity(I3, F))
        assert np.abs(B @ B - B).max() == 0.0
        assert np.abs(B - B.conj().T).max() == 0.0


def test_extend_and_drop_are_mutually_inverse():
    rs = build_restricted_semigroup(I2)
    lam = restricted_left_regular(I2)
    ext = extend_with_zero(lam, rs)
    assert ext.kind == "full"
    assert np.abs(ext.mats[rs.zero_index]).max() == 0.0
    assert representation_report(ext).ok
    back = drop_zero(ext, rs)
    assert np.array_equal(back.mats, lam.mats)
    assert back.kind == "restricted"


def test_drop_zero_requires_vanishing():
    rs = build_restricted_semigroup(I2)
    Lam = left_regular(rs.sr)
    with pytest.raises(ValueError):
        drop_zero(Lam, rs)  # Lambda(0) is a rank-one projection, not 0


def test_Lambda_zero_is_rank_one_projection(corpus_restricted):
    for label, rs in corpus_restricted:
        Lam = left_regular(rs.sr)
        want = np.zeros((rs.sr.n, rs.sr.n))
        want[rs.zero_index, rs.zero_index] = 1.0
        assert np.array_equal(Lam.mats[rs.zero_index].real, want), label


def test_compression_identity(corpus_restricted):
    for label, rs in corpus_restricted:
        assert compression_deviation(rs) == 0.0, label


def test_inner_identities_small():
    for S in (Z2, CHAIN2, I2):
        assert lambda_inner_identity_report(S, trials=50, seed=0).ok
        assert rho_inner_identity_report(S, trials=50, seed=0).ok


def test_rho_lift_identity_group_vs_general():
    rep = rho_lift_identity_report(Z2, trials=50, seed=0)
    assert rep.group_like and rep.ok and rep.at_identity < 1e-12
    rep = rho_lift_identity_report(I2, trials=50, seed=0)
    assert not rep.group_like
    assert rep.ok  # idempotent-summed evaluation and localization both hold
    assert rep.summed < 1e-12 and rep.localized < 1e-12
    # evaluation at the identity alone misses the non-unit-range terms
    assert rep.at_identity > 1e-3


def test_rho_lift_identity_requires_identity_element():
    from restalg.families import gen_brandt

    with pytest.raises(ValueError):
        rho_lift_identity_report(gen_brandt([[0]], 2))


def test_faithfulness_ranks():
    assert lift_rank(restricted_left_regular(Z2)) == 2
    assert lift_rank(restricted_left_regular(I2)) == 7
    assert trace_form_rank(restricted_left_regular(I2)) == 7
    # the trivial one-dimensional representation of a group is not faithful
    triv = Representation(Z2, np.ones((2, 1, 1), dtype=complex), "full", "trivial")
    assert lift_rank(triv) == 1


def test_representation_report_flags_noncontractive():
    mats = np.zeros((2, 2, 2), dtype=complex)
    mats[0] = np.eye(2)
    mats[1] = 2.0 * np.array([[0, 1], [1, 0]])
    rep = Representation(Z2, mats, "full", "inflated")
    report = representation_report(rep)
    codes = {v.code for v in report.violations}
    assert "contraction" in codes
    assert "multiplicative" in codes


def test_representation_cache_does_not_keep_semigroup_alive():
    S = gen_symmetric_inverse_monoid(2)
    lam = restricted_left_regular(S)
    assert restricted_left_regular(S).mats is lam.mats  # built once per S
    ref = weakref.ref(S)
    del S, lam
    gc.collect()
    assert ref() is None


# the dense builders the partial-map tables replaced, kept as the reference


def _dense_lambda_r(S):
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(S.ran == S.ran[x])
        mats[x, rows, S.mul[S.star[x], rows]] = 1.0
    return mats


def _dense_lambda(S):
    L = S.order_table()
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(L[S.ran, S.ran[x]])
        mats[x, rows, S.mul[S.star[x], rows]] = 1.0
    return mats


def _dense_rho_r(S):
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(S.dom == S.ran[x])
        mats[x, rows, S.mul[rows, x]] = 1.0
    return mats


REFERENCE_BUILDERS = (
    (restricted_left_regular, _dense_lambda_r),
    (left_regular, _dense_lambda),
    (restricted_right_regular, _dense_rho_r),
)


def test_tables_round_trip_to_the_dense_stacks(full_corpus):
    for label, S in full_corpus:
        for build, reference in REFERENCE_BUILDERS:
            rep = build(S)
            assert rep.table.dtype == np.intp and not rep.table.flags.writeable
            want = reference(S)
            got = rep.mats
            assert got.dtype == want.dtype and not got.flags.writeable
            # bitwise, sign bits of the zeros included
            assert got.tobytes() == want.tobytes(), (label, rep.name)
            for x in range(S.n):
                assert rep.mat(x).tobytes() == want[x].tobytes(), (label, rep.name, x)


def test_mat_does_not_build_the_stack():
    S = gen_symmetric_inverse_monoid(3)
    for build, reference in REFERENCE_BUILDERS:
        rep = build(S)
        want = reference(S)
        for x in (0, 5, S.n - 1):
            assert np.array_equal(rep.mat(x), want[x])
        assert rep.dim == S.n
    assert not [key for key in S._rep_data if key[1] == "mats"]


def test_scatter_lift_equals_contraction_with_the_stack(full_corpus):
    rng = np.random.default_rng(11)
    for label, S in full_corpus:
        lam = restricted_left_regular(S)
        fs = [AlgebraElement.delta(S, x) for x in range(S.n)]
        fs += [AlgebraElement.random(S, rng) for _ in range(20)]
        for f in fs:
            want = np.tensordot(f.coeffs, lam.mats, axes=1)
            assert np.array_equal(lift(lam, f), want), label


def test_representation_needs_a_stack_or_a_table():
    table = restricted_left_regular(Z2).table
    with pytest.raises(ValueError):
        Representation(Z2, np.zeros((2, 2, 2)), "full", "both", table=table)
    with pytest.raises(ValueError):
        Representation(Z2, None, "full", "short", table=table[:1])
