import tracemalloc

import numpy as np
import pytest

from dense_reference import (
    block_norms_per_size,
    dense_lambda_r,
    dense_lift_norm,
    dense_representation_report,
    dense_sigma_r_samples,
    dense_svd_norm,
    haar_unitary,
    sigma_r_cross_check_one,
    sigma_r_samples,
    union_find_idempotent_classes,
)
from helpers import corpus_member
from restalg import cstar
from restalg.algebra import AlgebraElement, _rows_per_block, random_rows, restrict_to_base
from restalg.corpus import default_corpus, restricted_of
from restalg.families import gen_brandt, gen_chain_semilattice, gen_group, gen_symmetric_inverse_monoid
from restalg.linalg import op_norm, op_norms
from restalg.reps import left_regular, lift, restricted_left_regular
from restalg.restricted import build_restricted_semigroup

Z2 = gen_group("cyclic", 2)
CHAIN2 = gen_chain_semilattice(2)
I2 = gen_symmetric_inverse_monoid(2)


def test_reduced_norm_examples():
    # a delta at an idempotent lifts to a nonzero orthogonal projection
    for e in I2.idempotents():
        assert cstar.reduced_cstar_norm(AlgebraElement.delta(I2, int(e))) == pytest.approx(1.0, abs=1e-12)
    assert cstar.reduced_cstar_norm(AlgebraElement(Z2, [1, 1])) == pytest.approx(2.0, abs=1e-12)


def test_reduced_norm_contractive():
    rng = np.random.default_rng(16)
    for S in (Z2, CHAIN2, I2):
        for _ in range(20):
            f = AlgebraElement.random(S, rng)
            assert cstar.reduced_cstar_norm(f) <= f.norm(1) + 1e-9


def test_cstar_identity():
    rng = np.random.default_rng(17)
    for S in (Z2, CHAIN2, I2):
        for _ in range(10):
            f = AlgebraElement.random(S, rng)
            assert cstar.cstar_identity_deviation(f) < 1e-8


def test_idempotent_classes_partition():
    classes = [c.tolist() for c in I2.brandt().classes]
    flat = sorted(e for c in classes for e in c)
    assert flat == I2.idempotents().tolist()
    # the two singleton-domain idempotents are linked by the shift (0 -> 1)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 1, 2]


def test_idempotent_classes_match_union_find(full_corpus):
    # read off the table against union-find over the pairs (xx*, x*x),
    # classes and their order both
    I4 = gen_symmetric_inverse_monoid(4)
    cases = [*full_corpus, ("I4", I4), ("I4_r", build_restricted_semigroup(I4).sr)]
    assert len(cases) == 24
    for label, S in cases:
        assert [c.tolist() for c in S.brandt().classes] == union_find_idempotent_classes(S), label


def test_central_projections_commute_with_lambda_r():
    lam = dense_lambda_r(I2)
    classes = [c.tolist() for c in I2.brandt().classes]
    for k in range(1 << len(classes)):
        chosen = [e for i, c in enumerate(classes) if k >> i & 1 for e in c]
        P = np.diag(np.isin(I2.ran, chosen).astype(np.complex128))
        assert np.abs(P @ lam - lam @ P).max() == 0.0


def test_sigma_r_samples_are_restricted_representations():
    for summands in sigma_r_samples(I2, trials=3, seed=18):
        for mats in summands:
            report = dense_representation_report(I2, mats, "restricted", atol=1e-10)
            assert not report.violations, [v.witness for v in report.violations]


def test_full_norm_equals_reduced_with_cross_check():
    rng = np.random.default_rng(19)
    f = AlgebraElement.random(I2, rng)
    assert cstar.full_cstar_norm(f) == cstar.reduced_cstar_norm(f)
    assert cstar.sigma_r_cross_check(f, trials=4, seed=21) <= 1e-9


def test_sigma_r_cross_check_matches_sampled_lifts():
    rng = np.random.default_rng(28)
    for _ in range(5):
        f = AlgebraElement.random(I2, rng)
        reduced = cstar.reduced_cstar_norm(f)
        samples = sigma_r_samples(I2, 4, 29)
        lifts = (np.tensordot(f.coeffs, mats, axes=1) for summands in samples for mats in summands)
        want = max(op_norm(A) for A in lifts) - reduced
        assert cstar.sigma_r_cross_check(f, trials=4, seed=29) == pytest.approx(want, abs=1e-12)


def test_haar_unitary():
    rng = np.random.default_rng(15)
    U = haar_unitary(6, rng)
    assert np.abs(U @ U.conj().T - np.eye(6)).max() < 1e-12


def _sigma_cases():
    I4 = gen_symmetric_inverse_monoid(4)
    return [pytest.param(S, id=label) for label, S in default_corpus()] + [pytest.param(I4, id="I4")]


@pytest.mark.parametrize("S", _sigma_cases())
def test_sigma_r_images_match_the_dense_haar_reference(S):
    # same class draws as the Haar-conjugated dense direct sum, and the
    # same norm: the largest summand's
    rng = np.random.default_rng(36)
    A = lift(restricted_left_regular(S), AlgebraElement.random(S, rng))
    trials = 3 if S.n > 100 else 6
    new = [np.where(masks[:, None, :], A, 0.0) for masks in cstar._sigma_r_masks(S, trials, 37)]
    old = list(dense_sigma_r_samples(S, A, trials, 37, rng))
    assert len(new) == len(old) == trials
    for stack, (summands, dense) in zip(new, old):
        assert np.array_equal(stack, summands)
        value = op_norms(stack).max()
        assert abs(value - op_norm(dense)) <= 1e-12 * max(1.0, value)


@pytest.mark.parametrize("label", ["I3_r", "I4"])
def test_sigma_r_cross_checks_rows_equal_the_one_row_form(label):
    # n = 35 and n = 209, on both sides of linalg.SPLIT_MIN_DIM: each row
    # is bitwise its one-row value and the value of the loop over the
    # samples one at a time; a row with no samples reads -inf
    S = gen_symmetric_inverse_monoid(4) if label == "I4" else corpus_member(label)
    F = random_rows(S, np.random.default_rng(46), 12)[0]
    # rows 4 on are supported on one D-class each, so their lifts are
    # too: a row whose samples all miss its class reads -||f||, which
    # shows which classes were drawn (row 4 here)
    D = S.brandt().D
    F[4:] *= D[None, :] == np.arange(8)[:, None] % (D.max() + 1)
    seeds = [3, 8, 8, 50, *range(1, 9)]
    for trials in (1, 3):
        got = cstar.sigma_r_cross_checks(S, F, trials=trials, seeds=seeds)
        assert got.shape == (12,)
        for row, seed, value in zip(F, seeds, got):
            f = AlgebraElement(S, row)
            one = cstar.sigma_r_cross_check(f, trials=trials, seed=seed)
            assert value == one == sigma_r_cross_check_one(f, trials=trials, seed=seed), (trials, seed)
    assert np.any(cstar.sigma_r_cross_checks(S, F, trials=1, seeds=seeds) < -0.1)
    assert np.all(cstar.sigma_r_cross_checks(S, F[:2], trials=0, seeds=[1, 2]) == -np.inf)


@pytest.mark.memory
@pytest.mark.parametrize("label, bound_mb", [("I3_r", 5), ("I4", 100)])
def test_sigma_r_cross_check_memory(label, bound_mb):
    # one (k, n, n) stack of summands per sample, not a stack of n of them
    S = gen_symmetric_inverse_monoid(4) if label == "I4" else corpus_member(label)
    f = AlgebraElement.random(S, np.random.default_rng(30))
    restricted_left_regular(S)  # the table kept on S is not counted
    tracemalloc.start()
    try:
        cstar.sigma_r_cross_check(f, trials=3, seed=31)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_norm_report_ordering():
    rng = np.random.default_rng(22)
    for S in (Z2, CHAIN2, I2):
        for _ in range(10):
            f = AlgebraElement.random(S, rng)
            report = cstar.norm_report(f)
            assert report.reduced <= report.full + 1e-9
            assert report.full <= report.l1 + 1e-9
    d = cstar.norm_report(AlgebraElement.delta(I2, 0))
    assert d.as_dict() == {"l1": 1.0, "reduced": d.reduced, "full": d.full}


def test_quotient_norm_examples():
    rs = build_restricted_semigroup(I2)
    sr, z = rs.sr, rs.zero_index
    assert cstar.quotient_cstar_norm(AlgebraElement.delta(sr, z), z) == 0.0
    for x in range(I2.n):
        got = cstar.quotient_cstar_norm(AlgebraElement.delta(sr, x), z)
        assert got == pytest.approx(1.0, abs=1e-10)
    # the lift of c*delta_0 itself has norm |c|
    Lam = left_regular(sr)
    c = 0.7 - 0.2j
    f = c * AlgebraElement.delta(sr, z)
    assert np.abs(lift(Lam, f)).max() == pytest.approx(abs(c))
    assert op_norm(lift(Lam, f)) == pytest.approx(abs(c), abs=1e-12)


def test_quotient_matches_reduced_norm_of_restriction():
    rs = build_restricted_semigroup(I2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = AlgebraElement.random(rs.sr, rng)
        q = cstar.quotient_cstar_norm(f, rs.zero_index)
        r = cstar.reduced_cstar_norm(restrict_to_base(f, rs))
        assert q == pytest.approx(r, abs=1e-8)


def test_minimized_quotient_norm_agrees():
    rs = build_restricted_semigroup(CHAIN2)
    rng = np.random.default_rng(24)
    cases = [AlgebraElement.delta(rs.sr, x) for x in range(rs.sr.n)]
    cases += [AlgebraElement.random(rs.sr, rng) for _ in range(3)]
    for f in cases:
        q = cstar.quotient_cstar_norm(f, rs.zero_index)
        m = cstar.minimized_quotient_norm(f, rs.zero_index)
        assert abs(q - m) < 1e-8


def test_quotient_match_report():
    report = cstar.quotient_match_report(CHAIN2, trials=20, seed=25)
    assert report.max_deviation < 1e-8
    assert report.minimized_deviation < 1e-8


def test_l1_quotient_deviation():
    rs = build_restricted_semigroup(I2)
    F = random_rows(rs.sr, np.random.default_rng(26), 20)[0]
    devs = cstar.l1_quotient_deviations(F, rs)
    assert devs.shape == (20,) and devs.max() < 1e-13


def test_norms_close_convention():
    assert cstar.norms_close(1.0, 1.0 + 5e-9)
    assert not cstar.norms_close(1.0, 1.0 + 5e-8)
    assert cstar.norms_close(100.0, 100.0 + 5e-7)  # relative beyond 10
    assert not cstar.norms_close(100.0, 100.0 + 5e-6)


def test_unrestricted_reduced_norm():
    # on a group the order-based and restricted regular representations agree
    rng = np.random.default_rng(27)
    f = AlgebraElement.random(Z2, rng)
    assert cstar.unrestricted_reduced_norm(f) == pytest.approx(
        cstar.reduced_cstar_norm(f), abs=1e-10
    )


# ---------------------------------------------------------------------
# block norms against the dense lift


def _block_cases():
    cases = []
    for label, S in default_corpus(False):
        rs = restricted_of(label)
        cases += [pytest.param(S, rs, id=label), pytest.param(rs.sr, rs, id=label + "_r")]
    I4 = gen_symmetric_inverse_monoid(4)
    return cases + [pytest.param(I4, build_restricted_semigroup(I4), id="I4")]


def _elements(S, rng, k=20):
    """Every delta and k random elements, with zero elements among them:
    each block size sees rows that are live on it and rows that are not."""
    zero = AlgebraElement(S, np.zeros(S.n))
    deltas = [AlgebraElement.delta(S, x) for x in range(S.n)]
    return [zero, *deltas[: S.n // 2], zero, *deltas[S.n // 2 :]] + [
        AlgebraElement.random(S, rng) for _ in range(k)
    ] + [zero]


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _batch_cases(S, rs):
    """(representation, cleared element, the one-row norm) per block norm
    over S: lambda_r and lambda, and for a base member the quotient over
    its zero-adjoined semigroup."""
    cases = [
        (restricted_left_regular(S), None, cstar.reduced_cstar_norm),
        (left_regular(S), None, cstar.unrestricted_reduced_norm),
    ]
    if S is rs.base:
        cases.append(
            (left_regular(rs.sr), rs.zero_index, lambda f: cstar.quotient_cstar_norm(f, rs.zero_index))
        )
    return cases


@pytest.mark.parametrize("S, rs", _block_cases())
def test_block_norms_match_dense_svd(S, rs):
    # one batch of zero rows, deltas and random rows per block norm, each
    # row against LAPACK's SVD of the dense lift (cleared column zeroed)
    # and bitwise against the one-row norm; a zero row's norm is exactly 0
    rng = np.random.default_rng(32)
    worst = 0.0
    for rep, cleared, one_row in _batch_cases(S, rs):
        elements = _elements(rep.base, rng)
        norms = cstar.block_norms(rep, np.array([f.coeffs for f in elements]), cleared)
        assert norms.shape == (len(elements),)
        for f, value in zip(elements, norms):
            worst = max(worst, _rel(value, dense_lift_norm(rep, f.coeffs, cleared)))
            assert one_row(f) == value
            assert f.coeffs.any() or value == 0.0
    assert worst <= 1e-12


@pytest.mark.parametrize("label", ["chain4", "I3", "B2_1_r", "I4"])
def test_block_norms_rows_do_not_depend_on_the_batch(label):
    # B = 0, B = 1, and a batch over more than one block of rows: the rows
    # around its boundaries and about 60 spread over the rest equal their
    # value alone, bitwise
    S = gen_symmetric_inverse_monoid(4) if label == "I4" else corpus_member(label)
    rs = build_restricted_semigroup(S)
    rng = np.random.default_rng(36)
    for rep, cleared, _ in _batch_cases(S, rs):
        n = rep.base.n
        index = cstar._block_index(rep)
        step = _rows_per_block(index.starts[-1] + index.xs.size)
        for B in (0, 1, 2 * step + 3):
            F = rng.uniform(-1, 1, (B, n)) + 1j * rng.uniform(-1, 1, (B, n))
            norms = cstar.block_norms(rep, F, cleared)
            assert norms.shape == (B,)
            rows = set(range(0, B, max(1, B // 60))) | {step - 1, step, 2 * step, B - 1}
            for i in sorted(r for r in rows if 0 <= r < B):
                alone = cstar.block_norms(rep, F[i : i + 1], cleared)[0]
                assert norms[i] == alone, (label, rep.name, B, i)


def test_block_norms_reject_bad_input():
    lam_r = restricted_left_regular(I2)
    for F in (np.zeros(I2.n), np.zeros((2, I2.n + 1))):
        with pytest.raises(ValueError):
            cstar.block_norms(lam_r, F)
    # a non-finite coefficient, the only nonzero of its row, keeps the row
    # live: a NaN is not zero
    for bad in (np.inf, np.nan, complex(0.0, np.nan)):
        F = np.zeros((3, I2.n), dtype=np.complex128)
        F[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            cstar.block_norms(lam_r, F)


def test_block_norms_eigensolve_live_blocks_only(monkeypatch):
    # one stack per block size, over the rows live on it: a delta of I4
    # or of its zero-adjoined semigroup lives in one D-class, so its
    # lambda_r norm is one eigensolve; the order-256 chain's 256 1 x 1
    # blocks are one stack, one eigensolve per block of live rows
    calls = []
    real = cstar.op_norms
    monkeypatch.setattr(cstar, "op_norms", lambda stack: calls.append(stack.shape) or real(stack))
    I4 = gen_symmetric_inverse_monoid(4)
    for S in (I4, build_restricted_semigroup(I4).sr):
        for x in range(S.n):
            calls.clear()
            assert cstar.reduced_cstar_norm(AlgebraElement.delta(S, x)) == 1.0
            assert len(calls) == 1, (S.n, x)
    calls.clear()
    assert cstar.block_norms(restricted_left_regular(I4), np.zeros((4, I4.n))).tolist() == [0.0] * 4
    assert calls == []
    chain = gen_chain_semilattice(256)
    rng = np.random.default_rng(47)
    for rep in (restricted_left_regular(chain), left_regular(chain)):
        index = cstar._block_index(rep)
        [Ls] = index.Ls
        assert Ls.shape == (256, 1)
        step = _rows_per_block(index.starts[-1] + index.xs.size)
        F = random_rows(chain, rng, 2 * step + 3)[0]
        F[::4] = 0.0
        live = int(F.any(axis=1).sum())
        calls.clear()
        norms = cstar.block_norms(rep, F)
        assert len(calls) == -(-live // step), rep.name
        assert sum(shape[0] for shape in calls) == 256 * live
        assert np.array_equal(norms == 0.0, ~F.any(axis=1))


def _per_size_cases():
    """(label, semigroup): the full corpus, I4 and its zero-adjoined
    semigroup, B(Z3, 9) and the order-256 chain."""
    I4 = gen_symmetric_inverse_monoid(4)
    return [
        *default_corpus(include_restricted=True),
        ("I4", I4),
        ("I4_r", build_restricted_semigroup(I4).sr),
        ("B(Z3, 9)", gen_brandt(gen_group("cyclic", 3).mul, 9)),
        ("chain256", gen_chain_semilattice(256)),
    ]


def test_block_norms_match_the_per_size_reference():
    # the one scatter per block of rows gives, bitwise, what a scatter and
    # an eigensolve per block size gave: on zero rows, deltas, dense and
    # sparse random rows (live on some block sizes only), with the zero's
    # column cleared over each zero-adjoined semigroup, and with a column
    # of the last L-class of the largest block size cleared; and each row
    # alone gives its batched value
    rng = np.random.default_rng(53)
    for label, S in _per_size_cases():
        rs = build_restricted_semigroup(S)
        dense = random_rows(S, rng, 12)[0]
        sparse = random_rows(S, rng, 12)[0] * (rng.random((12, S.n)) < 3 / S.n)
        F = np.concatenate([np.zeros((2, S.n)), np.eye(S.n), dense, sparse, np.zeros((1, S.n))])
        last = cstar._block_index(restricted_left_regular(S)).Ls[-1][-1]
        cases = _batch_cases(S, rs) + [(restricted_left_regular(S), int(last[-1]), None)]
        for rep, cleared, _ in cases:
            G = F if rep.base is S else np.concatenate([F, rng.uniform(-1, 1, (len(F), 1))], axis=1)
            norms = cstar.block_norms(rep, G, cleared)
            assert norms.tobytes() == block_norms_per_size(rep, G, cleared).tobytes(), (label, rep.name)
            for i in range(0, len(G), max(1, len(G) // 25)):
                assert cstar.block_norms(rep, G[i : i + 1], cleared).tobytes() == norms[i : i + 1].tobytes()


def test_block_norms_scatter_once_per_call(monkeypatch):
    # a random I4 row through lambda_r: one scatter of all five
    # representative blocks, then one eigensolve per block size (1, 4, 12
    # and 24, the last with its two L-classes stacked)
    scatters, solves = [], []
    real_scatter, real_solve = cstar.scatter_rows, cstar.op_norms
    monkeypatch.setattr(cstar, "scatter_rows", lambda W, *rest: scatters.append(W.shape) or real_scatter(W, *rest))
    monkeypatch.setattr(cstar, "op_norms", lambda stack: solves.append(stack.shape) or real_solve(stack))
    I4 = gen_symmetric_inverse_monoid(4)
    f = AlgebraElement.random(I4, np.random.default_rng(54))
    value = cstar.reduced_cstar_norm(f)
    assert len(scatters) == 1
    assert solves == [(1, 1, 1), (1, 4, 4), (1, 12, 12), (2, 24, 24)]
    assert value == block_norms_per_size(restricted_left_regular(I4), f.coeffs[None])[0]


def test_block_norm_attained_off_the_largest_block():
    # a weighted delta at I3's empty map lives in the 1 x 1 block of its
    # own D-class; the two largest blocks (6 x 6) only see the identity
    I3 = gen_symmetric_inverse_monoid(3)
    rs = build_restricted_semigroup(I3)
    empty, one = int(I3.idempotents()[0]), I3.identity
    assert I3.dom[empty] == empty and (I3.dom == empty).sum() == 1
    sizes = [int(L.size) for L in cstar.representative_blocks(I3)]
    assert sorted(sizes) == [1, 3, 6, 6]
    coeffs = np.zeros(I3.n, dtype=np.complex128)
    coeffs[empty], coeffs[one] = 3.0, 1.0
    f = AlgebraElement(I3, coeffs)
    assert cstar.reduced_cstar_norm(f) == pytest.approx(3.0, abs=1e-12)
    assert cstar.unrestricted_reduced_norm(f) == pytest.approx(
        dense_svd_norm(lift(left_regular(I3), f)), rel=1e-12
    )
    fz = AlgebraElement(rs.sr, np.append(coeffs, 0.5))
    assert cstar.quotient_cstar_norm(fz, rs.zero_index) == pytest.approx(3.0, abs=1e-12)


def test_representative_blocks_of_i4():
    I4 = gen_symmetric_inverse_monoid(4)
    blocks = cstar.representative_blocks(I4)
    assert [int(L.size) for L in blocks] == [1, 4, 12, 24, 24]
    assert cstar.representative_blocks(I4) is blocks  # kept on the semigroup
    # one L-class per D-class
    for L, cls in zip(blocks, I4.brandt().classes):
        assert np.all(I4.dom[L] == cls[0])


def test_representative_blocks_read_the_brandt_classes(full_corpus):
    # the L-class of each class's smallest idempotent, with the classes
    # from union-find: the blocks, their order and their dtype
    I4 = gen_symmetric_inverse_monoid(4)
    large = [I4, build_restricted_semigroup(I4).sr, gen_group("cyclic", 256), gen_chain_semilattice(256)]
    for S in [S for _, S in full_corpus] + large:
        blocks = cstar.representative_blocks(S)
        want = [np.flatnonzero(S.dom == cls[0]) for cls in union_find_idempotent_classes(S)]
        assert len(blocks) == len(want)
        for L, M in zip(blocks, want):
            assert L.dtype == M.dtype and np.array_equal(L, M) and not L.flags.writeable


def test_quotient_norm_needs_the_zero():
    rs = build_restricted_semigroup(I2)
    with pytest.raises(ValueError):
        cstar.quotient_cstar_norm(AlgebraElement.delta(rs.sr, 0), 0)


def test_minimized_quotient_norm_needs_the_zero():
    # only at the zero is the lifted delta a rank-one projection
    rs = build_restricted_semigroup(I2)
    assert rs.zero_index != 0
    with pytest.raises(ValueError):
        cstar.minimized_quotient_norm(AlgebraElement.delta(rs.sr, 0), 0)


@pytest.mark.memory
def test_block_norms_memory_on_cold_i4():
    # tables and block indices only: no (n, n, n) stack and no n x n lift
    S = gen_symmetric_inverse_monoid(4)
    rs = build_restricted_semigroup(S)
    rng = np.random.default_rng(33)
    f = AlgebraElement.random(S, rng)
    fz = AlgebraElement.random(rs.sr, rng)
    tracemalloc.start()
    try:
        cstar.reduced_cstar_norm(f)
        cstar.quotient_cstar_norm(fz, rs.zero_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    for base in (S, rs.sr):
        assert base._rep_data, "the tables are kept on the semigroup"


def test_norm_report_computes_the_reduced_norm_once(monkeypatch):
    calls = []
    real = cstar.reduced_cstar_norm
    monkeypatch.setattr(cstar, "reduced_cstar_norm", lambda f: calls.append(f) or real(f))
    f = AlgebraElement.random(I2, np.random.default_rng(34))
    report = cstar.norm_report(f)
    assert len(calls) == 1
    assert report.full == report.reduced == real(f)
