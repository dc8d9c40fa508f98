import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import restalg.reps
import restalg.semigroups
import restalg.verify
from dense_reference import (
    _incidence,
    dense_lambda,
    dense_lambda_r,
    dense_multiplicativity_witness,
    dense_representation_report,
    dense_rho_r,
    dense_svd_norm,
    gram_loop,
    gram_schmidt_rank,
    multiplicativity_witness_loop,
    stack_of,
)
from restalg import cstar
from restalg.algebra import AlgebraElement, dot, unit_rows
from restalg.errors import BaseMismatch
from restalg.families import (
    adjoin_identity,
    all_partial_injections,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from restalg.linalg import column_rank
from restalg.reps import (
    KIND_RESTRICTED,
    Representation,
    column_multiplicity,
    compression_deviation,
    extend_with_zero,
    lambda_inner_identity_report,
    left_regular,
    lift,
    lift_blocks,
    lift_many,
    lift_rank,
    representation_report,
    restricted_left_regular,
    restricted_multiplicativity_witness,
    restricted_right_regular,
    rho_inner_identity_report,
    rho_lift_identity_report,
    support_layout,
    trace_form_rank,
)
from restalg.restricted import build_restricted_semigroup
from restalg.semigroups import MAX_ORDER, build_from_table

Z2 = gen_group("cyclic", 2)
CHAIN2 = gen_chain_semilattice(2)
I2 = gen_symmetric_inverse_monoid(2)
I3 = gen_symmetric_inverse_monoid(3)


def test_lambda_r_z2_is_swap():
    lam = restricted_left_regular(Z2)
    assert np.array_equal(lam.mat(1).real, [[0, 1], [1, 0]])
    assert np.array_equal(lam.mat(0).real, np.eye(2))


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
            assert np.array_equal(lam.mat(x).real, M), (x,)


def test_lambda_r_chain_projection():
    lam = restricted_left_regular(CHAIN2)
    assert np.array_equal(lam.mat(1).real, [[0, 0], [0, 1]])


def test_every_lambda_r_matrix_is_partial_isometry(full_corpus):
    for label, S in full_corpus:
        lam = restricted_left_regular(S)
        mats = stack_of(lam.table)
        adj = mats.conj().transpose(0, 2, 1)
        assert np.abs(mats @ adj @ mats - mats).max() == 0.0, label
        assert column_multiplicity(lam).max() == 1, label


def test_group_lambda_full_equals_lambda_r():
    for S in (Z2, gen_group("symmetric", 3)):
        assert np.array_equal(left_regular(S).table, restricted_left_regular(S).table)


def test_membership_regular_representations(corpus):
    for label, S in corpus:
        for rep in (restricted_left_regular(S), restricted_right_regular(S), left_regular(S)):
            report = representation_report(rep)
            assert not report.violations, (label, rep.name, [v.witness for v in report.violations])
            assert report.worst_norm <= 1 + 1e-9


def test_lambda_full_fails_restricted_on_i2():
    lam = left_regular(I2)
    hit = restricted_multiplicativity_witness(lam)
    assert hit is not None
    x, y, size = hit
    assert not I2.composable_matrix()[x, y]
    assert size > 0
    bad = Representation(I2, lam.table, "restricted", "lambda-as-restricted")
    assert "multiplicative" in [v.code for v in representation_report(bad).violations]


def test_lambda_full_restricted_violation_is_concrete():
    # s = (0 -> 1) composed with itself is the empty map, whose
    # order-based matrix is a rank-one projection, not zero
    elems = all_partial_injections(2)
    s = next(i for i, e in enumerate(elems) if e == ((0, 1),))
    empty = next(i for i, e in enumerate(elems) if e == ())
    lam = left_regular(I2)
    prod = lam.mat(s) @ lam.mat(s)
    assert not I2.composable_matrix()[s, s]
    want = np.zeros((7, 7))
    want[empty, empty] = 1.0
    assert np.array_equal(prod.real, want)


def test_lift_point_mass_and_linearity():
    lam = restricted_left_regular(I2)
    want = dense_lambda_r(I2)
    for x in range(I2.n):
        assert np.array_equal(lift(lam, AlgebraElement.delta(I2, x)), want[x])
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
        B = lift_many(lam, unit_rows(I3, np.array([F])))[0]
        assert np.abs(B @ B - B).max() == 0.0
        assert np.abs(B - B.conj().T).max() == 0.0


def test_extend_and_drop_are_mutually_inverse():
    rs = build_restricted_semigroup(I2)
    lam = restricted_left_regular(I2)
    ext = extend_with_zero(lam, rs)
    assert ext.kind == "full"
    assert np.all(ext.table[rs.zero_index] == -1)
    assert np.array_equal(ext.table[: I2.n], lam.table)
    assert not representation_report(ext).violations
    # dropping the zero row gives back a restricted representation of I2
    back = Representation(I2, ext.table[: I2.n], KIND_RESTRICTED, "back")
    assert np.array_equal(back.table, lam.table)
    assert not representation_report(back).violations


def test_Lambda_zero_is_rank_one_projection(corpus_restricted):
    for label, rs in corpus_restricted:
        Lam = left_regular(rs.sr)
        want = np.zeros((rs.sr.n, rs.sr.n))
        want[rs.zero_index, rs.zero_index] = 1.0
        assert np.array_equal(Lam.mat(rs.zero_index).real, want), label


def test_compression_identity(corpus_restricted):
    for label, rs in corpus_restricted:
        assert compression_deviation(rs) == 0.0, label


def test_inner_identities_small():
    for S in (Z2, CHAIN2, I2):
        assert lambda_inner_identity_report(S, trials=50, seed=0)[0] < 1e-10
        assert rho_inner_identity_report(S, trials=50, seed=0)[0] < 1e-10


def test_rho_lift_identity_group_vs_general():
    rep = rho_lift_identity_report(Z2, trials=50, seed=0)
    # on a group the evaluation at 1 is the summed one
    assert rep.at_identity == rep.summed < 1e-12 and rep.localized < 1e-10
    rep = rho_lift_identity_report(I2, trials=50, seed=0)
    # idempotent-summed evaluation and localization both hold
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
    triv = Representation(Z2, np.zeros((2, 1), dtype=int), "full", "trivial")
    assert lift_rank(triv) == 1


def test_representation_report_flags_noncontractive():
    # pi(1) sends both rows to column 0: norm sqrt(2)
    rep = Representation(Z2, [[0, 1], [0, 0]], "full", "folded")
    report = representation_report(rep)
    codes = {v.code for v in report.violations}
    assert "contraction" in codes
    assert "multiplicative" in codes
    assert report.worst_norm == np.sqrt(2.0)


def test_representation_cache_does_not_keep_semigroup_alive():
    S = gen_symmetric_inverse_monoid(2)
    lam = restricted_left_regular(S)
    assert restricted_left_regular(S) is lam  # built once per S
    ref = weakref.ref(S)
    del S, lam
    gc.collect()
    assert ref() is None


REFERENCE_BUILDERS = (
    (restricted_left_regular, dense_lambda_r),
    (left_regular, dense_lambda),
    (restricted_right_regular, dense_rho_r),
)


def test_tables_round_trip_to_the_dense_stacks(full_corpus):
    for label, S in full_corpus:
        for build, reference in REFERENCE_BUILDERS:
            rep = build(S)
            assert rep.table.dtype == np.intp and not rep.table.flags.writeable
            assert rep.dim == S.n
            want = reference(S)
            # bitwise, sign bits of the zeros included
            assert stack_of(rep.table).tobytes() == want.tobytes(), (label, rep.name)
            for x in range(S.n):
                assert rep.mat(x).tobytes() == want[x].tobytes(), (label, rep.name, x)


def test_scatter_lift_equals_contraction_with_the_stack(full_corpus):
    rng = np.random.default_rng(11)
    for label, S in full_corpus:
        lam = restricted_left_regular(S)
        mats = dense_lambda_r(S)
        fs = [AlgebraElement.delta(S, x) for x in range(S.n)]
        fs += [AlgebraElement.random(S, rng) for _ in range(20)]
        for f in fs:
            want = np.tensordot(f.coeffs, mats, axes=1)
            assert np.array_equal(lift(lam, f), want), label


def test_representation_rejects_bad_tables():
    table = restricted_left_regular(Z2).table
    for bad in (
        table[0],  # 1-D
        table[None],  # 3-D
        table.astype(float),
        table >= 0,  # bool is not an integer table
        table[:1],  # one row short
        np.array([[0, -2], [1, 0]]),
        np.array([[0, 2], [1, 0]]),
    ):
        with pytest.raises(ValueError):
            Representation(Z2, bad, "full", "bad")
    with pytest.raises(ValueError):
        Representation(Z2, table, "partial", "bad")
    mine = np.array([[0, 1], [1, 0]], dtype=np.int32)
    rep = Representation(Z2, mine, "full", "swap")
    mine[1] = -1  # the representation keeps its own read-only copy
    assert rep.table.dtype == np.intp and not rep.table.flags.writeable
    assert np.array_equal(rep.table, [[0, 1], [1, 0]])
    assert Representation(Z2, np.zeros((2, 0), dtype=int), "full", "empty").dim == 0


def test_representation_cache_is_per_object_not_per_name():
    # a table-built representation that shares a regular one's name must
    # neither read nor overwrite the regular one's derived arrays
    S = gen_symmetric_inverse_monoid(2)
    rng = np.random.default_rng(12)
    f, g = AlgebraElement.random(S, rng), AlgebraElement.random(S, rng)
    fake = Representation(S, left_regular(S).table, "restricted", "lambda_r")
    lift(fake, g)
    cstar.reduced_cstar_norm(g)  # keeps the regular blocks
    cstar._block_norm(fake, g)
    want = np.tensordot(f.coeffs, dense_lambda_r(S), axes=1)
    assert np.array_equal(lift(restricted_left_regular(S), f), want)
    assert cstar.reduced_cstar_norm(f) == pytest.approx(dense_svd_norm(want), rel=1e-12)
    assert np.array_equal(lift(fake, f), np.tensordot(f.coeffs, dense_lambda(S), axes=1))


# ---------------------------------------------------------------------
# the table laws against the dense reference route


def _reports_agree(rep, mats):
    got = representation_report(rep)
    want = dense_representation_report(rep.base, mats, rep.kind)
    assert got == want, (rep.name, got, want)
    hit = restricted_multiplicativity_witness(rep)
    assert hit == dense_multiplicativity_witness(rep.base, mats), rep.name
    return got


def _five_reps(S):
    """The five representations the reps suite reports on: lambda_r,
    rho_r, lambda, Lambda of the zero-adjoined semigroup and lambda_r
    extended by zero."""
    rs = build_restricted_semigroup(S)
    lam_r = restricted_left_regular(S)
    return [
        lam_r,
        restricted_right_regular(S),
        left_regular(S),
        left_regular(rs.sr),
        extend_with_zero(lam_r, rs),
    ]


def _regular_cases(S):
    """The five representations of _five_reps, each with its dense
    reference stack."""
    rs = build_restricted_semigroup(S)
    lam_r = dense_lambda_r(S)
    ext = np.concatenate([lam_r, np.zeros((1, S.n, S.n))])
    stacks = [lam_r, dense_rho_r(S), dense_lambda(S), dense_lambda(rs.sr), ext]
    return list(zip(_five_reps(S), stacks))


def test_table_laws_match_the_dense_report(full_corpus):
    violating = 0
    for label, S in full_corpus:
        for rep, mats in _regular_cases(S):
            assert not _reports_agree(rep, mats).violations, (label, rep.name)
        order_based = Representation(S, left_regular(S).table, "restricted", "lambda-as-restricted")
        report = _reports_agree(order_based, dense_lambda(S))
        assert (not report.violations) == (restricted_multiplicativity_witness(order_based) is None)
        violating += bool(report.violations)
    assert violating == 18


def _broken_tables(S, T):
    """Deliberately broken copies of a partial-map table, by name: two
    entries of a row swapped or sent to one column (where a row has two),
    and the row of an x != x* dropped to -1 whole or by one entry (so
    pi(x*) no longer matches pi(x)*; where every x = x*, pi(x) = 0 can
    be a compression by a central projection, which breaks no law)."""
    count = (T >= 0).sum(axis=1)
    out = {}
    if count.max() >= 2:
        x = int(np.argmax(count >= 2))
        y1, y2 = np.flatnonzero(T[x] >= 0)[:2]
        out["swapped"] = T.copy()
        out["swapped"][x, [y1, y2]] = T[x, [y2, y1]]
        out["folded"] = T.copy()
        out["folded"][x, y2] = T[x, y1]
    unpaired = (S.star != np.arange(S.n)) & (count >= 1)
    if unpaired.any():
        x = int(np.argmax(unpaired))
        out["dropped row"] = T.copy()
        out["dropped row"][x] = -1
        out["dropped entry"] = T.copy()
        out["dropped entry"][x, np.flatnonzero(T[x] >= 0)[0]] = -1
    return out


def test_broken_tables_fail_both_routes_alike(full_corpus):
    broken = 0
    for label, S in full_corpus:
        for build in (restricted_left_regular, restricted_right_regular, left_regular):
            good = build(S)
            for how, table in _broken_tables(S, good.table).items():
                rep = Representation(S, table, good.kind, f"{good.name} {how}")
                mats = stack_of(table)
                report = _reports_agree(rep, mats)
                iso = np.abs(mats @ mats.conj().transpose(0, 2, 1) @ mats - mats).max()
                assert max(column_multiplicity(rep).max() - 1, 0) == iso, (label, rep.name)
                assert report.violations, (label, rep.name)
                if how == "folded":
                    assert "contraction" in {v.code for v in report.violations}
                    assert iso == 1.0
                broken += 1
    assert broken == 150


@pytest.mark.parametrize("one_key_blocks", [True, False], ids=["one-key blocks", "default blocks"])
def test_broken_table_witnesses_at_every_block_size(monkeypatch, full_corpus, one_key_blocks):
    # the product law's witness is the first failing pair in x-major order
    # wherever the blocks of its scan fall
    if one_key_blocks:
        monkeypatch.setattr(restalg.semigroups, "BLOCK_ENTRIES", 1)
    multiplicative = 0
    for label, S in full_corpus:
        for good in _five_reps(S):
            for how, table in _broken_tables(good.base, good.table).items():
                rep = Representation(good.base, table, good.kind, f"{good.name} {how}")
                report = _reports_agree(rep, stack_of(table))
                multiplicative += "multiplicative" in {v.code for v in report.violations}
    assert multiplicative > 0


def test_incidence_ranks_match_the_dense_ranks(full_corpus):
    for label, S in full_corpus:
        for build, reference in REFERENCE_BUILDERS:
            rep = build(S)
            V = reference(S).reshape(S.n, -1)
            assert lift_rank(rep) == column_rank(V.T), (label, rep.name)
            assert trace_form_rank(rep) == column_rank(V @ V.conj().T), (label, rep.name)


def _fresh_reps_tables():
    # the tables of the fresh-reps benchmark: Brandt(Z_k, 4) with identity,
    # S4 and I3 with identity, each also zero-adjoined
    tables = [adjoin_identity(gen_brandt(gen_group("cyclic", k).mul, 4)) for k in (2, 3, 4, 5)]
    tables += [gen_group("symmetric", 4), adjoin_identity(I3)]
    return tables + [build_restricted_semigroup(S).sr for S in tables]


def _ranks_match_gram_schmidt(rep):
    V = _incidence(rep)
    return (lift_rank(rep), trace_form_rank(rep)) == (
        gram_schmidt_rank(V.T),
        gram_schmidt_rank(V @ V.T),
    )


def test_svd_ranks_match_gram_schmidt(full_corpus):
    for S in [S for _, S in full_corpus] + _fresh_reps_tables():
        for build in (restricted_left_regular, restricted_right_regular, left_regular):
            assert _ranks_match_gram_schmidt(build(S)), (S, build.__name__)
    # on I4 only lambda: the restricted incidences have rank n by inspection,
    # one nonzero position per x, and the reference takes about 0.8 s each
    assert _ranks_match_gram_schmidt(left_regular(gen_symmetric_inverse_monoid(4)))


def test_gram_matches_the_row_loop(full_corpus, large_semigroups, seed):
    tables = [S for _, S in full_corpus] + _fresh_reps_tables() + list(large_semigroups.values())
    for S in tables:
        for build in (restricted_left_regular, left_regular, restricted_right_regular):
            rep = build(S)
            assert np.array_equal(restalg.reps._gram(rep), gram_loop(rep)), (S, build.__name__)
    # off-diagonal counts past 255, more than one block's uint8 sums hold
    table = np.where(np.random.default_rng(seed).random((2, 600)) < 0.1, -1, 0)
    wide = Representation(Z2, table, "full", "wide")
    G = restalg.reps._gram(wide)
    assert np.array_equal(G, gram_loop(wide)) and G[0, 1] > 255


def _copied_row(rep, src, dst):
    """rep with row dst of its table replaced by row src: pi(dst) = pi(src)."""
    table = rep.table.copy()
    table[dst] = table[src]
    return Representation(rep.base, table, rep.kind, rep.name + " copied")


def test_ranks_read_n_minus_1_when_two_elements_share_a_matrix(full_corpus, large_semigroups):
    # the rows of the incidence were independent, so n - 1 exactly
    tables = [(label, S) for label, S in full_corpus if S.n > 1] + [("I4", large_semigroups["I4"])]
    for label, S in tables:
        for build in (restricted_left_regular, left_regular):
            rep = _copied_row(build(S), 0, S.n - 1)
            V = _incidence(rep)
            ranks = (lift_rank(rep), trace_form_rank(rep), column_rank(V.T), column_rank(V @ V.T))
            assert ranks == (S.n - 1,) * 4, (label, rep.name, ranks)


@pytest.mark.parametrize(
    "patched, failing",
    [
        ("restricted_left_regular", {"reps.faithful-restricted", "reps.semisimple"}),
        ("left_regular", {"reps.faithful-full"}),
    ],
)
def test_rank_checks_fail_on_a_copied_row(monkeypatch, patched, failing):
    # reps.semisimple reads the rank of the same Gram matrix as
    # reps.faithful-restricted, so the two fail together
    S = gen_symmetric_inverse_monoid(3)
    real = getattr(restalg.verify, patched)
    monkeypatch.setattr(restalg.verify, patched, lambda B: _copied_row(real(B), 1, 2) if B is S else real(B))
    rank_ids = {"reps.faithful-restricted", "reps.faithful-full", "reps.semisimple"}
    failed = {c.id for c in restalg.verify.suite_reps(S, seed=1, trials=5) if not c.passed}
    assert failed & rank_ids == failing


def _zero_row_copies_row_0(extend):
    def patched(rep, rs):
        ext = extend(rep, rs)
        table = ext.table.copy()
        table[rs.zero_index] = table[0]
        return Representation(ext.base, table, ext.kind, ext.name)

    return patched


@pytest.mark.parametrize(
    "patched, mutate, failing",
    [
        ("extend_with_zero", _zero_row_copies_row_0, "reps.zero-extension"),
        ("unit_rows", lambda unit: lambda S, members: 2 * unit(S, members), "reps.unit-projection"),
    ],
)
def test_reps_check_fails_alone_under_its_mutation(monkeypatch, patched, mutate, failing):
    # a zero whose lambda_r row is not zero, and units lifted to 2 e_F,
    # which is no projection: each fails its own check and no other
    assert not {c.id for c in restalg.verify.suite_reps(I2, seed=1, trials=5) if not c.passed}
    monkeypatch.setattr(restalg.verify, patched, mutate(getattr(restalg.verify, patched)))
    assert {c.id for c in restalg.verify.suite_reps(I2, seed=1, trials=5) if not c.passed} == {failing}


@pytest.mark.memory
@pytest.mark.parametrize("label", ["chain256", "Z256"])
def test_rank_memory_on_order_256(large_semigroups, label):
    # one (n, n) Gram matrix per representation, never the (n, P)
    # incidence: P = 65,536 on Z256, 128 MiB as floats
    S = large_semigroups[label]
    # new objects, so that no Gram kept by an earlier test is read
    reps = [Representation(S, rep.table, rep.kind) for rep in (restricted_left_regular(S), left_regular(S))]
    tracemalloc.start()
    try:
        ranks = [(lift_rank(rep), trace_form_rank(rep)) for rep in reps]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks == [(S.n, S.n)] * 2
    assert peak < 8 * 2**20


@pytest.mark.parametrize("order", [2, 4])
def test_reps_suite_builds_one_gram_per_ranked_representation(monkeypatch, order):
    # lambda_r is ranked twice (faithful-restricted, semisimple) and
    # lambda once; each Gram and its singular values are built once and
    # kept on the representation, so the two ranks share one SVD
    S = gen_symmetric_inverse_monoid(order)
    built = {"gram": [], "gram singular values": []}
    real = restalg.reps.kept_on

    def counting(owner, key, build):
        if key in built:
            return real(owner, key, lambda: built[key].append(owner.name) or build())
        return real(owner, key, build)

    monkeypatch.setattr(restalg.reps, "kept_on", counting)
    checks = restalg.verify.suite_reps(S, seed=1, trials=5)
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    assert {key: sorted(names) for key, names in built.items()} == {
        "gram": ["lambda", "lambda_r"],
        "gram singular values": ["lambda", "lambda_r"],
    }


@pytest.mark.memory
def test_table_laws_memory_on_cold_i4():
    # no (n, n, n) stack: the laws run on (n, n) tables and temporaries
    S = gen_symmetric_inverse_monoid(4)
    rs = build_restricted_semigroup(S)
    tracemalloc.start()
    try:
        for rep in (
            restricted_left_regular(S),
            restricted_right_regular(S),
            left_regular(S),
            left_regular(rs.sr),
        ):
            assert not representation_report(rep).violations, rep.name
        assert compression_deviation(rs) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.memory
def test_batched_trial_checks_memory_on_cold_i4():
    # 100 trials over I4's 3809 lambda_r entries: the pairings, lifts and
    # block norms go through in blocks of rows, not as one batch
    S = gen_symmetric_inverse_monoid(4)
    build_restricted_semigroup(S)  # kept on S, as before it was passed in
    tracemalloc.start()
    try:
        assert lambda_inner_identity_report(S, trials=100, seed=1)[0] < 1e-10
        assert rho_inner_identity_report(S, trials=100, seed=2)[0] < 1e-10
        lifted = rho_lift_identity_report(S, trials=100, seed=3)
        assert max(lifted.summed, lifted.localized) < 1e-10
        quotient = cstar.quotient_match_report(S, trials=100, seed=4)
        assert max(quotient.max_deviation, quotient.minimized_deviation) < 1e-8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_lift_many_rows_equal_lift():
    rng = np.random.default_rng(38)
    for S in (gen_symmetric_inverse_monoid(3), gen_brandt([[0]], 2)):
        for rep in (restricted_left_regular(S), left_regular(S), restricted_right_regular(S)):
            F = rng.uniform(-1, 1, (7, S.n)) + 1j * rng.uniform(-1, 1, (7, S.n))
            stack = lift_many(rep, F)
            assert stack.shape == (7, rep.dim, rep.dim)
            for f, M in zip(F, stack):
                assert np.array_equal(M, lift(rep, AlgebraElement(S, f)))


def test_lift_blocks_hold_every_entry_of_the_dense_lift(full_corpus):
    # on every regular representation of the corpus and on its broken
    # copies: the support components partition the coordinates, come in
    # ascending sizes, and their blocks are bitwise the dense lift's
    # diagonal blocks, outside of which the dense lift is zero
    rng = np.random.default_rng(41)
    for label, S in full_corpus:
        for build in (restricted_left_regular, restricted_right_regular, left_regular):
            good = build(S)
            broken = _broken_tables(S, good.table).items()
            for rep in [good, *(Representation(S, T, good.kind, how) for how, T in broken)]:
                F = rng.uniform(-1, 1, (3, S.n)) + 1j * rng.uniform(-1, 1, (3, S.n))
                dense = lift_many(rep, F)
                layout = support_layout(rep)
                sizes = [L.shape[1] for L in layout.blocks]
                assert sizes == sorted(set(sizes)), (label, rep.name)
                members = np.sort(np.concatenate([L.ravel() for L in layout.blocks]))
                assert np.array_equal(members, np.arange(rep.dim)), (label, rep.name)
                off_blocks = np.ones(dense.shape, dtype=bool)
                for L, stack in zip(layout.blocks, lift_blocks(rep, F)):
                    at = (slice(None), L[:, :, None], L[:, None, :])
                    assert stack.tobytes() == dense[at].tobytes(), (label, rep.name)
                    off_blocks[at] = False
                assert not dense[off_blocks].any(), (label, rep.name)


def _product_witness(rep):
    """The witness of the multiplicative violation in rep's report, or None."""
    found = [v.witness for v in representation_report(rep).violations if v.code == "multiplicative"]
    return found[0] if found else None


def _loop_witness(rep):
    """The same witness from the x-by-x loop's first failing pair."""
    pair = multiplicativity_witness_loop(rep)
    if pair is None:
        return None
    x, y = pair
    law = "pi(xy) on composables / 0 otherwise" if rep.kind == KIND_RESTRICTED else "pi(xy)"
    return f"pi({rep.base.label(x)}) pi({rep.base.label(y)}) != {law} (deviation 1.000e+00)"


@pytest.fixture(scope="module")
def large_semigroups(seed):
    """I4 and a random relabelling of it, Z256 and the order-256 chain."""
    I4 = gen_symmetric_inverse_monoid(4)
    perm = np.random.default_rng(seed).permutation(I4.n)
    relabelled = np.empty_like(I4.mul)
    relabelled[np.ix_(perm, perm)] = perm[I4.mul]
    return {
        "I4": I4,
        "I4-relabelled": build_from_table(relabelled),
        "Z256": gen_group("cyclic", MAX_ORDER),
        "chain256": gen_chain_semilattice(MAX_ORDER),
    }


def test_product_law_on_generators_matches_the_loop(full_corpus, large_semigroups, seed):
    rng = np.random.default_rng(seed)
    tables = [S for _, S in full_corpus] + _fresh_reps_tables() + list(large_semigroups.values())
    failing = 0
    for S in tables:
        for rep in _five_reps(S):
            assert _product_witness(rep) is None is multiplicativity_witness_loop(rep), (S, rep.name)
        # the order-based lambda claimed as restricted, and lambda_r with
        # one entry moved: the witness is the loop's first failing pair
        T = left_regular(S).table
        x, y = rng.integers(S.n, size=2)
        moved = restricted_left_regular(S).table.copy()
        moved[x, y] = (moved[x, y] + 1) % S.n
        for rep in (
            Representation(S, T, KIND_RESTRICTED, "lambda-as-restricted"),
            Representation(S, moved, KIND_RESTRICTED, "lambda_r moved"),
        ):
            witness = _product_witness(rep)
            assert witness == _loop_witness(rep), (S, rep.name)
            failing += witness is not None
    assert failing > len(tables)


def test_product_law_on_every_changed_entry(corpus):
    # the five tables of a member cover its zero-adjoined semigroup too
    changed = failing = 0
    for _, S in corpus:
        if S.n > 6:
            continue
        for good in _five_reps(S):
            for x, r in np.ndindex(good.table.shape):
                for v in range(-1, good.dim):
                    if v == good.table[x, r]:
                        continue
                    table = good.table.copy()
                    table[x, r] = v
                    rep = Representation(good.base, table, good.kind)
                    witness = _product_witness(rep)
                    assert witness == _loop_witness(rep), (S, good.name, x, r, v)
                    changed += 1
                    failing += witness is not None
    assert failing > changed // 2


def test_product_law_reads_one_row_per_generator(monkeypatch):
    S = gen_symmetric_inverse_monoid(4)
    sr = build_restricted_semigroup(S).sr
    rows = []
    law = restalg.reps._product_law_witness

    def counting(T, mul, xs):
        rows.append(len(xs))
        return law(T, mul, xs)

    monkeypatch.setattr(restalg.reps, "_product_law_witness", counting)
    for rep in _five_reps(S):
        rows.clear()
        assert not representation_report(rep).violations, rep.name
        # S0's generators less its zero for lambda_r and rho_r, the base's
        # generators for the full kind; the loop read all n rows
        bound = sr.generators().size if rep.kind == KIND_RESTRICTED else rep.base.generators().size
        assert len(rows) == 1 and rows[0] <= bound, (rep.name, rows)
    assert (S.generators().size, sr.generators().size) == (5, 33)


@pytest.mark.memory
@pytest.mark.parametrize("label", ["chain256", "Z256"])
def test_product_law_memory_on_order_256(large_semigroups, label):
    # the chain needs every element as a generator: the blocked gathers
    # reuse their buffers, so memory stays O(n dim)
    reps = _five_reps(large_semigroups[label])
    tracemalloc.start()
    try:
        for rep in reps:
            assert not representation_report(rep).violations, rep.name
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
