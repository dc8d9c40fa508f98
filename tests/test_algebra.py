import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dot_direct_loop, order_dot_assoc_witness_dense, order_dot_loop, scatter_reference
from restalg import cstar
from restalg.algebra import (
    AlgebraElement,
    conv,
    _rows_per_block,
    conv_many,
    conv_triples,
    dot,
    dot_direct,
    dot_direct_many,
    dot_many,
    dot_triples,
    extend_from_base,
    max_abs_diff,
    random_rows,
    order_dot_assoc_witness,
    order_dot_many,
    order_dot_scan,
    restrict_to_base,
    scatter_rows,
    unit_rows,
)
from restalg.corpus import default_corpus
from restalg.errors import BaseMismatch
from restalg.families import (
    all_partial_injections,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from restalg.reps import left_regular, restricted_left_regular
from restalg.restricted import build_restricted_semigroup

Z2 = gen_group("cyclic", 2)
CHAIN2 = gen_chain_semilattice(2)
I2 = gen_symmetric_inverse_monoid(2)


def _i2_element(pairs):
    elems = all_partial_injections(2)
    return next(i for i, e in enumerate(elems) if e == pairs)


# -- element basics -----------------------------------------------------


def test_element_validation():
    with pytest.raises(ValueError):
        AlgebraElement(Z2, [1.0])
    with pytest.raises(ValueError):
        AlgebraElement(Z2, [1.0, np.nan])
    with pytest.raises(ValueError):
        AlgebraElement(Z2, [1.0, np.inf])


def test_norms_and_inner():
    d0 = AlgebraElement.delta(I2, 0)
    d1 = AlgebraElement.delta(I2, 1)
    assert d0.norm(1) == 1.0
    assert (d0 + d1).norm(1) == 2.0
    assert np.vdot(d1.coeffs, d0.coeffs) == 0
    f = AlgebraElement(I2, np.arange(7) * (1 + 1j))
    assert np.vdot(f.coeffs, f.coeffs) == pytest.approx(f.norm(2) ** 2)
    assert f.norm("inf") == np.abs(f.coeffs).max()
    with pytest.raises(ValueError):
        f.norm(3)


def test_base_mismatch():
    with pytest.raises(BaseMismatch):
        dot(AlgebraElement.delta(Z2, 0), AlgebraElement.delta(I2, 0))


def test_check_tilde():
    s = _i2_element(((0, 1),))
    ds = AlgebraElement.delta(I2, s) * (2 + 1j)
    assert ds.tilde().coeffs[I2.star[s]] == 2 - 1j
    assert ds.check().coeffs[I2.star[s]] == 2 + 1j
    rngl = np.random.default_rng(1)
    f = AlgebraElement.random(I2, rngl)
    assert max_abs_diff(f.tilde().tilde(), f) == 0.0
    # real functions supported on idempotents are symmetric
    e = AlgebraElement(I2, np.isin(np.arange(7), I2.idempotents()).astype(float))
    assert max_abs_diff(e.tilde(), e) == 0.0


# -- convolution and the dot product ------------------------------------


def test_conv_point_masses():
    for S in (Z2, I2):
        for x in range(S.n):
            for y in range(S.n):
                got = conv(AlgebraElement.delta(S, x), AlgebraElement.delta(S, y))
                want = AlgebraElement.delta(S, S.mul[x, y])
                assert max_abs_diff(got, want) == 0.0


def test_conv_z2_hand_expansion():
    f = AlgebraElement(Z2, [1, 1])
    assert conv(f, f).coeffs.tolist() == [2, 2]


def test_conv_identity_neutral():
    rngl = np.random.default_rng(2)
    f = AlgebraElement.random(I2, rngl)
    d1 = AlgebraElement.delta(I2, I2.identity)
    assert max_abs_diff(conv(d1, f), f) == 0.0
    assert max_abs_diff(conv(f, d1), f) == 0.0


def test_dot_deltas_composability_rule():
    for S in (Z2, CHAIN2, I2):
        C = S.composable_matrix()
        for x in range(S.n):
            for y in range(S.n):
                got = dot(AlgebraElement.delta(S, x), AlgebraElement.delta(S, y))
                want = np.zeros(S.n, complex)
                if C[x, y]:
                    want[S.mul[x, y]] = 1
                assert np.array_equal(got.coeffs, want)


def test_dot_equals_conv_on_groups():
    rngl = np.random.default_rng(3)
    for S in (Z2, gen_group("symmetric", 3)):
        for _ in range(20):
            f = AlgebraElement.random(S, rngl)
            g = AlgebraElement.random(S, rngl)
            assert max_abs_diff(dot(f, g), conv(f, g)) < 1e-12
            assert np.abs(order_dot_many(S, [f.coeffs], [g.coeffs])[0] - conv(f, g).coeffs).max() < 1e-12


def test_dot_two_formulas_agree():
    rngl = np.random.default_rng(4)
    for S in (Z2, CHAIN2, I2):
        for x in range(S.n):
            for y in range(S.n):
                dx, dy = AlgebraElement.delta(S, x), AlgebraElement.delta(S, y)
                assert np.array_equal(dot(dx, dy).coeffs, dot_direct(dx, dy).coeffs)
        for _ in range(20):
            f = AlgebraElement.random(S, rngl)
            g = AlgebraElement.random(S, rngl)
            assert max_abs_diff(dot(f, g), dot_direct(f, g)) < 1e-12


def test_dot_direct_many_matches_the_coordinate_loop(full_corpus):
    # the padded translation table against the per-coordinate sum: exact on
    # delta pairs, within 1e-14 on random rows, over more than one block
    rngl = np.random.default_rng(8)
    for label, S in full_corpus + [("I4", gen_symmetric_inverse_monoid(4))]:
        # every delta pair up to order 35, 2000 of them on I4
        xs, ys = np.divmod(np.arange(S.n * S.n)[:: max(1, S.n * S.n // 2000)], S.n)
        D = np.eye(S.n, dtype=np.complex128)
        assert np.array_equal(dot_direct_many(S, D[xs], D[ys]), dot_many(S, D[xs], D[ys])), label
        B = _rows_per_block(S.n) + 3
        F = rngl.uniform(-1, 1, (B, S.n)) + 1j * rngl.uniform(-1, 1, (B, S.n))
        G = rngl.uniform(-1, 1, (B, S.n)) + 1j * rngl.uniform(-1, 1, (B, S.n))
        P = dot_direct_many(S, F, G)
        for i in (0, B - 1):
            assert np.abs(P[i] - dot_direct_loop(S, F[i], G[i])).max() < 1e-14, (label, i)
            f, g = AlgebraElement(S, F[i]), AlgebraElement(S, G[i])
            assert np.array_equal(P[i], dot_direct(f, g).coeffs), (label, i)
        assert np.abs(P - dot_many(S, F, G)).max() < 1e-12, label
        assert dot_direct_many(S, F[:0], G[:0]).shape == (0, S.n), label


def test_dot_many_rows_equal_dot(full_corpus):
    # B = 0, B = 1 and a batch over two blocks; of the large batch, the
    # rows around the block boundary and about 60 spread over the rest
    rngl = np.random.default_rng(6)
    for label, S in full_corpus:
        for many, one, triples in ((dot_many, dot, dot_triples), (conv_many, conv, conv_triples)):
            block = _rows_per_block(len(triples(S)))
            for B in (0, 1, block + 3):
                F = rngl.uniform(-1, 1, (B, S.n)) + 1j * rngl.uniform(-1, 1, (B, S.n))
                G = rngl.uniform(-1, 1, (B, S.n)) + 1j * rngl.uniform(-1, 1, (B, S.n))
                P = many(S, F, G)
                assert P.shape == (B, S.n), label
                rows = set(range(0, B, max(1, B // 60))) | {block - 1, block, B - 1}
                for i in sorted(r for r in rows if 0 <= r < B):
                    f, g = AlgebraElement(S, F[i]), AlgebraElement(S, G[i])
                    assert np.array_equal(P[i], one(f, g).coeffs), (label, many.__name__, B, i)
                    if many is dot_many:
                        assert np.abs(P[i] - dot_direct(f, g).coeffs).max() < 1e-12, (label, B, i)


def test_random_rows_read_the_stream_element_by_element():
    # one draw for all trials, read as per-element draws of the real and
    # then the imaginary parts, round by round
    F, G = random_rows(I2, np.random.default_rng(9), 4, 2)
    rngl = np.random.default_rng(9)
    for t in range(4):
        for R in (F, G):
            want = rngl.uniform(-1, 1, I2.n) + 1j * rngl.uniform(-1, 1, I2.n)
            assert np.array_equal(R[t], want)
    rngl = np.random.default_rng(9)
    assert np.array_equal(AlgebraElement.random(I2, rngl).coeffs, F[0])
    assert np.array_equal(AlgebraElement.random(I2, rngl).coeffs, G[0])


def test_dot_many_rejects_wrong_shapes():
    ok = np.zeros((2, I2.n))
    for F, G in [
        (np.zeros((2, I2.n + 1)), np.zeros((2, I2.n + 1))),
        (np.zeros(I2.n), np.zeros(I2.n)),
        (ok, np.zeros((3, I2.n))),
    ]:
        with pytest.raises(ValueError):
            dot_many(I2, F, G)
    assert np.array_equal(dot_many(I2, ok, ok), ok)


def test_delta_absorption_both_cases():
    for S in (Z2, CHAIN2, I2):
        for y in range(S.n):
            dy = AlgebraElement.delta(S, y)
            for e in S.idempotents():
                de = AlgebraElement.delta(S, int(e))
                right = dot(dy, de)
                left = dot(de, dy)
                assert np.array_equal(
                    right.coeffs, dy.coeffs if S.dom[y] == e else 0 * dy.coeffs
                )
                assert np.array_equal(
                    left.coeffs, dy.coeffs if S.ran[y] == e else 0 * dy.coeffs
                )


# -- hypothesis property tests -------------------------------------------


def _coeff_strategy(n):
    reals = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    return st.lists(st.tuples(reals, reals), min_size=n, max_size=n).map(
        lambda pairs: np.array([complex(a, b) for a, b in pairs])
    )


@settings(max_examples=25, deadline=None)
@given(_coeff_strategy(7), _coeff_strategy(7), _coeff_strategy(7))
def test_dot_associative_property(a, b, c):
    f, g, h = (AlgebraElement(I2, v) for v in (a, b, c))
    assert max_abs_diff(dot(dot(f, g), h), dot(f, dot(g, h))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(_coeff_strategy(7), _coeff_strategy(7))
def test_tilde_antimultiplicative_property(a, b):
    f, g = AlgebraElement(I2, a), AlgebraElement(I2, b)
    assert max_abs_diff(dot(f, g).tilde(), dot(g.tilde(), f.tilde())) < 1e-12


@settings(max_examples=25, deadline=None)
@given(_coeff_strategy(7), _coeff_strategy(7))
def test_submultiplicative_property(a, b):
    f, g = AlgebraElement(I2, a), AlgebraElement(I2, b)
    assert dot(f, g).norm(1) <= f.norm(1) * g.norm(1) + 1e-9


@settings(max_examples=25, deadline=None)
@given(_coeff_strategy(7), _coeff_strategy(7))
def test_positive_domination_property(a, b):
    f = AlgebraElement(I2, np.abs(a))
    g = AlgebraElement(I2, np.abs(b))
    assert dot(f, g).norm(1) <= conv(f, g).norm(1) + 1e-9


# -- finitely supported units --------------------------------------------


def _unit(S, F):
    """e_F as an element, from the one row of unit_rows."""
    return AlgebraElement(S, unit_rows(S, np.array([F]))[0])


def test_support_idempotents_singleton():
    e = int(I2.idempotents()[1])
    eF = _unit(I2, [e])
    assert eF.support() == [e]
    assert np.array_equal(eF.coeffs, AlgebraElement.delta(I2, e).coeffs)


def test_support_idempotents_single_point_shift():
    s = _i2_element(((0, 1),))
    r0 = _i2_element(((0, 0),))
    r1 = _i2_element(((1, 1),))
    eF = _unit(I2, [s])
    assert eF.support() == sorted([r0, r1])
    want = np.zeros(7, complex)
    want[r0] = want[r1] = 1
    assert np.array_equal(eF.coeffs, want)


def test_unit_rows_are_approx_identities():
    # each row has its ones at the xx* and x*x of its members, and padding
    # a row with its own members leaves its unit as it is
    rng = np.random.default_rng(6)
    S = gen_symmetric_inverse_monoid(3)
    members = rng.integers(0, S.n, (12, 4))
    rows = unit_rows(S, members)
    for F, row in zip(members, rows):
        idempotents = {int(S.ran[x]) for x in F} | {int(S.dom[x]) for x in F}
        assert np.flatnonzero(row).tolist() == sorted(idempotents)
        assert np.all(row[sorted(idempotents)] == 1.0)
        assert np.array_equal(row, unit_rows(S, np.append(F, F[:2])[None, :])[0])


def test_unit_nesting():
    rngl = np.random.default_rng(5)
    for _ in range(10):
        size_g = int(rngl.integers(1, I2.n))
        G = sorted(rngl.choice(I2.n, size=size_g, replace=False).tolist())
        extra = int(rngl.integers(0, I2.n))
        F = sorted(set(G) | {extra})
        eF, eG = _unit(I2, F), _unit(I2, G)
        assert max_abs_diff(dot(eF, eG), eG) == 0.0
        assert max_abs_diff(dot(eG, eF), eG) == 0.0


def test_unit_is_positive_symmetric():
    F = [0, 3, 5]
    eF = _unit(I2, F)
    assert np.all(eF.coeffs.real >= 0) and np.all(eF.coeffs.imag == 0)
    assert max_abs_diff(eF.tilde(), eF) == 0.0


# -- restriction map -----------------------------------------------------


def test_restrict_kernel_and_sections():
    rs = build_restricted_semigroup(I2)
    d0 = AlgebraElement.delta(rs.sr, rs.zero_index)
    assert restrict_to_base(d0, rs).norm(1) == 0.0
    for x in range(I2.n):
        dx = AlgebraElement.delta(rs.sr, x)
        assert np.array_equal(
            restrict_to_base(dx, rs).coeffs, AlgebraElement.delta(I2, x).coeffs
        )
    f = AlgebraElement.random(I2, np.random.default_rng(6))
    assert max_abs_diff(restrict_to_base(extend_from_base(f, rs, 3j), rs), f) == 0.0
    with pytest.raises(BaseMismatch):
        restrict_to_base(f, rs)


def test_restrict_is_homomorphism_on_deltas():
    rs = build_restricted_semigroup(I2)
    sr = rs.sr
    for a in range(sr.n):
        for b in range(sr.n):
            da, db = AlgebraElement.delta(sr, a), AlgebraElement.delta(sr, b)
            lhs = restrict_to_base(conv(da, db), rs)
            rhs = dot(restrict_to_base(da, rs), restrict_to_base(db, rs))
            assert np.array_equal(lhs.coeffs, rhs.coeffs), (a, b)


def test_quotient_norm_formula():
    rs = build_restricted_semigroup(I2)
    rngl = np.random.default_rng(7)
    for _ in range(25):
        f = AlgebraElement.random(rs.sr, rngl)
        tau_norm = restrict_to_base(f, rs).norm(1)
        best = (f + (-f.coeffs[rs.zero_index]) * AlgebraElement.delta(rs.sr, rs.zero_index)).norm(1)
        assert best == pytest.approx(tau_norm, abs=1e-13)
        # the formula minimizer dominates a random scalar scan
        for _ in range(20):
            c = complex(rngl.uniform(-2, 2), rngl.uniform(-2, 2))
            shifted = (f + c * AlgebraElement.delta(rs.sr, rs.zero_index)).norm(1)
            assert shifted >= tau_norm - 1e-13


# -- the order-relaxed product and its witness search ---------------------


def test_order_dot_chain_example():
    de = np.eye(2, dtype=complex)[[1]]
    got = order_dot_many(CHAIN2, de, de)
    assert got[0].tolist() == [1, 1]  # delta_1 + delta_e


def test_order_dot_not_associative_on_chain2():
    hit = order_dot_assoc_witness(CHAIN2)
    assert hit is not None
    x, y, z, lhs, rhs = hit
    assert (x, y, z) == (0, 1, 1)
    # recompute both associations independently
    dx, dy, dz = np.eye(CHAIN2.n, dtype=complex)[[[x], [y], [z]]]
    lhs2 = order_dot_many(CHAIN2, order_dot_many(CHAIN2, dx, dy), dz)[0]
    rhs2 = order_dot_many(CHAIN2, dx, order_dot_many(CHAIN2, dy, dz))[0]
    assert np.array_equal(lhs, lhs2)
    assert np.array_equal(rhs, rhs2)
    assert not np.array_equal(lhs2, rhs2)


def test_order_dot_groups_certified_associative():
    for S in (Z2, gen_group("cyclic", 4), gen_group("symmetric", 3)):
        assert order_dot_assoc_witness(S) is None


def test_order_dot_matches_the_coordinate_loop(full_corpus):
    rngl = np.random.default_rng(8)
    for label, S in full_corpus:
        xs, ys = np.divmod(np.arange(S.n * S.n), S.n)
        deltas = np.eye(S.n, dtype=complex)
        got = order_dot_many(S, deltas[xs], deltas[ys])
        for x, y, row in zip(xs, ys, got):
            assert np.array_equal(row, order_dot_loop(S, deltas[x], deltas[y])), (label, x, y)
        # the stream of 20 (f, g) pairs drawn one element at a time
        F, G = random_rows(S, rngl, 20, 2)
        for f, g, row in zip(F, G, order_dot_many(S, F, G)):
            assert np.abs(row - order_dot_loop(S, f, g)).max() < 1e-12, label


def test_order_dot_scan_matches_the_dense_scan(full_corpus):
    for record, (label, S) in zip(order_dot_scan(full_corpus), full_corpus):
        want = order_dot_assoc_witness_dense(S)
        assert record["label"] == label
        if want is None:
            assert record["witness"] is None, label
            continue
        assert record["witness"] == want[:3], label
        assert np.array_equal(record["lhs"], want[3]), label
        assert np.array_equal(record["rhs"], want[4]), label


@pytest.mark.memory
def test_order_dot_scan_memory_on_cold_i4():
    # no (n, n, n) table of delta products: the joins run one block of x at a time
    S = gen_symmetric_inverse_monoid(4)
    tracemalloc.start()
    try:
        hit = order_dot_assoc_witness(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is not None and hit[:3] == (0, 0, 1)
    assert peak < 20e6


def test_witness_search_deterministic_over_corpus():
    members = default_corpus(include_restricted=False)
    first = order_dot_scan(members)
    second = order_dot_scan(members)
    assert [r["label"] for r in first] == [r["label"] for r in second]
    assert [r["witness"] for r in first] == [r["witness"] for r in second]
    hit = next(r for r in first if r["witness"] is not None)
    assert hit["label"] == "chain2"
    assert hit["witness"] == (0, 1, 1)


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_scatter_is_the_bincount_reference():
    # np.add.at sums every bin from +0.0 in the order of the index, as two
    # real bincounts over the rows side by side do: bitwise equal, signed
    # zeros, infinities and NaNs included
    rng = np.random.default_rng(45)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = [
        (np.zeros((1, 0), dtype=np.complex128), np.zeros(0, dtype=np.intp), 0),
        (np.zeros((1, 0), dtype=np.complex128), np.zeros(0, dtype=np.intp), 7),
        (np.zeros((0, 3), dtype=np.complex128), np.array([0, 2, 2]), 4),
        # duplicate bins, summed in index order, with cancellations
        (np.array([[1e16, 1.0, -1e16, 1.0 + 2j, 3j]]), np.array([2, 2, 2, 0, 2]), 4),
        # signed zeros alone and mixed
        (np.array([[complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)]]), np.array([0, 1, 1]), 3),
        (np.array([[complex(-0.0, -0.0), complex(-0.0, -0.0)]]), np.array([1, 1]), 2),
    ]
    values = draw(1000)
    values[::7] = complex(-0.0, -0.0)
    values[3], values[5], values[9] = np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)
    index = rng.integers(0, 24 * 24, 1000)
    index[9] = index[3]  # inf + (1 - inf j) in one bin
    cases += [(values[None], index, 24 * 24), (values.reshape(4, 250), index[:250], 24 * 24)]
    # a 4-row dot block, 2 rows of lambda_r lifts and the L-class blocks of
    # I4 laid end to end
    I4 = gen_symmetric_inverse_monoid(4)
    a, b, c = dot_triples(I4).T
    F, G = random_rows(I4, rng, 4, count=2)
    cases.append((F[:, a] * G[:, b], c, I4.n))
    xs, ys, cols = restricted_left_regular(I4).entries()
    cases.append((draw(2, xs.size), ys * I4.n + cols, I4.n * I4.n))
    blocks = cstar._block_index(left_regular(I4))
    cases.append((draw(3, blocks.xs.size), blocks.flat, blocks.starts[-1]))
    for W, index, size in cases:
        rows = W.shape[0]
        bins = (np.arange(rows)[:, None] * size + index).ravel()
        want = scatter_reference(W.ravel(), bins, rows * size).reshape(rows, size)
        assert _bitwise(scatter_rows(W, index, size), want), size
