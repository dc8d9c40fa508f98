import numpy as np
import pytest

import restalg.restricted
from restalg.algebra import dot_triples
from restalg.errors import NotAssociative, VerificationFailure
from restalg.families import (
    all_partial_injections,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from restalg.restricted import (
    build_restricted_semigroup,
    composable_pairs,
    groupoid_law_violations,
    restricted_product,
)
from restalg.semigroups import MAX_ORDER
from restalg.verify import suite_axioms


def _i2_element(pairs):
    elems = all_partial_injections(2)
    return next(i for i, e in enumerate(elems) if e.pairs == pairs)


def test_group_products_always_defined():
    Z4 = gen_group("cyclic", 4)
    for x in range(4):
        for y in range(4):
            assert restricted_product(Z4, x, y) == (x + y) % 4


def test_semilattice_composable_iff_equal():
    S = gen_chain_semilattice(3)
    for e in range(3):
        for f in range(3):
            got = restricted_product(S, e, f)
            assert got == (e if e == f else None)


def test_i2_single_point_shift_not_self_composable():
    I2 = gen_symmetric_inverse_monoid(2)
    s = _i2_element(((0, 1),))
    assert restricted_product(I2, s, s) is None
    # s* s is the identity on {0}, s s* the identity on {1}
    assert I2.dom[s] == _i2_element(((0, 0),))
    assert I2.ran[s] == _i2_element(((1, 1),))


def test_composable_pairs_counts():
    for k in (2, 4):
        G = gen_group("cyclic", k)
        assert len(composable_pairs(G)) == k * k
    for k in (2, 3, 4):
        L = gen_chain_semilattice(k)
        assert composable_pairs(L) == [(e, e) for e in range(k)]


def test_composable_pairs_against_bruteforce_oracle():
    I2 = gen_symmetric_inverse_monoid(2)
    # independent double loop computing x*x and yy* from scratch
    expected = set()
    for x in range(I2.n):
        xx = I2.mul[I2.star[x], x]
        for y in range(I2.n):
            if xx == I2.mul[y, I2.star[y]]:
                expected.add((x, y))
    assert set(composable_pairs(I2)) == expected
    assert len(expected) == int(I2.composable_matrix().sum())


@pytest.mark.parametrize("k, count", [(3, 172), (4, 3809)])
def test_composable_triples_counts(k, count):
    S = gen_symmetric_inverse_monoid(k)
    triples = dot_triples(S)
    assert triples.shape == (count, 3)
    assert count == S.composable_matrix().sum()


def test_composable_triples_and_pairs_on_corpus(full_corpus):
    for label, S in full_corpus:
        triples = dot_triples(S)
        xs, ys = np.nonzero(S.composable_matrix())
        assert np.array_equal(triples[:, 0], xs) and np.array_equal(triples[:, 1], ys), label
        assert np.array_equal(triples[:, 2], S.mul[xs, ys]), label
        assert not triples.flags.writeable
        assert dot_triples(S) is triples
        assert composable_pairs(S) == list(zip(xs.tolist(), ys.tolist())), label


def test_build_restricted_semigroup_group():
    Z2 = gen_group("cyclic", 2)
    rs = build_restricted_semigroup(Z2)
    assert rs.sr.n == 3
    assert rs.zero_index == 2
    assert rs.sr.zero == 2
    # group table extended by an absorbing zero
    assert rs.sr.mul.tolist() == [[0, 1, 2], [1, 0, 2], [2, 2, 2]]
    assert rs.sr.identity == 0  # groups stay unital after adjoining zero


def test_build_restricted_semigroup_chain():
    S = gen_chain_semilattice(2)
    rs = build_restricted_semigroup(S)
    assert rs.sr.n == 3
    # e.1 = 0 and e.e = e; the top is no longer an identity
    assert rs.sr.mul[1, 0] == rs.zero_index
    assert rs.sr.mul[1, 1] == 1
    assert rs.sr.identity is None


def test_build_restricted_semigroup_i2():
    I2 = gen_symmetric_inverse_monoid(2)
    rs = build_restricted_semigroup(I2)
    assert rs.sr.n == 8
    assert rs.sr.star[rs.zero_index] == rs.zero_index
    # nonzero composable products stay in the embedded copy
    C = I2.composable_matrix()
    inside = rs.sr.mul[:7, :7][C]
    assert np.all(inside < 7)
    assert np.all(rs.sr.mul[:7, :7][~C] == rs.zero_index)


def test_embed_project_roundtrip():
    I2 = gen_symmetric_inverse_monoid(2)
    rs = build_restricted_semigroup(I2)
    for x in range(I2.n):
        assert rs.project(rs.embed(x)) == x
    assert rs.project(rs.zero_index) is None
    with pytest.raises(ValueError):
        rs.embed(I2.n)
    with pytest.raises(ValueError):
        rs.project(rs.zero_index + 1)


def test_groupoid_laws_hold_on_corpus(full_corpus):
    for label, S in full_corpus:
        assert groupoid_law_violations(S) == [], label


def test_restricted_of_restricted_is_still_inverse():
    S = gen_chain_semilattice(2)
    rs = build_restricted_semigroup(S)
    rs2 = build_restricted_semigroup(rs.sr)
    assert rs2.sr.n == 4


def test_restricted_of_a_semigroup_at_the_bound():
    # one element past MAX_ORDER: a table built from a validated one
    S = gen_chain_semilattice(MAX_ORDER)
    rs = build_restricted_semigroup(S)
    assert rs.sr.n == MAX_ORDER + 1 and rs.sr.zero == MAX_ORDER
    assert all(c.passed for c in suite_axioms(S))


def test_build_restricted_semigroup_is_kept_on_s(monkeypatch):
    S = gen_chain_semilattice(3)

    def broken(*args, **kwargs):
        raise NotAssociative("broken on purpose", witness=(0, 1, 2))

    # a build that raises is not kept, so every call and the axioms suite
    # report it
    with monkeypatch.context() as m:
        m.setattr(restalg.restricted, "validate_table", broken)
        for _ in range(2):
            with pytest.raises(VerificationFailure, match="broken on purpose"):
                build_restricted_semigroup(S)
        checks = {c.id: c for c in suite_axioms(S)}
        assert not checks["axioms.zero-adjoined"].passed
    rs = build_restricted_semigroup(S)
    assert build_restricted_semigroup(S) is rs
    assert {c.id: c for c in suite_axioms(S)}["axioms.zero-adjoined"].passed
