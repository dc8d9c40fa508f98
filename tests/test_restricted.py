import numpy as np
import pytest

import restalg.restricted
import restalg.verify
from dense_reference import groupoid_law_violations_loop
from helpers import corpus_member
from restalg.algebra import dot_triples
from restalg.errors import NotAssociative, VerificationFailure
from restalg.families import (
    all_partial_injections,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from restalg.restricted import build_restricted_semigroup, groupoid_law_violations
from restalg.semigroups import MAX_ORDER, FiniteInvSemigroup
from restalg.verify import suite_axioms


def _i2_element(pairs):
    elems = all_partial_injections(2)
    return next(i for i, e in enumerate(elems) if e == pairs)


def _pairs(S):
    """The composable pairs (x, y) of dot_triples, row-major."""
    return [(x, y) for x, y, _ in dot_triples(S).tolist()]


def test_group_products_always_defined():
    Z4 = gen_group("cyclic", 4)
    assert dot_triples(Z4).tolist() == [[x, y, (x + y) % 4] for x in range(4) for y in range(4)]


def test_semilattice_composable_iff_equal():
    S = gen_chain_semilattice(3)
    assert dot_triples(S).tolist() == [[e, e, e] for e in range(3)]


def test_i2_single_point_shift_not_self_composable():
    I2 = gen_symmetric_inverse_monoid(2)
    s = _i2_element(((0, 1),))
    assert not I2.composable_matrix()[s, s] and (s, s) not in _pairs(I2)
    # s* s is the identity on {0}, s s* the identity on {1}
    assert I2.dom[s] == _i2_element(((0, 0),))
    assert I2.ran[s] == _i2_element(((1, 1),))


def test_composable_pairs_counts():
    for k in (2, 4):
        G = gen_group("cyclic", k)
        assert len(_pairs(G)) == k * k
    for k in (2, 3, 4):
        L = gen_chain_semilattice(k)
        assert _pairs(L) == [(e, e) for e in range(k)]


def test_composable_pairs_against_bruteforce_oracle():
    I2 = gen_symmetric_inverse_monoid(2)
    # independent double loop computing x*x and yy* from scratch
    expected = set()
    for x in range(I2.n):
        xx = I2.mul[I2.star[x], x]
        for y in range(I2.n):
            if xx == I2.mul[y, I2.star[y]]:
                expected.add((x, y))
    assert set(_pairs(I2)) == expected
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


@pytest.fixture(scope="module")
def large_semigroups():
    """I4 and its zero-adjoined semigroup, B(Z3, 9), the order-256 chain
    and Z256."""
    I4 = gen_symmetric_inverse_monoid(4)
    return {
        "I4": I4,
        "I4_r": build_restricted_semigroup(I4).sr,
        "B(Z3, 9)": gen_brandt(gen_group("cyclic", 3).mul, 9),
        "chain256": gen_chain_semilattice(MAX_ORDER),
        "Z256": gen_group("cyclic", MAX_ORDER),
    }


def test_groupoid_laws_hold_on_corpus(full_corpus, large_semigroups):
    # the Brandt-coordinate route and the scan over all triples
    for label, S in [*full_corpus, *large_semigroups.items()]:
        assert groupoid_law_violations(S) == groupoid_law_violations_loop(S) == [], label


def _changed(S, x, y, value):
    """S's table past validation with xy set to ``value``."""
    mul = S.mul.copy()
    mul[x, y] = value
    return FiniteInvSemigroup(mul, S.star)


@pytest.mark.parametrize("label", ["I3", "I4", "B(Z3, 9)"], ids=["I3", "I4", "B_Z3_9"])
def test_groupoid_check_fails_on_a_redirected_product(monkeypatch, full_corpus, large_semigroups, label):
    # x (x*x) = x redirected to x*, at the first x with xx* != x*x: the
    # pair is neither (z*, z) nor (z, z*), so every x*x and xx* stays
    S = {**dict(full_corpus), **large_semigroups}[label]
    x = int(np.argmax(S.ran != S.dom))
    T = _changed(S, x, S.dom[x], S.star[x])
    assert np.array_equal(T.dom, S.dom) and np.array_equal(T.ran, S.ran)
    got = groupoid_law_violations(T)
    assert f"at x={x}, y={S.dom[x]}" in got[0]
    assert groupoid_law_violations_loop(T)
    # through the suite, with the table check patched out and S's own
    # zero-adjoined semigroup standing in for T's, which is not one
    monkeypatch.setattr(restalg.verify, "validate_table", lambda mul, star: None)
    monkeypatch.setattr(restalg.verify, "build_restricted_semigroup", lambda _: build_restricted_semigroup(S))
    failed = {c.id for c in suite_axioms(T) if not c.passed}
    assert failed == {"axioms.groupoid", "axioms.star-antihom", "axioms.zero-adjoined-rule"}


# the laws of groupoid_law_violations, by a phrase of their messages
LAWS = {
    "not composable": "composable",
    "no Brandt coordinates": "coordinates",
    "lacks the coordinates": "product",
    "not a bijection": "bijection",
    "breaks its laws": "group",
}


def _hit_by_a_mate(label):
    """I3 or I4 with x (x*x) = x redirected to the other element of x's
    H-class, at the first x with xx* != x*x that has one: i, j and D stay,
    and only g(x (x*x)) moves."""
    S = corpus_member(label) if label == "I3" else gen_symmetric_inverse_monoid(4)
    idx = np.arange(S.n)
    mates = (S.ran[:, None] == S.ran) & (S.dom[:, None] == S.dom) & (idx[:, None] != idx)
    x = int(np.flatnonzero((S.ran != S.dom) & mates.any(axis=1))[0])
    return _changed(S, x, S.dom[x], int(np.argmax(mates[x])))


@pytest.mark.parametrize(
    "law, build",
    [
        # B2_1 with star(3) = 5: x x* and x* x are not composable at 3
        ("composable", lambda: FiniteInvSemigroup(corpus_member("B2_1").mul, [0, 2, 1, 5, 4, 5])),
        # xx* at 2 is 1, not an idempotent, so 2 lies in no class
        ("coordinates", lambda: FiniteInvSemigroup([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [0, 0, 2])),
        # the first law, by its coordinates D, i, j and g: Z4 with 2 2 = 2,
        # I2 with 2 1 = 1 and 2 1 = 4, and g alone in I3 and I4
        ("product", lambda: _changed(corpus_member("Z4"), 2, 2, 2)),
        ("product", lambda: _changed(corpus_member("I2"), 2, 1, 1)),
        ("product", lambda: _changed(corpus_member("I2"), 2, 1, 4)),
        ("product", lambda: _hit_by_a_mate("I3")),
        ("product", lambda: _hit_by_a_mate("I4")),
        # the arrow at the one idempotent 1 is 0, and g(1) = g(2) = 1
        ("bijection", lambda: FiniteInvSemigroup([[1, 0, 0], [0, 1, 2], [0, 2, 1]], [0, 1, 2])),
        # the group of the idempotent 0 is all three, and 1 0 = 2, or 0 1 = 2
        ("group", lambda: FiniteInvSemigroup([[0, 1, 2], [2, 0, 0], [1, 0, 0]], [0, 1, 1])),
        ("group", lambda: FiniteInvSemigroup([[0, 2, 1], [1, 0, 0], [2, 0, 0]], [0, 1, 1])),
    ],
    ids=["composable", "coordinates", "D", "i", "j", "g-I3", "g-I4", "bijection", "group-right", "group-left"],
)
def test_groupoid_check_fails_each_law_alone(law, build):
    # one table past validation per law that breaks it and no other; the
    # scan over all triples reports each table too
    T = build()
    got = groupoid_law_violations(T)
    assert {k for msg in got for phrase, k in LAWS.items() if phrase in msg} == {law}, got
    assert groupoid_law_violations_loop(T)


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
