import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import restalg.semigroups
from dense_reference import (
    PartialInjection,
    associativity_witness_loop,
    derive_star_loop,
    latin_square_loop,
    union_find_idempotent_classes,
)
from helpers import corpus_member
from restalg.errors import (
    InvalidGroupTable,
    NotAssociative,
    NotInverse,
    SizeLimit,
    StarMismatch,
    VerificationFailure,
)
from restalg.families import (
    adjoin_identity,
    all_partial_injections,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_semilattice,
    gen_symmetric_inverse_monoid,
    symmetric_inverse_monoid_order,
)
from restalg.restricted import build_restricted_semigroup
from restalg.semigroups import (
    MAX_ORDER,
    FiniteInvSemigroup,
    _derive_star,
    associativity_witness,
    build_from_table,
    first_mismatch,
    generating_set,
    validate_table,
)

RIGHT_ZERO = [[0, 1], [0, 1]]  # xy = y; idempotents do not commute
LEFT_ZERO = [[0, 0], [1, 1]]
NULL = [[0, 0], [0, 0]]
# the left-zero band {0, 1} with an identity 2: both 0 and 1 are
# generalized inverses of 0
TWO_INVERSES = [[0, 0, 0], [1, 1, 1], [0, 1, 2]]


def test_trivial_table():
    S = build_from_table([[0]])
    assert S.n == 1
    assert S.star[0] == 0
    assert S.identity == 0
    assert S.zero == 0


def test_z2_star_is_identity_map():
    S = build_from_table([[0, 1], [1, 0]])
    assert S.star.tolist() == [0, 1]
    assert S.identity == 0
    assert S.zero is None


def test_right_zero_rejected_with_commuting_witness():
    with pytest.raises(NotInverse) as info:
        build_from_table(RIGHT_ZERO)
    assert info.value.witness == (0, 1)
    assert "commute" in str(info.value)


def test_not_associative_witness():
    # x*y = x except 1*1 = 0 breaks associativity on {0,1} with a third row
    table = [[0, 0, 0], [0, 0, 1], [0, 1, 2]]
    with pytest.raises((NotAssociative, NotInverse)) as info:
        build_from_table(table)
    if isinstance(info.value, NotAssociative):
        x, y, z = info.value.witness
        t = np.array(table)
        assert t[t[x, y], z] != t[x, t[y, z]]


def test_left_zero_rejected():
    with pytest.raises(NotInverse):
        build_from_table(LEFT_ZERO)


def test_null_semigroup_not_regular():
    # xy = 0 always; the non-zero element has no generalized inverse
    with pytest.raises(NotInverse) as info:
        build_from_table(NULL)
    assert info.value.witness == (1, ())
    assert str(info.value) == "element 1 has no generalized inverse"


def _derived(derive, t):
    """The derived star as a list, or the NotInverse message and witness."""
    try:
        return derive(np.asarray(t)).tolist()
    except NotInverse as exc:
        return str(exc), exc.witness


def test_derived_star_matches_the_element_loop(full_corpus):
    I4 = gen_symmetric_inverse_monoid(4)
    for S in [S for _, S in full_corpus] + [I4, build_restricted_semigroup(I4).sr]:
        assert _derived(_derive_star, S.mul) == _derived(derive_star_loop, S.mul) == S.star.tolist()
    # rejected: the null semigroup has no inverse of 1; the others fail the
    # commuting idempotents first, so their derivation is called directly
    for t in (NULL, LEFT_ZERO, RIGHT_ZERO, TWO_INVERSES):
        assert isinstance(_derived(derive_star_loop, t), tuple)
        assert _derived(_derive_star, t) == _derived(derive_star_loop, t)
    assert _derived(_derive_star, TWO_INVERSES)[1] == (0, (0, 1))


def test_supplied_star_checked():
    with pytest.raises(StarMismatch):
        build_from_table([[0, 1], [1, 0]], star=[1, 0])


@pytest.mark.parametrize("label", ["S3", "I2", "I3", "B2_1", "S3_r", "I2_r", "I3_r", "B2_1_r"])
def test_every_swapped_star_is_rejected(label):
    S = corpus_member(label)
    for i, j in itertools.combinations(range(S.n), 2):
        star = S.star.copy()
        star[[i, j]] = star[[j, i]]
        with pytest.raises(StarMismatch):
            build_from_table(S.mul, star)


@pytest.mark.parametrize(
    "label, star, x",
    [
        ("chain2", [0, 0], 1),  # regular and antimultiplicative, not an involution
        ("Z4", [0, 1, 2, 3], 1),  # an antimultiplicative involution, 1 + 1 + 1 != 1
        # regular, neither an involution nor antimultiplicative: a regular
        # involution is the derived star, so nothing breaks the
        # antihomomorphism alone (see the exhaustive test below)
        ("chain3", [0, 1, 0], 2),
    ],
)
def test_stars_breaking_one_property_are_rejected(label, star, x):
    with pytest.raises(StarMismatch) as info:
        build_from_table(corpus_member(label).mul, star)
    assert info.value.witness == (x,)


@pytest.mark.parametrize("label", ["Z4", "chain3", "S3", "B2_1"])
def test_the_derived_star_is_the_only_regular_involution(label):
    # over every map on S: the involution, regularity and antihomomorphism
    # checks accept exactly the derived star, and the antihomomorphism
    # check decides nothing the other two leave open
    S = corpus_member(label)
    t, idx = S.mul, np.arange(S.n)
    stars = np.array(list(itertools.product(range(S.n), repeat=S.n)))
    involution = np.all(np.take_along_axis(stars, stars, axis=1) == idx, axis=1)
    regular = np.all(t[t[idx, stars], idx] == idx, axis=1)
    antihom = np.all(stars[:, t] == t[stars[:, None, :], stars[:, :, None]], axis=(1, 2))
    derived = np.all(stars == S.star, axis=1)
    assert np.array_equal(involution & regular & antihom, derived)
    assert np.array_equal(involution & regular, derived)


@pytest.mark.parametrize("star", [[0, 1], [-1], []])
def test_malformed_star_is_a_value_error(star):
    # an input error, as a malformed table is; not an axiom violation
    with pytest.raises(ValueError, match="one index in 0..n-1 per element"):
        build_from_table([[0]], star=star)


def test_supplied_star_accepted():
    S = build_from_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                         star=[0, 3, 2, 1])
    assert S.star.tolist() == [0, 3, 2, 1]


@pytest.mark.memory
def test_size_limit(monkeypatch):
    # checked before any scan: no row of the table is read, so nothing near
    # its 0.5 MB is allocated
    table = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1), dtype=np.intp)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match=f"order {MAX_ORDER + 1} exceeds MAX_ORDER"):
            build_from_table(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    monkeypatch.setattr(restalg.semigroups, "MAX_ORDER", 0)
    with pytest.raises(SizeLimit, match="order 1 exceeds MAX_ORDER = 0"):
        build_from_table([[0]])


def test_bad_entries_rejected():
    with pytest.raises(ValueError):
        build_from_table([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        build_from_table([[0, 1]])


@pytest.mark.parametrize(
    "table, star, match",
    [
        ([[0, 1.9], [1.2, 0]], None, "table entries must be integers, got dtype float64"),
        ([[0, 1], [1, 0]], [0.4, 1.7], "involution map entries must be integers, got dtype float64"),
        ([[False, True], [True, False]], None, "table entries must be integers, got dtype bool"),
    ],
)
def test_non_integer_entries_are_not_truncated(table, star, match):
    # each would pass as Z2 if its entries were cast to indices
    with pytest.raises(ValueError, match=match):
        build_from_table(table, star)


# -- idempotents and the natural order ---------------------------------


def test_group_has_single_idempotent():
    S = gen_group("cyclic", 2)
    assert S.idempotents().tolist() == [0]
    assert S.is_group


def test_i2_has_four_idempotents():
    I2 = gen_symmetric_inverse_monoid(2)
    idem = I2.idempotents()
    assert len(idem) == 4
    # the idempotents are the partial identities: one per subset of {0, 1}
    elems = all_partial_injections(2)
    partial_identities = {
        i for i, e in enumerate(elems) if all(p == q for p, q in e)
    }
    assert set(idem.tolist()) == partial_identities


def test_semilattice_is_all_idempotent():
    for k in (2, 3, 4):
        S = gen_chain_semilattice(k)
        assert len(S.idempotents()) == k


def test_natural_order_reflexive():
    S = gen_chain_semilattice(3)
    for e in S.idempotents():
        assert S.order_table()[e, e]


def test_natural_order_in_i2():
    I2 = gen_symmetric_inverse_monoid(2)
    elems = all_partial_injections(2)
    index = {e: i for i, e in enumerate(elems)}
    empty = index[()]
    ident = index[((0, 0), (1, 1))]
    r0 = index[((0, 0),)]
    r1 = index[((1, 1),)]
    leq = I2.order_table()
    assert leq[empty, ident] and leq[r0, ident] and leq[empty, r1]
    assert not leq[r0, r1]
    assert not leq[r1, r0]
    assert not leq[ident, r0]


# -- partial injections -------------------------------------------------


def test_partial_injection_validation():
    with pytest.raises(ValueError):
        PartialInjection(2, ((0, 1), (1, 1)))  # repeated image
    with pytest.raises(ValueError):
        PartialInjection(2, ((0, 1), (0, 0)))  # repeated point
    with pytest.raises(ValueError):
        PartialInjection(2, ((0, 2),))  # out of range


def test_partial_injection_compose_inverse():
    s = PartialInjection(2, ((0, 1),))
    assert s.compose(s).pairs == ()  # 0 -> 1, then 1 is outside the domain
    assert s.inverse().pairs == ((1, 0),)
    assert s.inverse().compose(s).pairs == ((0, 0),)
    assert s.compose(s.inverse()).pairs == ((1, 1),)


def test_partial_injection_call():
    s = PartialInjection(3, ((0, 2), (2, 1)))
    assert s(0) == 2 and s(2) == 1 and s(1) is None
    assert s.domain() == (0, 2)
    assert s.image() == (1, 2)


# -- generators ----------------------------------------------------------


@pytest.mark.parametrize("n,order", [(1, 2), (2, 7), (3, 34), (4, 209)])
def test_symmetric_inverse_monoid_order(n, order):
    # independent oracle: the size formula sum C(n,k)^2 k!
    formula = sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))
    assert formula == order
    assert symmetric_inverse_monoid_order(n) == order
    if n <= 3:
        S = gen_symmetric_inverse_monoid(n)
        assert S.n == order
        assert S.identity is not None
        assert S.zero is not None  # the empty map absorbs


@pytest.mark.memory
def test_symmetric_inverse_monoid_size_guard(monkeypatch):
    with pytest.raises(SizeLimit, match="order 1546 exceeds MAX_ORDER = 256"):
        gen_symmetric_inverse_monoid(5)
    # refused at I5 without summing over a million points
    with pytest.raises(SizeLimit, match=r"order sum C\(1000000,k\)\^2 k! exceeds"):
        gen_symmetric_inverse_monoid(10**6)
    with pytest.raises(SizeLimit, match="must be positive"):
        gen_symmetric_inverse_monoid(0)
    monkeypatch.setattr(restalg.semigroups, "MAX_ORDER", 33)
    with pytest.raises(SizeLimit, match="order 34 exceeds MAX_ORDER = 33"):
        gen_symmetric_inverse_monoid(3)
    assert gen_symmetric_inverse_monoid(2).n == 7


def test_symmetric_group():
    S3 = gen_group("symmetric", 3)
    assert S3.n == 6
    assert S3.identity is not None
    assert not S3.is_group or len(S3.idempotents()) == 1


@pytest.mark.memory
def test_symmetric_group_size_guard_lists_no_permutations(monkeypatch):
    # 9! = 362880 > MAX_ORDER: refused from the order alone
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="9!"):
            gen_group("symmetric", 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert gen_group("symmetric", 5).n == 120
    monkeypatch.setattr(restalg.semigroups, "MAX_ORDER", 119)
    with pytest.raises(SizeLimit, match="5!"):
        gen_group("symmetric", 5)


def test_gen_group_unknown_kind():
    with pytest.raises(ValueError):
        gen_group("dihedral", 3)


def test_chain_semilattice_order_structure():
    S = gen_chain_semilattice(2)
    assert S.identity == 0
    assert S.order_table()[1, 0]
    assert not S.order_table()[0, 1]
    assert S.labels == ["1", "e1"]


def test_gen_semilattice_from_meet_table():
    S = gen_semilattice([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert len(S.idempotents()) == 3
    with pytest.raises(ValueError):
        gen_semilattice([[1, 1], [1, 1]])  # not idempotent
    with pytest.raises(ValueError):
        gen_semilattice([[0, 0], [1, 1]])  # not commutative


def test_brandt_with_identity_is_b2_plus_one():
    B2 = gen_brandt([[0]], 2)
    assert B2.n == 5
    assert B2.zero == 4
    assert B2.identity is None
    S = adjoin_identity(B2)
    assert S.n == 6
    assert S.identity == 5
    assert S.zero == 4  # the old zero still absorbs


@pytest.mark.parametrize("row, col", [(1, 3), (3, 1)])
def test_group_table_witness_matches_the_row_column_loop(row, col):
    # Z4 with its entry 0 at (row, col) made 3: the first x whose row or
    # column repeats an entry is 1, found in row 1 for (1, 3) (column 1
    # is still a permutation) and in column 1 for (3, 1)
    t = gen_group("cyclic", 4).mul.copy()
    t[row, col] = 3
    with pytest.raises(InvalidGroupTable) as ref:
        latin_square_loop(t)
    with pytest.raises(InvalidGroupTable) as info:
        gen_brandt(t, 1)
    assert info.value.witness == ref.value.witness == (1,)
    assert str(info.value) == str(ref.value)


def test_brandt_rejects_non_group():
    with pytest.raises(InvalidGroupTable):
        gen_brandt([[0, 0], [0, 0]], 2)
    with pytest.raises(InvalidGroupTable):
        gen_brandt(RIGHT_ZERO, 2)


def test_adjoin_identity_on_monoid():
    Z2 = gen_group("cyclic", 2)
    S = adjoin_identity(Z2)
    assert S.n == 3
    assert S.identity == 2


# -- exhaustive structural properties over the corpus --------------------


def test_corpus_axioms_exhaustive(full_corpus):
    idx_of = {}
    for label, S in full_corpus:
        # revalidates associativity (Light's test) and regenerates star
        T = build_from_table(S.mul, S.star)
        assert np.array_equal(T.star, S.star), label
        idx = np.arange(S.n)
        assert np.array_equal(S.star[S.star], idx), label
        for x in range(S.n):
            assert np.array_equal(
                S.star[S.mul[x]], S.mul[S.star, S.star[x]]
            ), (label, x)
        idx_of[label] = S.n
    assert idx_of["I3"] == 34


def test_corpus_idempotents_closed_commutative(full_corpus):
    for label, S in full_corpus:
        E = S.idempotents()
        sub = S.mul[np.ix_(E, E)]
        assert np.array_equal(sub, sub.T), label
        assert np.all(np.isin(sub, E)), label
        assert set(E.tolist()) == set(S.ran.tolist()), label


# -- associativity: Light's test against the triple scan -----------------

# a loop of order 5 (a Latin square with identity 0) that is not a group
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def _genuine(t, witness):
    x, y, z = witness
    return t[t[x, y], z] != t[x, t[y, z]]


def _same_verdict(t):
    """Light's test and the triple scan agree on t, and a witness of the
    first fails associativity; returns the verdict."""
    bad = associativity_witness(t)
    assert (bad is None) == (associativity_witness_loop(t) is None)
    assert bad is None or _genuine(t, bad)
    return bad


def _closure(t, gens):
    """The subset of 0..n-1 closed under t that holds gens, by squaring."""
    inside = np.zeros(t.shape[0], dtype=bool)
    inside[gens] = True
    while True:
        members = np.flatnonzero(inside)
        grown = inside.copy()
        grown[t[np.ix_(members, members)]] = True
        if np.array_equal(grown, inside):
            return members
        inside = grown


@pytest.fixture(scope="module")
def large_tables(seed):
    """I4, B(Z3, 9), Z256 and the order-256 chain, with the zero-adjoined
    tables of I4 and the chain, and I4 under a random relabelling."""
    I4 = gen_symmetric_inverse_monoid(4)
    chain = gen_chain_semilattice(MAX_ORDER)
    perm = np.random.default_rng(seed).permutation(I4.n)
    relabelled = np.empty_like(I4.mul)
    relabelled[np.ix_(perm, perm)] = perm[I4.mul]
    return {
        "I4": I4.mul,
        "I4_r": build_restricted_semigroup(I4).sr.mul,
        "I4-relabelled": relabelled,
        "B(Z3, 9)": gen_brandt(gen_group("cyclic", 3).mul, 9).mul,
        "Z256": gen_group("cyclic", 256).mul,
        "chain256": chain.mul,
        "chain256_r": build_restricted_semigroup(chain).sr.mul,
    }


def test_light_test_agrees_with_the_triple_scan(full_corpus, large_tables):
    tables = [S.mul for _, S in full_corpus] + list(large_tables.values())
    for t in tables:
        assert _same_verdict(t) is None
        assert _closure(t, generating_set(t)).size == t.shape[0]
    # each element of a chain is a product only of itself and smaller ones
    assert generating_set(large_tables["chain256"]).size == MAX_ORDER
    # the relabelled copy takes its generators in another order
    assert generating_set(large_tables["I4-relabelled"]).tolist() != generating_set(large_tables["I4"]).tolist()
    assert _same_verdict(np.array(LOOP5)) is not None


def test_light_test_agrees_on_every_changed_entry(full_corpus):
    rejected = 0
    for _, S in full_corpus:
        if S.n > 8:
            continue
        for x, y in itertools.product(range(S.n), repeat=2):
            for v in range(S.n):
                if v == S.mul[x, y]:
                    continue
                t = S.mul.copy()
                t[x, y] = v
                rejected += _same_verdict(t) is not None
    assert rejected > 0


# each scan twice: with blocks of one key, and at the default block size
BLOCKS = pytest.mark.parametrize("one_key_blocks", [True, False], ids=["one-key blocks", "default blocks"])


@BLOCKS
def test_first_mismatch_is_the_first_block_with_a_mismatch(monkeypatch, one_key_blocks):
    if one_key_blocks:
        monkeypatch.setattr(restalg.semigroups, "BLOCK_ENTRIES", 1)
    rng = np.random.default_rng(29)
    found = 0
    for _ in range(200):
        P, K, Q, m, r = rng.integers(1, 6, 5)
        L, R = rng.integers(0, 3, (m, Q)), rng.integers(0, 3, (P, r))
        rows, cols = rng.integers(-1, m, (P, K)), rng.integers(-1, r, (K, Q))
        # every entry read directly, -1 as the last row or column
        want = np.zeros((P, K, Q), dtype=bool)
        for p, k, q in np.ndindex(P, K, Q):
            want[p, k, q] = L[rows[p, k] % m, q] != R[p, cols[k, q] % r]
        hit = first_mismatch(L, rows, R, cols)
        if not want.any():
            assert hit is None
            continue
        lo, ne = hit
        first = int(np.argmax(want.any(axis=(0, 2))))
        assert lo <= first < lo + ne.shape[1]
        assert np.array_equal(ne, want[:, lo : lo + ne.shape[1]])
        if one_key_blocks:
            assert (lo, ne.shape[1]) == (first, 1)
        found += 1
    assert 0 < found < 200


@BLOCKS
def test_light_witness_on_broken_tables(monkeypatch, full_corpus, large_tables, one_key_blocks):
    # one entry of each table changed at random: the witness may depend on
    # the blocks, but it is a genuine failing triple with a generator in
    # the middle, and it is None exactly when the triple scan finds none
    if one_key_blocks:
        monkeypatch.setattr(restalg.semigroups, "BLOCK_ENTRIES", 1)
    rng = np.random.default_rng(31)
    rejected = 0
    for t in [S.mul for _, S in full_corpus] + list(large_tables.values()):
        n = t.shape[0]
        for _ in range(3):
            x, y = rng.integers(n, size=2)
            broken = t.copy()
            broken[x, y] = (t[x, y] + rng.integers(1, n)) % n if n > 1 else 0
            bad = _same_verdict(broken)
            if bad is not None:
                assert bad[1] in generating_set(broken).tolist()
                rejected += 1
    assert rejected > len(full_corpus)


def test_generating_sets_are_pinned(large_tables):
    # the greedy order is part of what validation keeps on S: the frontier
    # products by row and column slices give the sets np.ix_ gave
    assert generating_set(large_tables["I4"]).tolist() == [185, 186, 187, 191, 89]
    assert generating_set(large_tables["I4_r"]).tolist() == [
        89, 90, 91, 92, 95, 98, 113, 137, 161, 185, 186, 187, 191,
        17, 18, 19, 20, 21, 22, 25, 29, 41, 53, 65, 77, 1, 2, 3, 4, 5, 9, 13, 0,
    ]  # fmt: skip
    assert generating_set(large_tables["Z256"]).tolist() == [0, 1]


def test_validation_keeps_its_generating_set(monkeypatch):
    I4 = gen_symmetric_inverse_monoid(4)
    calls = []
    counted = restalg.semigroups.generating_set

    def counting(t):
        calls.append(t.shape[0])
        return counted(t)

    monkeypatch.setattr(restalg.semigroups, "generating_set", counting)
    S = build_from_table(I4.mul, labels=I4.labels)
    sr = build_restricted_semigroup(S).sr
    for T in (S, sr):
        gens = T.generators()
        assert T.generators() is gens
        assert not gens.flags.writeable
        assert gens.tolist() == counted(T.mul).tolist()
        assert _closure(T.mul, gens).size == T.n
    # one greedy search per validated table, none for generators()
    assert calls == [S.n, sr.n]
    # a semigroup built without validation finds its set on first use
    raw = FiniteInvSemigroup(S.mul, S.star)
    assert raw.generators().tolist() == S.generators().tolist()
    assert calls == [S.n, sr.n, S.n]


@pytest.mark.memory
@pytest.mark.parametrize("label", ["chain256", "chain256_r"])
def test_validation_memory_when_every_element_generates(large_tables, label):
    # g = n: the blocked check reuses its buffers, so memory stays O(n^2)
    t = large_tables[label]
    tracemalloc.start()
    try:
        validate_table(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_non_associative_latin_square_is_not_a_group():
    # the Latin-square test passes, so the associativity branch rejects it
    latin_square_loop(LOOP5)
    with pytest.raises(InvalidGroupTable, match="group table is not associative") as info:
        gen_brandt(LOOP5, 1)
    assert _genuine(np.array(LOOP5), info.value.witness)


# ---------------------------------------------------------------------
# Brandt coordinates


def test_brandt_coordinates_are_kept_read_only_and_freed_with_s():
    S = gen_symmetric_inverse_monoid(3)
    b = S.brandt()
    assert S.brandt() is b  # built once per S
    for arr in (b.D, b.i, b.j, b.g, b.arrows, *b.classes):
        assert not arr.flags.writeable
    ref = weakref.ref(S)
    del S
    gc.collect()
    assert ref() is None
    assert b.D.size == 34  # the arrays outlive S


def _brandt_tables(full_corpus, large_tables):
    return list(full_corpus) + [(label, validate_table(t)) for label, t in large_tables.items()]


def test_brandt_coordinates_element_by_element(full_corpus, large_tables):
    for label, S in _brandt_tables(full_corpus, large_tables):
        b = S.brandt()
        classes = [c.tolist() for c in b.classes]
        assert classes == union_find_idempotent_classes(S), label
        arrows = {}
        for x in range(S.n):
            e, f = int(S.ran[x]), int(S.dom[x])
            cls = classes[b.D[x]]
            assert (cls[b.i[x]], cls[b.j[x]]) == (e, f), (label, x)
            # the arrow at e is the first candidate in element order
            if f == cls[0] and e not in arrows:
                arrows[e] = x
        want = np.full(S.n, -1)
        want[list(arrows)] = list(arrows.values())
        assert np.array_equal(b.arrows, want), label
        for x in range(S.n):
            ti, tj = b.arrows[S.ran[x]], b.arrows[S.dom[x]]
            g = S.mul[S.mul[S.star[ti], x], tj]
            e1 = b.classes[b.D[x]][0]
            assert b.g[x] == g and S.ran[g] == S.dom[g] == e1, (label, x)


def test_brandt_points_count_the_elements(full_corpus, large_tables):
    # sum over the D-classes of m_D^2 |G_D| = n, G_D the H-class of e_1
    for label, S in _brandt_tables(full_corpus, large_tables):
        pairs = [(c.size, int(((S.ran == c[0]) & (S.dom == c[0])).sum())) for c in S.brandt().classes]
        assert sum(m * m * g for m, g in pairs) == S.n, label
        if label == "I4":
            assert pairs == [(1, 1), (4, 1), (6, 2), (4, 6), (1, 24)]
        if label == "chain256":
            assert pairs == [(1, 1)] * MAX_ORDER


def test_brandt_rejects_a_table_without_coordinates():
    # Z2 with star(0) = 1, taken past validation: xx* at x = 0 is 1, not
    # an idempotent, so it lies in no class
    S = FiniteInvSemigroup([[0, 1], [1, 0]], [1, 1])
    for _ in range(2):  # a build that raises is not kept
        with pytest.raises(VerificationFailure, match="no Brandt coordinates") as info:
            S.brandt()
        assert info.value.witness == (0,)
