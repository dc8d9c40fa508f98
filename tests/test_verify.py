import dataclasses
import importlib
import tracemalloc

import numpy as np
import pytest

import restalg.algebra
import restalg.cstar
import restalg.reps
import restalg.verify
from dense_reference import (
    approx_identity_loop,
    delta_absorption_pairs,
    delta_dot_pairs,
    lambda_inner_identity_loop,
    opnorm_backend_loop,
    quotient_match_loop,
    quotient_match_report_loop,
    rho_inner_identity_loop,
    rho_lift_identity_loop,
    sigma_cross_check_loop,
    tau_homomorphism_pairs,
    tilde_delta_pairs,
    unit_laws_blocks,
    unit_projection_loop,
)
from helpers import corpus_member
from restalg.algebra import AlgebraElement, conv, conv_triples, delta_assoc_witness, dot_triples, scatter_rows
from restalg.corpus import default_corpus
from restalg.cstar import quotient_match_report
from restalg.families import gen_brandt, gen_chain_semilattice, gen_group, gen_symmetric_inverse_monoid
from restalg.reps import (
    KIND_RESTRICTED,
    Representation,
    lambda_inner_identity_report,
    left_regular,
    restricted_left_regular,
    rho_inner_identity_report,
    rho_lift_identity_report,
)
from restalg.restricted import build_restricted_semigroup
from restalg.semigroups import FiniteInvSemigroup
from restalg.verify import (
    CHECKS,
    PLUMBING,
    SUITES,
    TOL,
    Tolerances,
    _coded_devs,
    approx_identity_property,
    delta_absorption_deviation,
    delta_dot_deviation,
    finite_unit_laws_deviation,
    opnorm_backend_deviation,
    run_suite,
    run_suites,
    sigma_cross_excess,
    suite_algebra,
    suite_axioms,
    suite_cstar,
    suite_reps,
    tau_homomorphism_deviation,
    tilde_delta_deviation,
    unit_projection_deviation,
    verdict,
)

Z2 = gen_group("cyclic", 2)
I2 = gen_symmetric_inverse_monoid(2)


def test_each_suite_passes_on_i2():
    for suite in ("axioms", "algebra", "reps", "cstar"):
        report = run_suite(I2, "I2", suite, seed=3, trials=10)
        assert report.passed, [c.id for c in report.checks if not c.passed]
        assert report.seconds >= 0
        with pytest.raises(TypeError):  # a misspelled keyword is not dropped
            run_suite(I2, "I2", suite, sed=3)


def test_every_check_has_claim_or_plumbing_tag():
    reports = run_suites([("Z2", Z2)], ["axioms", "algebra", "reps", "cstar"],
                         seed=1, trials=5)
    for r in reports:
        for c in r.checks:
            assert c.claim == PLUMBING or len(c.claim) > 10, c.id


def test_registry_is_what_the_suites_emit(full_corpus):
    # every registered id is emitted by some member, every emitted id is
    # registered under its own suite, and no report emits an id twice
    I4 = gen_symmetric_inverse_monoid(4)
    members = [*full_corpus, ("I4", I4), ("I4_r", build_restricted_semigroup(I4).sr)]
    emitted = set()
    for r in run_suites(members, list(SUITES), seed=7, trials=5):
        ids = [c.id for c in r.checks]
        assert len(ids) == len(set(ids)), (r.semigroup, r.suite)
        assert all(cid.startswith(f"{r.suite}.") for cid in ids), (r.semigroup, r.suite)
        emitted.update(ids)
    assert emitted == set(CHECKS)


@pytest.mark.parametrize("kind", sorted({kind for _, kind in CHECKS.values()} - {"bool"}))
def test_verdict_passes_strictly_below_the_bound(kind):
    # one comparison rule: an exact id passes at 0.0 alone, a tolerance id
    # strictly below its bound, so a deviation equal to the bound fails;
    # a NaN fails every kind
    cid = next(cid for cid, (_, k) in CHECKS.items() if k == kind)
    if kind == "exact":
        passing, failing = 0.0, 5e-324
    else:
        bound = getattr(TOL, kind)
        assert kind in {f.name for f in dataclasses.fields(Tolerances)}
        passing, failing = np.nextafter(bound, 0.0), bound
    assert verdict(cid, passing).passed
    assert not verdict(cid, failing).passed
    c = verdict(cid, np.nan)
    assert not c.passed and np.isnan(c.deviation)


def test_failing_table_reports_the_registered_claim():
    # a table that fails validation stops the suite at axioms.table, with
    # the same claim a passing table reports
    S = corpus_member("S3")
    [c] = suite_axioms(FiniteInvSemigroup(S.mul, np.arange(S.n)))
    assert c.id == "axioms.table" and not c.passed and c.witness
    passing = {c.id: c for c in suite_axioms(S)}["axioms.table"]
    assert c.claim == passing.claim == CHECKS["axioms.table"][0]


def test_report_checks_sorted_in_output():
    report = run_suite(Z2, "Z2", "algebra", seed=1, trials=5)
    ids = [c["id"] for c in report.as_dict()["checks"]]
    assert ids == sorted(ids)
    text = report.format_text()
    assert "PASS" in text and "Z2" in text


def test_delta_assoc_witness_none_on_valid():
    assert delta_assoc_witness(I2) is None
    assert delta_assoc_witness(gen_chain_semilattice(3)) is None


@pytest.mark.memory
def test_delta_assoc_witness_memory_on_a_large_group():
    # a group has n^2 dot triples and n^3 pairs in each join; the joins
    # run one block of x at a time, so no n^3 index array is built
    S = gen_group("cyclic", 256)
    dot_triples(S)
    tracemalloc.start()
    try:
        hit = delta_assoc_witness(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit is None
    assert peak < 20e6


@pytest.mark.parametrize("label", ["I3", "S3"])
def test_dot_assoc_deltas_fails_on_a_dropped_triple(monkeypatch, label):
    # the check joins dot_triples with itself, so a triple missing from the
    # set shows although the table, and its zero-adjoined form, are valid
    S = corpus_member(label)
    assert delta_assoc_witness(S) is None
    T = np.array(dot_triples(S))
    dropped = np.delete(T, len(T) // 3, axis=0)
    monkeypatch.setattr(restalg.algebra, "dot_triples", lambda _S: dropped)
    x, y, z = delta_assoc_witness(S)
    checks = {c.id: c for c in suite_algebra(S, seed=1, trials=5)}
    c = checks["algebra.dot-assoc-deltas"]
    assert not c.passed and c.witness == f"triple {(x, y, z)}"


@pytest.mark.parametrize("label, seed", [("chain4", 2), ("Z4", 11)])
def test_cstar_suite_on_near_degenerate_lifts(label, seed):
    # these draws lift to 5x5 diagonal matrices whose top two singular
    # values differ by ~1e-5 (relative); the CLI seeds 2 and 11 hit them
    report = run_suite(corpus_member(label), label, "cstar", seed=seed, trials=100)
    assert report.passed, [c.id for c in report.checks if not c.passed]


def _conv_many(S, F, G):
    """Row-wise convolution: every factorization, composable or not."""
    rows = [conv(AlgebraElement(S, f), AlgebraElement(S, g)).coeffs for f, g in zip(F, G)]
    return np.array(rows).reshape(np.shape(F))


def test_suite_checks_fail_on_broken_inputs(monkeypatch):
    # the acceptance criteria trust these verdicts, so the suites must be
    # able to fail: convolution in place of the batched dot kernel, and the
    # order-based regular representation passed off as the restricted one
    with monkeypatch.context() as m:
        m.setattr(restalg.verify, "dot_many", _conv_many)
        failed = {c.id for c in suite_algebra(I2, seed=3) if not c.passed}
    assert {
        "algebra.delta-dot",
        "algebra.delta-absorption",
        "algebra.unit-laws",
        "algebra.restriction-homomorphism",
    } <= failed

    # the translation sum with one delta pair lost: on I3 (order 34) too,
    # where the check once sampled 100 of the 1156 pairs
    I3 = corpus_member("I3")
    x, y = map(int, np.argwhere(I3.composable_matrix())[-1])
    direct = restalg.verify.dot_direct_many

    def lossy(S, F, G):
        out = direct(S, F, G)
        if len(F) == S.n and np.array_equal(F, np.eye(S.n)):
            out[x, S.mul[x, y]] = 0
        return out

    with monkeypatch.context() as m:
        m.setattr(restalg.verify, "dot_direct_many", lossy)
        checks = {c.id: c for c in suite_algebra(I3, seed=3)}
    assert not checks["algebra.dot-forms-agree"].passed

    def order_based(S):
        return Representation(S, left_regular(S).table, KIND_RESTRICTED, "lambda_r")

    with monkeypatch.context() as m:
        m.setattr(restalg.verify, "restricted_left_regular", order_based)
        failed = {c.id for c in suite_reps(I2, seed=3) if not c.passed}
    assert "reps.left-regular-restricted" in failed

    def folded(S):
        # one row of pi(x) moved onto another's column: not a partial isometry
        T = restricted_left_regular(S).table.copy()
        x = int(np.argmax((T >= 0).sum(axis=1) >= 2))
        ys = np.flatnonzero(T[x] >= 0)
        T[x, ys[1]] = T[x, ys[0]]
        return Representation(S, T, KIND_RESTRICTED, "lambda_r")

    with monkeypatch.context() as m:
        m.setattr(restalg.verify, "restricted_left_regular", folded)
        checks = {c.id: c for c in suite_reps(I2, seed=3)}
    assert not checks["reps.partial-isometry"].passed
    assert checks["reps.partial-isometry"].deviation == 1.0
    assert not checks["reps.left-regular-restricted"].passed
    assert "> 1" in checks["reps.left-regular-restricted"].witness  # the contraction law


def test_unit_laws_fail_on_a_broken_unit_rows(monkeypatch, full_corpus):
    # a unit_rows that marks only xx*: every idempotent is its own range,
    # so delta-absorption cannot see it, and unit-laws, which compares e_F
    # with the row marking xx* and x*x, must see it wherever xx* != x*x
    def range_only(S, members):
        rows = np.zeros((len(members), S.n), dtype=np.complex128)
        rows[np.arange(len(members))[:, None], S.ran[members]] = 1.0
        return rows

    monkeypatch.setattr(restalg.verify, "unit_rows", range_only)
    broken = []
    for label, S in full_corpus:
        checks = {c.id: c for c in suite_algebra(S, seed=3)}
        assert checks["algebra.delta-absorption"].passed, label
        unit = checks["algebra.unit-laws"]
        if (S.ran != S.dom).any():
            broken.append(label)
            assert not unit.passed and "on F=(" in unit.witness, (label, unit.witness)
        else:
            assert unit.passed, label
    assert len(broken) == 6, broken


def test_unit_laws_rows_per_side_on_a_large_chain(monkeypatch):
    # one unit row per pair {xx*, x*x} plus the 20 bigger sets go through
    # each side of dot_many; the union enumeration this replaced sent
    # about 2.8 million rows here
    S = gen_chain_semilattice(256)
    bound = S.n + 20
    rows = []
    dot = restalg.verify.dot_many

    def counting(S, F, G):
        rows.append(len(F))
        assert sum(rows) <= 2 * bound
        return dot(S, F, G)

    monkeypatch.setattr(restalg.verify, "dot_many", counting)
    assert finite_unit_laws_deviation(S, np.random.default_rng(0)) == (0.0, "")
    assert sum(rows[0::2]) <= bound and sum(rows[1::2]) <= bound, rows


@pytest.mark.parametrize(
    "label, star, antihom",
    [("S3", None, True), ("S3", range(6), False), ("Z4", range(4), True), ("I2", None, True)],
)
def test_star_antihom_check_fails_on_its_own(monkeypatch, label, star, antihom):
    # the suite's own route, with the validator's star equality patched out:
    # the identity map is antimultiplicative on Z4 only, and regular on neither
    S = corpus_member(label)
    star = S.star if star is None else np.array(star)
    monkeypatch.setattr(restalg.verify, "validate_table", lambda mul, star: None)
    checks = {c.id: c.passed for c in suite_axioms(FiniteInvSemigroup(S.mul, star))}
    assert checks["axioms.star-antihom"] is antihom
    assert checks["axioms.regularity"] is (star is S.star)


@pytest.mark.parametrize("label", ["S3", "I2", "B2_1"])
def test_identity_check_fails_on_a_wrong_identity(label):
    # a valid table declared with a non-identity as its identity fails
    # axioms.identity and nothing else
    S = corpus_member(label)
    T = FiniteInvSemigroup(S.mul, S.star, identity=(S.identity + 1) % S.n)
    assert {c.id for c in suite_axioms(T) if not c.passed} == {"axioms.identity"}
    assert all(c.passed for c in suite_axioms(S))


def test_batched_checks_match_the_scalar_loops(full_corpus):
    # the random-trial checks, batched, against the loops they replaced:
    # same verdicts at the default tolerance and same witnesses,
    # deviations within 1e-14
    tol = TOL.identity
    for label, S in full_corpus:
        for batched, loop in (
            (lambda_inner_identity_report, lambda_inner_identity_loop),
            (rho_inner_identity_report, rho_inner_identity_loop),
        ):
            (got, got_wit), (want, want_wit) = batched(S, trials=100, seed=5), loop(S, trials=100, seed=5)
            assert (got < tol, got_wit) == (want < tol, want_wit), (label, batched.__name__)
            assert abs(got - want) <= 1e-14, (label, batched.__name__)
        if S.identity is not None:
            got = rho_lift_identity_report(S, trials=100, seed=6)
            want = rho_lift_identity_loop(S, trials=100, seed=6)
            assert got.witness == want.witness, label
            assert (max(got.summed, got.localized) < tol) == (max(want.summed, want.localized) < tol), label
            for field in ("summed", "at_identity", "localized"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-14, (label, field)
        got = approx_identity_property(S, np.random.default_rng(7))
        assert got == approx_identity_loop(S, np.random.default_rng(7)), label
        rs = build_restricted_semigroup(S)
        got = quotient_match_report(S, trials=40, seed=8)
        worst, witness, worst_min = quotient_match_loop(S, rs, trials=40, seed=8)
        assert got.witness == witness, label
        assert abs(got.max_deviation - worst) <= 1e-14, label
        assert got.minimized_deviation == worst_min, label


def _stacked_cases():
    I4 = gen_symmetric_inverse_monoid(4)
    large = [
        ("I4", I4),
        ("I4_r", build_restricted_semigroup(I4).sr),
        ("B(Z3, 9)", gen_brandt(gen_group("cyclic", 3).mul, 9)),
    ]
    return [pytest.param(S, id=label) for label, S in [*default_corpus(), *large]]


@pytest.mark.parametrize("S", _stacked_cases())
def test_stacked_checks_equal_the_per_sample_loops(S):
    # the stacked norms, SVDs and lifts of four checks against the loops
    # they replaced, one sample at a time: bitwise equal deviations (and
    # witness), from the same draws, each reading as many of them
    for stacked, loop in (
        (unit_projection_deviation, unit_projection_loop),
        (opnorm_backend_deviation, opnorm_backend_loop),
        (lambda S, rng: sigma_cross_excess(S, rng, 4), lambda S, rng: sigma_cross_check_loop(S, rng, 4)),
    ):
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        assert stacked(S, got_rng) == loop(S, want_rng), loop.__name__
        assert got_rng.random() == want_rng.random(), loop.__name__
    assert quotient_match_report(S, trials=40, seed=11) == quotient_match_report_loop(S, trials=40, seed=11)


@pytest.mark.memory
@pytest.mark.parametrize("suite, bound_mb", [("cstar", 10), ("reps", 7)])
def test_warm_suite_memory_on_i4(suite, bound_mb):
    # the stacked norms, SVDs and lifts go through in blocks of rows: one
    # (n, n) lift at a time at n = 209 (an unblocked cstar suite reads
    # about 27 MB here); the tables kept on S by the first run are not
    # counted
    S = gen_symmetric_inverse_monoid(4)
    SUITES[suite](S, seed=0, trials=100)
    tracemalloc.start()
    try:
        checks = SUITES[suite](S, seed=0, trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    assert peak < bound_mb * 1e6


@pytest.mark.parametrize(
    "module, name, failing",
    [
        ("restalg.verify", "svd_op_norms", {"cstar.opnorm-backend"}),
        # through linalg.min_shift_norms
        ("restalg.linalg", "svd_op_norms", {"cstar.quotient-minimized"}),
        (
            "restalg.cstar",
            "block_norms",
            {
                "cstar.identity",
                "cstar.lift-contractive",
                "cstar.norm-order",
                "cstar.opnorm-backend",
                "cstar.quotient-minimized",
            },
        ),
    ],
)
def test_scaled_norms_fail_exactly_these_cstar_checks(monkeypatch, module, name, failing):
    # every norm of one backend scaled by 1.001; sigma-cross-check,
    # quotient-match and l1-quotient compare a backend with itself, or no
    # operator norm at all, so they pass under each
    S = corpus_member("I3")
    assert all(c.passed for c in suite_cstar(S, seed=1, trials=10))
    target = importlib.import_module(module)
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *args, **kwargs: 1.001 * real(*args, **kwargs))
    assert {c.id for c in suite_cstar(S, seed=1, trials=10) if not c.passed} == failing


def _tilde_reads_a_rolled_star(monkeypatch):
    monkeypatch.setattr(
        AlgebraElement, "tilde", lambda f: AlgebraElement(f.base, np.conj(f.coeffs[np.roll(f.base.star, 1)]))
    )


def _order_triples_drop_the_last(monkeypatch):
    real = restalg.algebra.order_triples
    monkeypatch.setattr(restalg.algebra, "order_triples", lambda S: real(S)[:-1])


@pytest.mark.parametrize(
    "mutate, failing",
    [
        (_tilde_reads_a_rolled_star, "algebra.tilde-involution"),
        (_order_triples_drop_the_last, "algebra.group-coincidence"),
    ],
)
def test_algebra_check_fails_alone_under_its_mutation(monkeypatch, full_corpus, mutate, failing):
    # f~ through a rolled star is no involution, and order_dot_many short
    # of one triple is no longer convolution on a group: over all four
    # suites each fails its own check and no other
    suites = ("axioms", "algebra", "reps", "cstar")
    assert all(c.passed for r in run_suites(full_corpus, suites, seed=7, trials=10) for c in r.checks)
    mutate(monkeypatch)
    reports = run_suites(full_corpus, suites, seed=7, trials=10)
    failed = {(r.semigroup, c.id) for r in reports for c in r.checks if not c.passed}
    assert {check for _, check in failed} == {failing}
    labels = {label for label, _ in failed}
    if failing == "algebra.group-coincidence":
        # the check runs on the groups only, and fails on every one
        assert labels == {label for label, S in full_corpus if S.is_group} == {"trivial", "Z2", "Z4", "S3"}
    else:
        assert {"I2", "I3", "S3", "B2_1_r", "chain3"} <= labels


def test_short_lift_fails_exactly_these_checks(monkeypatch):
    # every lift short of the representation's last entry, under each name
    # it is imported by: over all four suites on I3, the lift's own
    # homomorphism check fails, and with it the checks that compare a
    # dense lift with something else (the lifted rho pairing, the SVD of
    # the lift against the block norms, the sampled summands of the lift)
    S = corpus_member("I3")
    suites = ("axioms", "algebra", "reps", "cstar")
    assert all(c.passed for r in run_suites([("I3", S)], suites, seed=7, trials=10) for c in r.checks)
    real = restalg.reps.lift_many

    def short(rep, F):
        xs, ys, cols = rep.entries()
        dim = rep.dim
        return scatter_rows(np.take(F, xs[:-1], axis=1), (ys * dim + cols)[:-1], dim * dim).reshape(-1, dim, dim)

    for module in (restalg.reps, restalg.verify, restalg.cstar):
        assert module.lift_many is real
        monkeypatch.setattr(module, "lift_many", short)
    failed = {c.id for r in run_suites([("I3", S)], suites, seed=7, trials=10) for c in r.checks if not c.passed}
    assert failed == {
        "cstar.opnorm-backend",
        "cstar.sigma-cross-check",
        "reps.inner-identity-lifted",
        "reps.lift-homomorphism",
    }


def _delta_law_deviations(S, seed, *, unit_pairs=True):
    """The five delta-level checks through the coded rows and through the
    pair loops, as two lists of deviations in check order; without
    ``unit_pairs`` the slow set-by-set unit laws are left out (None)."""
    rs = build_restricted_semigroup(S)
    coded = [
        delta_dot_deviation(S)[0],
        tilde_delta_deviation(S),
        delta_absorption_deviation(S)[0],
        finite_unit_laws_deviation(S, np.random.default_rng(seed))[0],
        tau_homomorphism_deviation(rs, np.random.default_rng(seed))[0],
    ]
    pairs = [
        delta_dot_pairs(S)[0],
        tilde_delta_pairs(S),
        delta_absorption_pairs(S)[0],
        unit_laws_blocks(S, np.random.default_rng(seed))[0] if unit_pairs else None,
        tau_homomorphism_pairs(rs, np.random.default_rng(seed))[0],
    ]
    return coded, pairs


def test_coded_rows_match_the_pair_loops(full_corpus):
    # every delta-level law holds exactly on every member through both routes
    for label, S in full_corpus:
        coded, pairs = _delta_law_deviations(S, seed=4)
        assert coded == [0.0] * 5 and pairs == [0.0] * 5, (label, coded, pairs)


def test_restriction_random_pairs_match_the_pair_loop(full_corpus):
    # the random-pair part: same draws, read to the same point of the
    # stream, and the same deviation (0.0 on dyadic rows) and witness
    for label, S in full_corpus:
        rs = build_restricted_semigroup(S)
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = tau_homomorphism_deviation(rs, got_rng)
        want = tau_homomorphism_pairs(rs, want_rng)
        assert got[1:] == want[1:], label
        assert got_rng.random() == want_rng.random(), label


def test_tolerances_are_fixed():
    # one frozen set of bounds; a test that needs another patches TOL
    with pytest.raises(dataclasses.FrozenInstanceError):
        TOL.entrywise = 1.0


def test_restriction_homomorphism_verdict(monkeypatch):
    # exact on the deltas, the kernel and the random dyadic pairs: the
    # smallest deviation of either part fails, and no tolerance lets it pass
    def check(parts, tol=TOL):
        with monkeypatch.context() as m:
            m.setattr(restalg.verify, "tau_homomorphism_deviation", lambda rs, rng, trials: parts)
            m.setattr(restalg.verify, "TOL", tol)
            checks = {c.id: c for c in suite_algebra(Z2, seed=1, trials=5)}
        return checks["algebra.restriction-homomorphism"]

    c = check((0.0, 0.0, ""))
    assert c.passed and c.deviation == 0.0 and c.witness == ""
    c = check((0.0, 5e-324, "random pair 3"))
    assert not c.passed and c.deviation == 5e-324 and c.witness == "random pair 3"
    loose = dataclasses.replace(TOL, entrywise=1.0)
    assert not check((0.0, 5e-13, "random pair 3"), loose).passed
    assert not check((1e-300, 0.0, "delta row 0"), loose).passed
    assert np.isnan(check((0.0, np.nan, "random pair 0")).deviation)
    assert not check((0.0, np.nan, "random pair 0")).passed


def test_bilinear_laws_are_exact_on_z256():
    # at this seed uniform float rows read 1.02e-12 for (f.g).h = f.(g.h)
    # on Z256, over TOL.entrywise although the law holds; on dyadic rows
    # every term is exact, and each law reads 0.0
    checks = suite_algebra(gen_group("cyclic", 256), seed=293)
    assert all(c.passed for c in checks), [c.id for c in checks if not c.passed]
    exact = {c.id: c.deviation for c in checks if CHECKS[c.id][1] == "exact"}
    assert {"algebra.dot-assoc-random", "algebra.group-coincidence"} <= exact.keys()
    assert set(exact.values()) == {0.0}, exact


def test_dyadic_draws_keep_their_bound(monkeypatch):
    # exactness rests on the draw: parts m / 16 with |m| <= 128, and not
    # all of them integers, so that a truncating kernel shows
    drawn, real = [], restalg.verify.dyadic_rows

    def recording(*args):
        rows = real(*args)
        drawn.extend(rows)
        return rows

    monkeypatch.setattr(restalg.verify, "dyadic_rows", recording)
    S = corpus_member("I3")
    checks = suite_algebra(S, seed=7) + suite_reps(S, seed=7)
    assert all(c.passed for c in checks)
    # the triples of dot-assoc-random, then pairs for dot-forms-agree,
    # tilde-antimult, restriction-homomorphism and lift-homomorphism
    assert [len(rows) for rows in drawn] == [100] * 3 + [25] * 2 + [100] * 2 + [50] * 2 + [25] * 2
    for rows in drawn:
        for part in (rows.real, rows.imag):
            m = 16 * part
            assert np.array_equal(m, np.round(m)) and np.abs(m).max() <= 128
            assert not np.array_equal(part, np.round(part))


def test_a_truncating_kernel_fails_dot_forms_agree(monkeypatch):
    # the coded delta rows have integer parts, so only the dyadic random
    # rows show a dot kernel that drops the fractions of its inputs
    S = corpus_member("I3")
    dot = restalg.verify.dot_many
    monkeypatch.setattr(restalg.verify, "dot_many", lambda S, F, G: dot(S, np.trunc(F.real) + 1j * np.trunc(F.imag), G))
    checks = {c.id: c for c in suite_algebra(S, seed=3)}
    assert checks["algebra.delta-dot"].passed
    assert not checks["algebra.dot-forms-agree"].passed


def test_coded_devs_flag_a_pair_counted_twice():
    # equal sides are not enough: a count of 2 hides which pairs reached
    # the coordinate, as (1 + 2i) + (1 + 4i) = 2 + 6i = (1 + 1i) + (1 + 5i)
    got = np.array([[2 + 6j, 1 + 3j], [0, 1 + 3j]])
    assert _coded_devs(got, got).tolist() == [1.0, 0.0]


def _broken_triples(S):
    """dot triple sets with one fault each, by name."""
    T = np.array(dot_triples(S))
    # a triple (a, b, c) with b > 0, so that b can be split into 0 and b - 1
    candidates = np.flatnonzero(T[:, 1] > 0)
    k = int(candidates[len(candidates) // 3])
    a, b, c = T[k]
    misrouted = T.copy()
    misrouted[k, 2] = (c + 1) % S.n
    # two triples whose codes (b1 + 1) + (b2 + 1) sum to the code b + 1
    split = np.concatenate([np.delete(T, k, axis=0), [[a, 0, c], [a, b - 1, c]]])
    return {
        "dropped": np.delete(T, k, axis=0),
        "duplicated": np.concatenate([T, T[k : k + 1]]),
        "misrouted": misrouted,
        "two for one": split,
        "convolution": conv_triples(S),
    }


@pytest.mark.parametrize("label", ["I2", "I3", "B2_1_r"])
def test_both_routes_fail_on_broken_triple_sets(monkeypatch, label):
    S = corpus_member(label)
    for name, triples in _broken_triples(S).items():
        with monkeypatch.context() as m:
            m.setattr(restalg.algebra, "dot_triples", lambda _S, t=triples: t)
            coded, pairs = _delta_law_deviations(S, seed=4, unit_pairs=False)
            if coded[3] == 0:
                pairs[3] = unit_laws_blocks(S, np.random.default_rng(4))[0]
        assert coded[0] > 0 and pairs[0] > 0, (label, name)
        # the coded checks are at least as strict as the pair loops, and as
        # strict for delta-dot, delta-absorption and the restriction map
        for i, (c, p) in enumerate(zip(coded, pairs)):
            assert c > 0 or p == 0, (label, name, i, coded, pairs)
            if i in (0, 2, 4):
                assert (c > 0) == (p > 0), (label, name, i, coded, pairs)
