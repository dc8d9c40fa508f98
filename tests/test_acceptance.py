"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
lines on passing runs).  The tolerances are pinned here: the suites
judge against ``restalg.verify.TOL``, which must equal them.  Criteria
2-10 read the ``algebra`` and ``reps`` suites of ``restalg verify``, run
once; the others run their own loops.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from restalg import cstar
from restalg.algebra import AlgebraElement, order_dot_many, order_dot_scan, restrict_to_base
from restalg.errors import NotInverse
from restalg.restricted import build_restricted_semigroup
from restalg.semigroups import build_from_table
from restalg.verify import TOL, run_suites

SEED = 20260808

TOL_ENTRYWISE = 1e-12
TOL_IDENTITY = 1e-10
TOL_CSTAR = 1e-8
TOL_NORM_SLACK = 1e-9
TOL_PIVOT = 1e-9
TOL_L1_ISOMETRY = 1e-13

# every field is pinned here, so a change to any bound the suites read
# fails the acceptance suite
PINNED = {
    "entrywise": TOL_ENTRYWISE,
    "norm": TOL_NORM_SLACK,
    "identity": TOL_IDENTITY,
    "cstar": TOL_CSTAR,
    "pivot": TOL_PIVOT,
}


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"criterion {num:2d} ({name}): {status}{tail}")
    return ok


@pytest.fixture(scope="module")
def suites(full_corpus):
    """The algebra and reps suite checks over the full corpus, by id."""
    assert dataclasses.asdict(TOL) == PINNED
    reports = run_suites(full_corpus, ["algebra", "reps"], seed=SEED, trials=100)
    checks = {}
    for report in reports:
        for c in report.checks:
            checks.setdefault(c.id, []).append((report.semigroup, c))
    return SimpleNamespace(
        checks=checks,
        members=[label for label, _ in full_corpus],
        unital=[label for label, S in full_corpus if S.identity is not None],
    )


def _criterion(suites, num, name, ids, detail, ok=True):
    """Print and assert one criterion: each listed check passed on every
    member it applies to.  ``detail`` may show the worst deviation as
    ``{worst}``."""
    failures, worst = [], 0.0
    for cid in ids:
        runs = suites.checks.get(cid, [])
        want = suites.unital if cid == "reps.inner-identity-lifted" else suites.members
        if [label for label, _ in runs] != want:
            failures.append(f"{cid} ran on {len(runs)} of {len(want)} members")
        failures += [f"{cid} on {label}: {c.witness}" for label, c in runs if not c.passed]
        worst = max([worst] + [c.deviation for _, c in runs if c.deviation is not None])
    detail = "; ".join(failures[:3]) or detail.format(worst=worst)
    assert _line(num, name, ok and not failures, detail)


def test_criterion_01_axioms(full_corpus, corpus_restricted):
    ok = True
    for label, S in full_corpus:
        build_from_table(S.mul, S.star)
    for label, rs in corpus_restricted:
        build_from_table(rs.sr.mul, rs.sr.star)
    with pytest.raises(NotInverse) as info:
        build_from_table([[0, 1], [0, 1]])
    ok = ok and info.value.witness == (0, 1) and "commute" in str(info.value)
    assert _line(
        1,
        "axioms",
        ok,
        f"{len(full_corpus)} semigroups + zero-adjoined validated over all "
        "triples; right-zero rejected with non-commuting idempotents (0, 1)",
    )


def test_criterion_02_dot_associativity(suites):
    _criterion(
        suites, 2, "dot associativity",
        ["algebra.delta-dot", "algebra.dot-assoc-deltas", "algebra.dot-assoc-random"],
        "exhaustive delta triples exact; random-triple deviation {worst:.2e}",
    )


def test_criterion_03_banach_star_algebra(suites):
    _criterion(
        suites, 3, "Banach *-algebra laws",
        ["algebra.tilde-antimult", "algebra.submultiplicative", "algebra.positive-domination"],
        "tilde anti-multiplicative (delta exact), submultiplicative and "
        "positively dominated on 100 random pairs; worst deviation {worst:.2e}",
    )


def test_criterion_04_delta_absorption(suites):
    _criterion(
        suites, 4, "delta absorption rule", ["algebra.delta-absorption"],
        "both displayed equalities exact over all (y, e) pairs",
    )


def test_criterion_05_units_and_approximate_identity(suites):
    _criterion(
        suites, 5, "finite units + approximate identity",
        ["algebra.unit-laws", "algebra.approx-identity"],
        "laws (i)-(iv) exact for all |F| <= 3 and 20 larger F; "
        "eps-approximation holds for 50 decaying f at eps in {{1e-1, 1e-3}}",
    )


def test_criterion_06_l1_quotient(suites, full_corpus):
    # no suite tries shifts other than the minimizer c = -f(0)
    rng = np.random.default_rng(SEED + 3)
    for label, S in full_corpus:
        rs = build_restricted_semigroup(S)
        for _ in range(100):
            f = AlgebraElement.random(rs.sr, rng)
            tau_norm = restrict_to_base(f, rs).norm(1)
            for _ in range(5):
                alt = f.coeffs.copy()
                alt[rs.zero_index] += complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                assert float(np.abs(alt).sum()) >= tau_norm - TOL_L1_ISOMETRY, label
    iso = max(c.deviation for _, c in suites.checks["algebra.restriction-isometry"])
    _criterion(
        suites, 6, "restriction map at the 1-norm level",
        ["algebra.restriction-homomorphism", "algebra.restriction-isometry"],
        "homomorphism exact on all delta pairs and 50 random pairs; isometry "
        f"deviation {iso:.2e} with minimizer c = -f(0)",
        ok=iso <= TOL_L1_ISOMETRY,
    )


def test_criterion_07_regular_representations_membership(suites):
    # I2 has non-composable pairs, so the check must have found one
    on_i2 = dict(suites.checks["reps.order-regular-not-restricted"])["I2"]
    _criterion(
        suites, 7, "restricted regular representations",
        ["reps.left-regular-restricted", "reps.right-regular-restricted",
         "reps.order-regular-not-restricted"],
        "adjoint exact, norms <= 1+1e-9, composability rule exhaustive; "
        f"order-based lambda fails on I2: non-composable {on_i2.witness}",
        ok=on_i2.witness.startswith("pair"),
    )


def test_criterion_08_inner_product_identities(suites):
    _criterion(
        suites, 8, "inner-product identities",
        ["reps.inner-identity-left", "reps.inner-identity-right", "reps.inner-identity-lifted"],
        "max deviation {worst:.2e} over all x and 100 random triples per member "
        "(lifted pairing summed over idempotents on unital members; "
        "single-point evaluation exact on groups)",
    )


def test_criterion_09_faithfulness_and_semisimplicity(suites):
    _criterion(
        suites, 9, "faithfulness + semi-simplicity",
        ["reps.faithful-restricted", "reps.faithful-full", "reps.semisimple"],
        "lifted-representation rank and trace-form rank both |S| on every "
        "corpus member (pivot tolerance 1e-9)",
    )


def test_criterion_10_compression_identity(suites):
    _criterion(
        suites, 10, "compression identity", ["reps.compression"],
        "Lambda(s) P0 equals lambda_r(s) entrywise for every s in every corpus member",
    )


def test_criterion_11_cstar_norms(full_corpus):
    rng = np.random.default_rng(SEED + 7)
    ident_dev = 0.0
    order_ok = True
    cross_excess = -np.inf
    for label, S in full_corpus:
        elems = [AlgebraElement.delta(S, x) for x in range(S.n)]
        elems += [AlgebraElement.random(S, rng) for _ in range(100)]
        for i, f in enumerate(elems):
            reduced = cstar.reduced_cstar_norm(f)
            full = cstar.full_cstar_norm(f)
            order_ok = order_ok and reduced <= full + TOL_NORM_SLACK
            order_ok = order_ok and full <= f.norm(1) + TOL_NORM_SLACK
            if i >= S.n:
                ident_dev = max(ident_dev, cstar.cstar_identity_deviation(f))
        for i in range(5):
            f = AlgebraElement.random(S, rng)
            cross_excess = max(
                cross_excess, cstar.sigma_r_cross_check(f, trials=3, seed=SEED + i)
            )
            ident_dev = max(ident_dev, cstar.cstar_identity_deviation(f))
    ok = ident_dev < TOL_CSTAR and order_ok and cross_excess <= TOL_NORM_SLACK
    assert _line(
        11,
        "C*-norms",
        ok,
        f"C*-identity relative deviation {ident_dev:.2e}; ordering chain holds "
        f"on all tested elements; sampled-representation excess "
        f"{max(cross_excess, 0):.2e}",
    )


def test_criterion_12_quotient_isomorphism(corpus):
    worst = 0.0
    worst_min = 0.0
    for label, S in corpus:
        report = cstar.quotient_match_report(S, trials=100, seed=SEED + 8)
        assert max(report.max_deviation, report.minimized_deviation) < TOL_CSTAR, (
            label, report.max_deviation, report.minimized_deviation
        )
        worst = max(worst, report.max_deviation)
        worst_min = max(worst_min, report.minimized_deviation)
    assert _line(
        12,
        "quotient isomorphism of operator norms",
        worst < TOL_CSTAR and worst_min < TOL_CSTAR,
        f"all deltas + 100 random per member: |quotient - reduced| <= "
        f"{worst:.2e}; scalar-minimization route agrees within {worst_min:.2e}",
    )


def test_criterion_13_order_relaxed_witness_search(full_corpus):
    first = order_dot_scan(full_corpus)
    second = order_dot_scan(full_corpus)
    deterministic = [
        (r["label"], r["witness"]) for r in first
    ] == [(r["label"], r["witness"]) for r in second]
    witnesses = [r for r in first if r["witness"] is not None]
    passes = [r["label"] for r in first if r["witness"] is None]
    confirmed = True
    members = dict(full_corpus)
    for r in witnesses:
        S = members[r["label"]]
        x, y, z = r["witness"]
        dx, dy, dz = np.eye(S.n, dtype=complex)[[[x], [y], [z]]]
        lhs = order_dot_many(S, order_dot_many(S, dx, dy), dz)[0]
        rhs = order_dot_many(S, dx, order_dot_many(S, dy, dz))[0]
        confirmed = confirmed and not np.array_equal(lhs, rhs)
        confirmed = confirmed and np.array_equal(lhs, r["lhs"])
        confirmed = confirmed and np.array_equal(rhs, r["rhs"])
    ok = deterministic and confirmed and len(witnesses) > 0
    first_hit = witnesses[0]
    assert _line(
        13,
        "order-relaxed product witness search",
        ok,
        f"deterministic scan; first failing triple {first_hit['witness']} on "
        f"{first_hit['label']}; certified associative on {passes}",
    )
