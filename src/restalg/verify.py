"""Executable verification suites.

Every structural fact the library relies on is rechecked here as a
numerically-tested property at finite scale, one named check at a time.
Each check carries a one-line claim (the statement being tested) or the
tag "plumbing" for backend self-tests, so a failure points straight at
the violated statement.

Every check id is declared once, in CHECKS, with its claim and the kind
of its verdict.  A suite body yields one record per check, and verdict()
alone turns a record into a Check.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import cstar
from .algebra import (
    AlgebraElement,
    conv_many,
    delta_assoc_witness,
    dot_direct_many,
    dot_many,
    dyadic_rows,
    first_max,
    map_rows,
    max_abs_diff,
    order_dot_many,
    random_rows,
    restrict_to_base,
    tilde_rows,
    unit_rows,
)
from .errors import RestalgError
from .linalg import op_norms, svd_op_norms
from .reps import (
    column_multiplicity,
    compression_deviation,
    extend_with_zero,
    lambda_inner_identity_report,
    left_regular,
    lift_many,
    lift_rank,
    representation_report,
    restricted_left_regular,
    restricted_multiplicativity_witness,
    restricted_right_regular,
    rho_inner_identity_report,
    rho_lift_identity_report,
    trace_form_rank,
)
from .restricted import build_restricted_semigroup, groupoid_law_violations
from .semigroups import validate_table

PLUMBING = "plumbing"


@dataclass(frozen=True)
class Tolerances:
    """Bounds on deviations: entrywise, norm slack, inner-product
    identities, C*-norms and the relative pivot of ranks."""

    entrywise: float = 1e-12
    norm: float = 1e-9
    identity: float = 1e-10
    cstar: float = 1e-8
    pivot: float = 1e-9


# the one set of bounds that every verdict reads
TOL = Tolerances()


@dataclass
class Check:
    id: str
    claim: str
    passed: bool
    witness: str = ""
    deviation: float | None = None

    def as_dict(self):
        out = {"id": self.id, "claim": self.claim, "passed": self.passed}
        if self.witness:
            out["witness"] = self.witness
        if self.deviation is not None:
            out["deviation"] = self.deviation
        return out


@dataclass
class SuiteReport:
    semigroup: str
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "semigroup": self.semigroup,
            "suite": self.suite,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
            "checks": [c.as_dict() for c in sorted(self.checks, key=lambda c: c.id)],
        }

    def format_text(self):
        lines = [f"== {self.semigroup} :: {self.suite} ({self.seconds:.2f}s)"]
        for c in sorted(self.checks, key=lambda c: c.id):
            mark = "PASS" if c.passed else "FAIL"
            extra = ""
            if c.deviation is not None:
                extra = f" dev={c.deviation:.3e}"
            if c.witness and not c.passed:
                extra += f" [{c.witness}]"
            lines.append(f"  [{mark}] {c.id} -- {c.claim}{extra}")
        return "\n".join(lines)


# Every check, by id: its claim and its kind.  A kind is "exact" (the
# deviation must be 0.0), the name of a Tolerances field (the deviation
# must be below that bound of TOL) or "bool" (the body's truth value).
CHECKS = {
    "axioms.table": ("associative table; unique generalized inverses; idempotents commute", "bool"),
    "axioms.star-involution": ("x** = x for all x", "bool"),
    "axioms.star-antihom": ("(xy)* = y* x* for all pairs", "bool"),
    "axioms.regularity": ("x x* x = x and x* x x* = x* for all x", "bool"),
    "axioms.idempotent-set": ("the idempotents are exactly the elements s s*", "bool"),
    "axioms.idempotents-closed": ("idempotents form a commutative subsemigroup", "bool"),
    "axioms.natural-order": ("e <= f iff ef = e is a partial order on the idempotents", "bool"),
    "axioms.identity": ("1 x = x 1 = x for all x", "bool"),
    "axioms.zero-adjoined": (
        "S with a zero adjoined for non-composable products is an inverse semigroup",
        "bool",
    ),
    "axioms.zero-adjoined-rule": ("x.y = xy when x*x = yy*, else the adjoined zero", "bool"),
    "axioms.embed-roundtrip": (
        "embedding into the zero-adjoined semigroup is injective with a partial inverse",
        "bool",
    ),
    "axioms.groupoid": ("composable pairs satisfy the groupoid laws", "bool"),
    "algebra.delta-dot": ("d_x . d_y = d_xy when x*x = yy*, else 0", "exact"),
    "algebra.dot-assoc-deltas": ("(d_x . d_y) . d_z = d_x . (d_y . d_z) for all triples", "bool"),
    "algebra.dot-assoc-random": ("(f.g).h = f.(g.h) on random dense triples", "exact"),
    "algebra.dot-forms-agree": ("factorization sum and translation sum for the dot product agree", "exact"),
    "algebra.tilde-antimult": ("(f.g)~ = g~ . f~ (exact on deltas and on random pairs)", "exact"),
    "algebra.tilde-involution": ("f~~ = f and ||f~||_1 = ||f||_1", "norm"),
    "algebra.submultiplicative": ("||f.g||_1 <= ||f||_1 ||g||_1", "norm"),
    "algebra.positive-domination": ("0 <= f, g implies ||f.g||_1 <= ||f*g||_1", "norm"),
    "algebra.delta-absorption": ("d_y . d_e = d_y iff y*y = e; d_e . d_y = d_y iff yy* = e", "exact"),
    "algebra.unit-laws": (
        "the finitely-supported units e_F absorb deltas over F, multiply to their common "
        "idempotents, and filter by domain/range",
        "exact",
    ),
    "algebra.approx-identity": (
        "||f - f.e_F||_1 < eps and ||f - e_F.f||_1 < eps once F captures all but eps of ||f||_1",
        "bool",
    ),
    "algebra.restriction-homomorphism": (
        "dropping the zero coordinate carries the convolution of the zero-adjoined semigroup "
        "to the dot product; kernel C d_0",
        "exact",
    ),
    "algebra.restriction-isometry": (
        "min over c of ||f + c d_0||_1 equals ||f restricted||_1, attained at c = -f(0)",
        "entrywise",
    ),
    "algebra.group-coincidence": (
        "in a group the dot product and the order-relaxed variant coincide with convolution",
        "exact",
    ),
    "reps.left-regular-restricted": (
        "the restricted left regular representation is adjoint-closed, contractive, and "
        "multiplicative exactly on composable pairs",
        "bool",
    ),
    "reps.right-regular-restricted": (
        "the restricted right regular representation satisfies the same three laws",
        "bool",
    ),
    "reps.left-regular-full": (
        "the order-based left regular representation is a contractive *-homomorphism",
        "bool",
    ),
    "reps.left-regular-adjoined": (
        "the left regular representation of the zero-adjoined semigroup is a contractive *-homomorphism",
        "bool",
    ),
    "reps.partial-isometry": ("every lambda_r(x) satisfies M M* M = M", "exact"),
    "reps.zero-extension": (
        "extending by pi(0) = 0 yields a *-homomorphism of the zero-adjoined semigroup and "
        "restricts back to the original",
        "bool",
    ),
    "reps.order-regular-not-restricted": (
        "whenever non-composable pairs exist, the order-based left regular representation "
        "violates the composability rule",
        "bool",
    ),
    "reps.lift-homomorphism": (
        "the lift sends the dot product to operator products and the tilde involution to adjoints",
        "exact",
    ),
    "reps.unit-projection": ("lifted finitely-supported units are orthogonal projections", "exact"),
    "reps.compression": (
        "the regular representation of the zero-adjoined semigroup, compressed off the zero "
        "coordinate, is lambda_r entrywise",
        "exact",
    ),
    "reps.inner-identity-left": ("<lambda_r(x*) xi, eta> = (xi . eta~)(x)", "identity"),
    "reps.inner-identity-right": ("<rho_r(x) xi, eta> = (eta~ . xi)(x)", "identity"),
    "reps.inner-identity-lifted": (
        "<rho_r~(phi) xi, eta> = phi . (xi-check . eta-bar) summed over the idempotents "
        "(evaluation at 1 alone when 1 is the only idempotent)",
        "identity",
    ),
    "reps.faithful-restricted": ("f -> lambda_r~(f) has full rank, so the lift is faithful", "bool"),
    "reps.faithful-full": ("f -> lambda~(f) has full rank on the convolution algebra", "bool"),
    "reps.semisimple": ("the trace form on the lifted algebra is nondegenerate (zero radical)", "bool"),
    "cstar.lift-contractive": ("||lambda_r~(f)|| <= ||f||_1", "norm"),
    "cstar.identity": ("||f~ . f|| = ||f||^2 in the reduced norm", "cstar"),
    "cstar.norm-order": ("reduced norm <= supremum norm <= 1-norm", "norm"),
    "cstar.sigma-cross-check": (
        "randomized contractive restricted representations never exceed the supremum norm",
        "norm",
    ),
    "cstar.quotient-match": (
        "the quotient norm mod the zero line equals the reduced norm of the restriction",
        "cstar",
    ),
    "cstar.quotient-minimized": (
        "scalar minimization over c of ||f + c d_0|| agrees with the projected quotient norm",
        "cstar",
    ),
    "cstar.l1-quotient": ("min over c of ||f + c d_0||_1 equals the restricted 1-norm", "entrywise"),
    "cstar.opnorm-backend": (PLUMBING, "norm"),
}


def verdict(cid, value, witness="", deviation=...):
    """The Check of one record of a suite body.  ``value`` is the
    deviation of an "exact" or tolerance id, which the check reports
    unless ``deviation`` is given, and the outcome of a "bool" id, which
    reports ``deviation`` alone.  TOL is read here, when the verdict is
    made; a NaN deviation fails every kind."""
    claim, kind = CHECKS[cid]
    if kind == "bool":
        passed = bool(value)
    elif kind == "exact":
        passed = value == 0.0
    else:
        passed = value < getattr(TOL, kind)
    if deviation is ...:
        deviation = None if kind == "bool" else value
    return Check(cid, claim, bool(passed), witness, deviation)


def _suite(body):
    """A suite from a body ``(S, seed, trials)`` that yields records
    (id, value[, witness[, deviation]]): the list of their verdicts, in
    the order the body draws them."""

    @functools.wraps(body)
    def suite(S, *, seed=0, trials=100):
        return [verdict(*record) for record in body(S, seed, trials)]

    return suite


# ---------------------------------------------------------------------
# axioms


@_suite
def suite_axioms(S, seed, trials):
    """Every element is checked, and nothing is drawn."""
    idx = np.arange(S.n)
    try:
        validate_table(S.mul, S.star)
    except RestalgError as exc:
        yield "axioms.table", False, str(exc)
        return
    yield "axioms.table", True
    yield "axioms.star-involution", np.array_equal(S.star[S.star], idx)
    yield "axioms.star-antihom", np.array_equal(S.star[S.mul], S.mul[np.ix_(S.star, S.star)].T)
    yield "axioms.regularity", (
        np.array_equal(S.mul[S.mul[idx, S.star], idx], idx)
        and np.array_equal(S.mul[S.mul[S.star, idx], S.star], S.star)
    )

    E = S.idempotents()
    yield "axioms.idempotent-set", set(E.tolist()) == set(S.ran.tolist())
    sub = S.mul[np.ix_(E, E)]
    yield "axioms.idempotents-closed", np.array_equal(sub, sub.T) and np.all(np.isin(sub, E))

    # natural order: reflexive, antisymmetric, transitive on E; L @ L in
    # float64 runs on BLAS and is exact, each entry counting <= |E| paths
    L = S.order_table()[np.ix_(E, E)]
    refl = bool(np.all(np.diagonal(L)))
    antisym = bool(np.all(~(L & L.T) | np.eye(len(E), dtype=bool)))
    trans = bool(np.all(~(L @ L.astype(np.float64) > 0) | L))
    yield "axioms.natural-order", refl and antisym and trans

    if S.identity is not None:
        e = S.identity
        yield "axioms.identity", np.array_equal(S.mul[e], idx) and np.array_equal(S.mul[:, e], idx)

    try:
        rs = build_restricted_semigroup(S)
    except RestalgError as exc:
        yield "axioms.zero-adjoined", False, str(exc)
        return
    yield "axioms.zero-adjoined", True
    sr, z = rs.sr, rs.zero_index
    rule = np.full((S.n + 1, S.n + 1), z, dtype=np.intp)
    rule[: S.n, : S.n] = np.where(S.composable_matrix(), S.mul, z)
    yield "axioms.zero-adjoined-rule", np.array_equal(sr.mul, rule) and sr.zero == z and sr.star[z] == z
    yield "axioms.embed-roundtrip", (
        all(rs.project(rs.embed(x)) == x for x in range(S.n)) and rs.project(z) is None
    )

    viol = groupoid_law_violations(S)
    yield "axioms.groupoid", not viol, "; ".join(viol[:3])


# ---------------------------------------------------------------------
# algebra


def _coded_rows(count, n):
    """``count`` copies of the coded row g[b] = 1 + (b + 1)i.

    The product kernel is a scatter-add, so in each coordinate of
    f . g, f a 0/1 row, the real part counts the pairs that reach it and
    the imaginary part sums their codes b + 1.  Two sides that agree
    exactly, with every count at most 1, therefore agree pair by pair; a
    plain integer code would not, as one pair could be replaced by two
    whose codes add up to its own."""
    return np.broadcast_to(1.0 + 1j * np.arange(1, n + 1), (count, n))


def _coded_devs(got, want):
    """Per row: max_abs_diff of got and want, or the excess of a count in
    got over 1 where that is larger."""
    excess = np.maximum(got.real - 1.0, 0.0).max(axis=1, initial=0.0)
    return np.maximum(_row_devs(got, want), excess)


def _row_devs(A, B):
    """max_abs_diff of each row pair; B may also be a scalar."""
    return np.abs(A - B).max(axis=1)


def _max_dev(A, B):
    """The largest max_abs_diff over the row pairs, 0.0 for no rows; a NaN
    propagates, so it fails every tolerance."""
    return float(np.abs(A - B).max(initial=0.0))


def delta_dot_deviation(S):
    """d_x . g for every x, g the coded row, against the table: the
    expected row holds g[y] at xy for each y with x*x = yy* (x and xy
    determine y) and 0 elsewhere, so exact equality is d_x . d_y = d_xy
    or 0 for every pair.  Returns (max deviation in code units, witness)."""
    n = S.n
    G = _coded_rows(n, n)
    xs, ys = np.nonzero(S.composable_matrix())
    want = np.zeros((n, n), dtype=np.complex128)
    want[xs, S.mul[xs, ys]] = G[0, ys]
    dev, x = first_max(_coded_devs(dot_many(S, np.eye(n, dtype=np.complex128), G), want))
    return dev, f"x={S.label(x)}" if dev > 0 else ""


def tilde_delta_deviation(S):
    """(d_x . g)~ against g~ . d_x* for every x, g the coded row: exact
    equality with every count at most 1 is (d_x . d_y)~ = d_y~ . d_x~ for
    every pair."""
    n = S.n
    D, G = np.eye(n, dtype=np.complex128), _coded_rows(n, n)
    lhs = tilde_rows(S, dot_many(S, D, G))
    return float(_coded_devs(lhs, dot_many(S, tilde_rows(S, G), tilde_rows(S, D))).max(initial=0.0))


def _filter_devs(S, units):
    """(B, 2) coded-row deviations for the rows e_I of a (B, n) 0/1 array:
    of e_I . g from g kept where yy* is in I, and of g . e_I from g kept
    where y*y is in I.  Exact equality is each filter law for every
    function at once, since it pins every pair (e, y) and (y, e) with e
    in I."""
    G = _coded_rows(len(units), S.n)
    left = _coded_devs(dot_many(S, units, G), np.where(units[:, S.ran] != 0, G, 0))
    right = _coded_devs(dot_many(S, G, units), np.where(units[:, S.dom] != 0, G, 0))
    return np.stack([left, right], axis=1)


def delta_absorption_deviation(S):
    """The filter laws of d_e = e_{e} for every idempotent e; returns (max
    deviation in code units, witness)."""
    E = S.idempotents()
    devs = map_rows(lambda e: _filter_devs(S, unit_rows(S, e)), S.n, E[:, None])
    dev, k = first_max(devs.ravel())
    e, side = divmod(k, 2)
    return dev, f"{('d_e . g', 'g . d_e')[side]} at e={S.label(int(E[e]))}" if dev > 0 else ""


@_suite
def suite_algebra(S, seed, trials):
    rng = np.random.default_rng(seed)
    n = S.n
    dev, wit = delta_dot_deviation(S)
    yield "algebra.delta-dot", dev, wit

    bad = delta_assoc_witness(S)
    yield "algebra.dot-assoc-deltas", bad is None, "" if bad is None else f"triple {bad}"

    F, G, H = dyadic_rows(S, rng, trials, 3)
    worst = _max_dev(dot_many(S, dot_many(S, F, G), H), dot_many(S, F, dot_many(S, G, H)))
    yield "algebra.dot-assoc-random", worst

    # exact on the coded row, which pins every delta pair d_x . d_y
    D, G = np.eye(n, dtype=np.complex128), _coded_rows(n, n)
    exact = float(_coded_devs(dot_many(S, D, G), dot_direct_many(S, D, G)).max(initial=0.0))
    F, G = dyadic_rows(S, rng, min(trials, 25), 2)
    worst = _max_dev(dot_many(S, F, G), dot_direct_many(S, F, G))
    yield "algebra.dot-forms-agree", float(np.maximum(exact, worst))

    exact = tilde_delta_deviation(S)
    F, G = dyadic_rows(S, rng, trials, 2)
    worst = _max_dev(tilde_rows(S, dot_many(S, F, G)), dot_many(S, tilde_rows(S, G), tilde_rows(S, F)))
    yield "algebra.tilde-antimult", float(np.maximum(exact, worst))

    f = AlgebraElement.random(S, rng)
    gap = abs(f.tilde().norm(1) - f.norm(1))
    # the norms may sum in another order; the involution itself is exact
    yield "algebra.tilde-involution", gap if max_abs_diff(f.tilde().tilde(), f) == 0.0 else np.inf, "", None

    # row sums of |.| are bitwise the 1-norms AlgebraElement.norm gives
    F, G = random_rows(S, rng, trials, 2)
    margins = np.abs(dot_many(S, F, G)).sum(axis=1) - np.abs(F).sum(axis=1) * np.abs(G).sum(axis=1)
    worst_margin = float(np.max(margins, initial=-np.inf))
    Fp, Gp = np.abs(F), np.abs(G)
    margins = np.abs(dot_many(S, Fp, Gp)).sum(axis=1) - np.abs(conv_many(S, Fp, Gp)).sum(axis=1)
    yield "algebra.submultiplicative", max(worst_margin, 0.0)
    yield "algebra.positive-domination", max(float(np.max(margins, initial=-np.inf)), 0.0)

    yield ("algebra.delta-absorption", *delta_absorption_deviation(S))
    yield ("algebra.unit-laws", *finite_unit_laws_deviation(S, rng))
    yield ("algebra.approx-identity", *approx_identity_property(S, rng))

    rs = build_restricted_semigroup(S)
    exact, worst, wit = tau_homomorphism_deviation(rs, rng, trials=min(trials, 50))
    yield "algebra.restriction-homomorphism", float(np.maximum(exact, worst)), wit
    Fz = random_rows(rs.sr, rng, trials)[0]
    yield "algebra.restriction-isometry", float(cstar.l1_quotient_deviations(Fz, rs).max(initial=0.0))

    if S.is_group:
        F, G = dyadic_rows(S, rng, min(trials, 25), 2)
        C = conv_many(S, F, G)
        worst = np.maximum(_max_dev(dot_many(S, F, G), C), _max_dev(order_dot_many(S, F, G), C))
        yield "algebra.group-coincidence", float(worst)


def finite_unit_laws_deviation(S, rng):
    """Laws of the finitely-supported units e_F, on one F = {x} per pair
    {xx*, x*x} and on 20 random bigger sets.

    e_F is the sum of the deltas over I = i(F), so each law on F (e_F
    absorbs the deltas over F, e_F . e_G is the sum of deltas over
    I & i(G), right and left multiplication filter by domain and range
    idempotents in I, e_F is a unit on functions supported in F) is a
    case of the filter laws on every function.  dot_many is a scatter-add,
    linear in each argument, and each y has one range and one domain, so
    the filter laws on e_I are the sums of those on the d_e with e in I,
    and a union of pairs shows nothing its pairs do not.  Every
    idempotent e is its own pair {e, e}, so the filter rows include those
    of delta_absorption_deviation.  Each e_F from unit_rows must also
    equal, exactly, the row marking xx* and x*x for x in F; the filter
    laws hold for any 0/1 row of idempotents, so only this comparison
    sees a wrong unit_rows.  Returns (max deviation in code units,
    witness).
    """
    n = S.n
    bigger = []
    for _ in range(20):
        size = int(rng.integers(4, max(5, n + 1)))
        bigger.append(sorted(rng.choice(n, size=min(size, n), replace=False).tolist()))
    # shorter sets are padded with their first element, which leaves i(F) as it is
    width = max(len(F) for F in bigger)
    padded = np.array([F + F[:1] * (width - len(F)) for F in bigger], dtype=np.intp)
    pair = np.minimum(S.ran, S.dom) * n + np.maximum(S.ran, S.dom)
    names = np.sort(np.unique(pair, return_index=True)[1])

    def devs(m):
        eF = unit_rows(S, m)
        want = np.zeros_like(eF)
        r = np.arange(len(m))[:, None]
        want[r, S.ran[m]] = want[r, S.dom[m]] = 1.0
        return np.column_stack([_row_devs(eF, want), _filter_devs(S, eF)])

    rows = np.concatenate([map_rows(devs, n, names[:, None]), map_rows(devs, n, padded)])
    dev, k = first_max(rows.ravel())
    if dev == 0:
        return 0.0, ""
    r, side = divmod(k, 3)
    F = names[r : r + 1] if r < names.size else padded[r - names.size]
    F = ", ".join(S.label(x) for x in dict.fromkeys(F.tolist()))
    return dev, f"{('e_F', 'e_F . g', 'g . e_F')[side]} on F=({F})"


def approx_identity_property(S, rng):
    """50 decaying random functions are epsilon-reproduced by e_F, at
    epsilon 1e-1 and 1e-3, once F captures all but epsilon of the mass.
    All trials are drawn, in the order of a trial-by-trial loop, before
    any is checked; the witness is the first failing (trial, epsilon)."""
    n, trials = S.n, 50
    mags, turns = [], []
    for _ in range(trials):
        m = 0.5 ** np.arange(n, dtype=float)
        rng.shuffle(m)
        mags.append(m)
        turns.append(rng.uniform(size=n))
    f = np.reshape(mags, (trials, n)) * np.exp(2j * np.pi * np.reshape(turns, (trials, n)))
    order = np.argsort(-np.abs(f), axis=1)
    sorted_abs = np.take_along_axis(np.abs(f), order, axis=1)
    # tails[t, i]: the mass of row t outside its i + 1 largest coordinates
    tails = np.concatenate(
        [np.cumsum(sorted_abs[:, ::-1], axis=1)[:, ::-1][:, 1:], np.zeros((trials, 1))], axis=1
    )

    # row 2t + k: trial t at the k-th epsilon
    eps = np.tile([1e-1, 1e-3], trials)
    f, order, tails = (np.repeat(a, 2, axis=0) for a in (f, order, tails))
    hits = tails < eps[:, None]
    sizes = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, n)
    # F is the sizes[r] largest coordinates, padded with the largest
    eF = unit_rows(S, np.where(np.arange(n) < sizes[:, None], order, order[:, :1]))
    d1 = np.abs(f - dot_many(S, f, eF)).sum(axis=1)
    d2 = np.abs(f - dot_many(S, eF, f)).sum(axis=1)
    bad = np.flatnonzero(~((d1 < eps) & (d2 < eps)))
    if not bad.size:
        return True, ""
    r = int(bad[0])
    return False, (
        f"trial {r // 2}, eps={float(eps[r])}, |F|={int(sizes[r])}, "
        f"dev={max(d1[r], d2[r]):.3e}"
    )


def tau_homomorphism_deviation(rs, rng, trials=50):
    """Dropping the zero coordinate carries conv over the zero-adjoined
    semigroup to dot over S: on conv(d_A, g) for every A, g the coded row,
    where exact equality with every count at most 1 is the law on every
    delta pair, and on random pairs; and d_0 restricts to 0.  Returns
    (deviation on the deltas and d_0, deviation on random dyadic pairs,
    witness); both must be 0 exactly."""
    sr, S = rs.sr, rs.base
    n = S.n
    D, G = np.eye(sr.n, dtype=np.complex128), _coded_rows(sr.n, sr.n)
    # [:, :n] drops the zero coordinate: restrict_to_base on every row
    devs = _coded_devs(conv_many(sr, D, G)[:, :n], dot_many(S, D[:, :n], G[:, :n]))
    exact, A = first_max(devs)
    wit = f"delta row {A}" if exact > 0 else ""
    F, G = dyadic_rows(sr, rng, trials, 2)
    rand, t = first_max(_row_devs(conv_many(sr, F, G)[:, :n], dot_many(S, F[:, :n], G[:, :n])))
    if rand > exact:
        wit = f"random pair {t}"
    kernel = restrict_to_base(AlgebraElement.delta(sr, rs.zero_index), rs)
    if kernel.norm(1) != 0.0:
        exact, wit = max(exact, kernel.norm(1)), "restriction of d_0"
    return exact, rand, wit


# ---------------------------------------------------------------------
# representations


@_suite
def suite_reps(S, seed, trials):
    rng = np.random.default_rng(seed)
    rs = build_restricted_semigroup(S)
    lam_r = restricted_left_regular(S)
    rho_r = restricted_right_regular(S)
    lam = left_regular(S)
    Lam = left_regular(rs.sr)

    for rep, cid in (
        (lam_r, "reps.left-regular-restricted"),
        (rho_r, "reps.right-regular-restricted"),
        (lam, "reps.left-regular-full"),
        (Lam, "reps.left-regular-adjoined"),
    ):
        report = representation_report(rep)
        witness = "; ".join(v.witness for v in report.violations[:2])
        yield cid, not report.violations, witness, max(report.adjoint_deviation, report.multiplicative_deviation)

    # M M* M = M diag(column counts), so |M M* M - M| peaks at the largest count - 1
    yield "reps.partial-isometry", float(max(column_multiplicity(lam_r).max() - 1, 0))

    ext = extend_with_zero(lam_r, rs)
    ext_report = representation_report(ext)
    round_ok = np.array_equal(ext.table[: S.n], lam_r.table) and np.all(ext.table[rs.zero_index] < 0)
    yield (
        "reps.zero-extension",
        not ext_report.violations and bool(round_ok),
        "; ".join(v.witness for v in ext_report.violations[:2]),
    )

    noncomposable = int((~S.composable_matrix()).sum())
    hit = restricted_multiplicativity_witness(lam)
    yield (
        "reps.order-regular-not-restricted",
        (noncomposable == 0) or (hit is not None),
        "all pairs composable" if noncomposable == 0 else (f"pair {hit[:2]}" if hit else "no witness found"),
    )

    def lift_deviations(F, G, FG, Ft):
        LF = lift_many(lam_r, F)
        A = lift_many(lam_r, FG) - LF @ lift_many(lam_r, G)
        B = lift_many(lam_r, Ft) - np.conj(LF).transpose(0, 2, 1)
        return np.maximum(np.abs(A).max(axis=(1, 2)), np.abs(B).max(axis=(1, 2)))

    # about eight (n, n) arrays per row: two matrix entries per term
    F, G = dyadic_rows(S, rng, min(trials, 25), 2)
    devs = map_rows(lift_deviations, 2 * S.n * S.n, F, G, dot_many(S, F, G), tilde_rows(S, F))
    yield "reps.lift-homomorphism", float(devs.max(initial=0.0))

    yield "reps.unit-projection", unit_projection_deviation(S, rng)
    yield "reps.compression", compression_deviation(rs)
    yield ("reps.inner-identity-left", *lambda_inner_identity_report(S, trials=trials, seed=seed))
    yield ("reps.inner-identity-right", *rho_inner_identity_report(S, trials=trials, seed=seed + 1))
    if S.identity is not None:
        # on a group the evaluation at 1 is the summed one, bitwise
        lifted = rho_lift_identity_report(S, trials=trials, seed=seed + 2)
        dev = float(np.maximum(lifted.summed, lifted.localized))
        yield "reps.inner-identity-lifted", dev, lifted.witness

    yield "reps.faithful-restricted", lift_rank(lam_r, TOL.pivot) == S.n
    yield "reps.faithful-full", lift_rank(lam, TOL.pivot) == S.n
    yield "reps.semisimple", trace_form_rank(lam_r, TOL.pivot) == S.n


def unit_projection_deviation(S, rng):
    """The largest entry of B B - B and of B - B* over the lifts B through
    lambda_r of e_F for 10 random sets F, drawn set by set; exactly 0.0
    when each lift is an orthogonal projection.  The sets are padded with
    their first member, which leaves e_F as it is, and lifted and
    squared in one stack per block of rows."""
    sets = []
    for _ in range(10):
        size = int(rng.integers(1, S.n + 1))
        sets.append(rng.choice(S.n, size=size, replace=False).tolist())
    width = max(len(F) for F in sets)
    padded = np.array([F + F[:1] * (width - len(F)) for F in sets], dtype=np.intp)
    lam_r = restricted_left_regular(S)

    def devs(members):
        B = lift_many(lam_r, unit_rows(S, members))
        square = np.abs(B @ B - B).max(axis=(1, 2))
        return np.maximum(square, np.abs(B - np.conj(B).transpose(0, 2, 1)).max(axis=(1, 2)))

    return float(map_rows(devs, S.n * S.n, padded).max())


# ---------------------------------------------------------------------
# C*-norms


@_suite
def suite_cstar(S, seed, trials):
    rng = np.random.default_rng(seed)
    rs = build_restricted_semigroup(S)
    lam_r = restricted_left_regular(S)
    rows = np.concatenate([np.eye(S.n, dtype=np.complex128), random_rows(S, rng, min(trials, 25))[0]])
    reduced = cstar.block_norms(lam_r, rows)
    margins = reduced - np.abs(rows).sum(axis=1)
    yield "cstar.lift-contractive", max(float(np.max(margins, initial=-np.inf)), 0.0)

    F = random_rows(S, rng, min(trials, 25))[0]
    yield "cstar.identity", float(cstar.cstar_identity_deviations(S, F).max(initial=0.0))

    # the deltas and the first 10 random rows; the supremum norm is the
    # reduced norm at finite scale (cstar.full_cstar_norm), so the order
    # to check is reduced = supremum <= 1-norm
    yield "cstar.norm-order", max(float(np.max(margins[: S.n + 10])), 0.0), "", None

    yield "cstar.sigma-cross-check", max(sigma_cross_excess(S, rng, seed), 0.0)

    q = cstar.quotient_match_report(S, trials=min(trials, 40), seed=seed)
    yield "cstar.quotient-match", q.max_deviation, q.witness
    yield "cstar.quotient-minimized", q.minimized_deviation

    Fz = random_rows(rs.sr, rng, min(trials, 25))[0]
    yield "cstar.l1-quotient", float(cstar.l1_quotient_deviations(Fz, rs).max(initial=0.0))
    yield "cstar.opnorm-backend", opnorm_backend_deviation(S, rng)


def sigma_cross_excess(S, rng, seed):
    """The largest excess of a sampled representation's lift over the
    supremum norm (cstar.sigma_r_cross_checks) on 5 random elements,
    element i with 3 samples drawn from seed + i."""
    F = random_rows(S, rng, 5)[0]
    return float(cstar.sigma_r_cross_checks(S, F, trials=3, seeds=range(seed, seed + 5)).max())


def opnorm_backend_deviation(S, rng):
    """The worst gap, relative to max(1, svd_op_norm), of op_norm from
    svd_op_norm on 5 random dense (n, n) matrices, and of op_norm and of
    the block norms of reduced_cstar_norm from svd_op_norm on the lifts
    through lambda_r of 5 random elements; matrix i and element i are
    drawn in turn.  Each kind of norm takes one stacked call per block of
    rows."""
    n = S.n
    Ms, F = np.empty((5, n, n), dtype=np.complex128), np.empty((5, n), dtype=np.complex128)
    for i in range(5):
        Ms[i] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        F[i] = AlgebraElement.random(S, rng).coeffs
    lam_r = restricted_left_regular(S)

    def gaps(mats, rows):
        A = lift_many(lam_r, rows)
        dense_M, dense_A = svd_op_norms(mats), svd_op_norms(A)
        return np.stack(
            [
                np.abs(op_norms(mats) - dense_M) / np.maximum(1.0, dense_M),
                np.abs(op_norms(A) - dense_A) / np.maximum(1.0, dense_A),
                # the block route of reduced_cstar_norm against the dense lift
                np.abs(cstar.block_norms(lam_r, rows) - dense_A) / np.maximum(1.0, dense_A),
            ],
            axis=1,
        )

    return float(map_rows(gaps, 2 * n * n, Ms, F).max(initial=0.0))


SUITES = {
    "axioms": suite_axioms,
    "algebra": suite_algebra,
    "reps": suite_reps,
    "cstar": suite_cstar,
}


def run_suite(S, label, suite, *, seed=0, trials=100):
    start = time.perf_counter()
    checks = SUITES[suite](S, seed=seed, trials=trials)
    return SuiteReport(
        semigroup=label,
        suite=suite,
        checks=checks,
        seconds=time.perf_counter() - start,
    )


def run_suites(members, suites, *, seed=0, trials=100):
    """Run the named suites over labelled semigroups; deterministic for a
    fixed seed.  Check lists are sorted by id, so assembly order does not
    matter."""
    reports = []
    for label, S in members:
        for suite in suites:
            reports.append(
                run_suite(S, label, suite, seed=seed, trials=trials)
            )
    return reports
