"""The regular representations and their lifts.

All representations act on the coordinate space indexed by the semigroup
elements (delta basis, element order).  A "restricted" representation is
adjoint-preserving and multiplicative exactly on composable pairs, with
non-composable products mapped to 0; a "full" one is multiplicative on
every pair.

The three regular representations are 0/1 partial permutations, so each
is stored as an (n, n) partial-map table rather than an (n, n, n) matrix
stack; the stack is built only when something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

import numpy as np

from .algebra import AlgebraElement, dot, scatter
from .errors import (
    BaseMismatch,
    NotAdjointClosed,
    NotContractive,
    NotMultiplicative,
    NotRestrictedMultiplicative,
)
from .linalg import column_rank, op_norm

KIND_FULL = "full"
KIND_RESTRICTED = "restricted"


def kept_on(S, key, build):
    """build() once per semigroup and key, kept on S so it is freed with S."""
    value = S._rep_data.get(key)
    if value is None:
        value = build()
        S._rep_data[key] = value
    return value


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class Representation:
    """A map from semigroup elements to dim x dim complex matrices.

    ``kind`` records which homomorphism law the map claims: "full" for
    pi(x)pi(y) = pi(xy) on every pair, "restricted" for the composability
    rule.  ``mats`` is the (n, dim, dim) stack in element order and is
    treated as read-only.

    A regular representation is given by a read-only partial-map
    ``table`` instead: row y of pi(x) has its single 1 in column
    table[x, y], or is zero where that entry is -1.  Its stack is built
    from the table on first read of ``mats`` and kept on the semigroup
    under the representation's name.
    """

    def __init__(self, base, mats, kind, name="", *, table=None):
        if kind not in (KIND_FULL, KIND_RESTRICTED):
            raise ValueError(f"unknown kind {kind!r}")
        self.base = base
        self.kind = kind
        self.name = name
        self.table = table
        if table is not None:
            if mats is not None:
                raise ValueError("give a matrix stack or a table, not both")
            if table.shape != (base.n, base.n):
                raise ValueError("expected an (n, n) partial-map table")
        else:
            mats = np.asarray(mats, dtype=np.complex128)
            if mats.ndim != 3 or mats.shape[0] != base.n:
                raise ValueError("expected one square matrix per element")
            if mats.shape[1] != mats.shape[2]:
                raise ValueError("matrices must be square")
        self._mats = mats

    @property
    def dim(self):
        return int((self.table if self._mats is None else self._mats).shape[1])

    @property
    def mats(self):
        if self.table is None:
            return self._mats
        return kept_on(self.base, (self.name, "mats"), self._stack)

    def _stack(self):
        n = self.base.n
        xs, ys, cols = self.entries()
        mats = np.zeros((n, n, n), dtype=np.complex128)
        mats[xs, ys, cols] = 1.0
        return _read_only(mats)

    def entries(self):
        """The nonzero entries (x, y, table[x, y]) of a table, as three
        read-only arrays in row-major order, kept on the semigroup."""

        def build():
            xs, ys = np.nonzero(self.table >= 0)
            return tuple(_read_only(a) for a in (xs, ys, self.table[xs, ys]))

        return kept_on(self.base, (self.name, "entries"), build)

    def mat(self, x):
        """pi(x), without building the stack of a table."""
        if self.table is None:
            return self._mats[x]
        M = np.zeros((self.dim, self.dim), dtype=np.complex128)
        rows = np.flatnonzero(self.table[x] >= 0)
        M[rows, self.table[x, rows]] = 1.0
        return M


def _kept_on_base(kind, name):
    """Build a regular representation's partial-map table once per
    semigroup and keep it on the semigroup, so it is freed with it."""

    def wrap(build):
        @wraps(build)
        def rep(S):
            table = kept_on(S, (name, "table"), lambda: _read_only(build(S)))
            return Representation(S, None, kind, name, table=table)

        return rep

    return wrap


@_kept_on_base(KIND_RESTRICTED, "lambda_r")
def restricted_left_regular(S):
    """lambda_r: (lambda_r(x) xi)(y) = xi(x*y) when xx* = yy*, else 0."""
    same_range = S.ran[:, None] == S.ran[None, :]
    return np.where(same_range, S.mul[S.star], -1)


@_kept_on_base(KIND_FULL, "lambda")
def left_regular(S):
    """The classical lambda: (lambda(x) xi)(y) = xi(x*y) when xx* >= yy*."""
    below = S.order_table()[S.ran[None, :], S.ran[:, None]]
    return np.where(below, S.mul[S.star], -1)


@_kept_on_base(KIND_RESTRICTED, "rho_r")
def restricted_right_regular(S):
    """rho_r: (rho_r(x) xi)(y) = xi(yx) when xx* = y*y, else 0."""
    return np.where(S.ran[:, None] == S.dom[None, :], S.mul.T, -1)


def lift(rep, f):
    """The lifted operator sum_x f(x) pi(x).

    On a table this scatters f(x) into entry (y, table[x, y]) for every
    nonzero entry, O(nnz) instead of a contraction with the stack.
    """
    if f.base is not rep.base:
        raise BaseMismatch("element and representation live over different bases")
    if rep.table is None:
        return np.tensordot(f.coeffs, rep.mats, axes=1)
    xs, ys, cols = rep.entries()
    dim = rep.dim
    return scatter(f.coeffs[xs], ys * dim + cols, dim * dim).reshape(dim, dim)


def extend_with_zero(rep, rs):
    """View a restricted representation of S as a full one of the
    zero-adjoined semigroup, sending the adjoined zero to 0."""
    if rep.base is not rs.base:
        raise BaseMismatch("representation does not live over the base semigroup")
    dim = rep.dim
    mats = np.concatenate(
        [rep.mats, np.zeros((1, dim, dim), dtype=np.complex128)], axis=0
    )
    return Representation(rs.sr, mats, KIND_FULL, rep.name + "+0")


def drop_zero(rep, rs):
    """Inverse of extend_with_zero: forget the zero coordinate of a
    representation of the zero-adjoined semigroup that vanishes at 0."""
    if rep.base is not rs.sr:
        raise BaseMismatch("representation does not live over the zero-adjoined semigroup")
    if np.abs(rep.mats[rs.zero_index]).max() != 0.0:
        raise ValueError("representation does not vanish at the adjoined zero")
    name = rep.name[:-2] if rep.name.endswith("+0") else rep.name
    return Representation(rs.base, rep.mats[: rs.base.n].copy(), KIND_RESTRICTED, name)


# ---------------------------------------------------------------------
# membership: adjoint law, contractivity, multiplicativity


@dataclass
class Violation:
    code: str
    witness: str
    deviation: float


@dataclass
class MembershipReport:
    """Total report: every violated law is listed with a witness."""

    kind: str
    violations: list = field(default_factory=list)
    adjoint_deviation: float = 0.0
    worst_norm: float = 0.0
    multiplicative_deviation: float = 0.0

    @property
    def ok(self):
        return not self.violations


def representation_report(rep, *, atol=0.0, contraction_slack=1e-9):
    """Check the three membership laws for rep's claimed kind.

    ``atol`` is the entrywise tolerance for the adjoint and product laws
    (0.0 demands exact equality, appropriate for the 0/1 regular
    representations); operator norms are allowed to reach
    1 + contraction_slack.
    """
    S = rep.base
    n = S.n
    report = MembershipReport(kind=rep.kind)

    adj = rep.mats.conj().transpose(0, 2, 1)
    dev = np.abs(rep.mats[S.star] - adj)
    report.adjoint_deviation = float(dev.max()) if dev.size else 0.0
    if report.adjoint_deviation > atol:
        x = int(np.unravel_index(np.argmax(dev), dev.shape)[0])
        report.violations.append(
            Violation(
                "adjoint",
                f"pi({S.label(S.star[x])}) != pi({S.label(x)})* "
                f"(deviation {report.adjoint_deviation:.3e})",
                report.adjoint_deviation,
            )
        )

    worst = 0.0
    worst_x = 0
    for x in range(n):
        v = op_norm(rep.mats[x])
        if v > worst:
            worst, worst_x = v, x
    report.worst_norm = worst
    if worst > 1.0 + contraction_slack:
        report.violations.append(
            Violation(
                "contraction",
                f"||pi({S.label(worst_x)})|| = {worst:.12f} > 1",
                worst - 1.0,
            )
        )

    C = S.composable_matrix()
    mdev = 0.0
    mwitness = None
    chunk = 64  # products pi(x) pi(y) formed at a time
    for x in range(n):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            prod = rep.mats[x] @ rep.mats[lo:hi]
            target = rep.mats[S.mul[x, lo:hi]]
            if rep.kind == KIND_RESTRICTED:
                mask = C[x, lo:hi, None, None]
                target = np.where(mask, target, 0)
            d = np.abs(prod - target)
            local = float(d.max()) if d.size else 0.0
            if local > mdev:
                mdev = local
                y = lo + int(np.unravel_index(np.argmax(d), d.shape)[0])
                mwitness = (x, y)
    report.multiplicative_deviation = mdev
    if mdev > atol:
        x, y = mwitness
        law = "pi(xy) on composables / 0 otherwise" if rep.kind == KIND_RESTRICTED else "pi(xy)"
        report.violations.append(
            Violation(
                "multiplicative",
                f"pi({S.label(x)}) pi({S.label(y)}) != {law} "
                f"(deviation {mdev:.3e})",
                mdev,
            )
        )
    return report


def require_membership(rep, **kwargs):
    """Raise the coded exception for the first violated membership law."""
    report = representation_report(rep, **kwargs)
    for v in report.violations:
        if v.code == "adjoint":
            raise NotAdjointClosed(v.witness, witness=v.witness)
        if v.code == "contraction":
            raise NotContractive(v.witness, witness=v.witness)
        if v.code == "multiplicative":
            if rep.kind == KIND_RESTRICTED:
                raise NotRestrictedMultiplicative(v.witness, witness=v.witness)
            raise NotMultiplicative(v.witness, witness=v.witness)
    return report


def restricted_multiplicativity_witness(rep):
    """A non-composable pair on which pi(x)pi(y) != 0, if one exists.

    Used as the negative control: the order-based left regular
    representation is not a restricted representation whenever such a
    pair exists.
    """
    S = rep.base
    C = S.composable_matrix()
    for x in range(S.n):
        ys = np.flatnonzero(~C[x])
        if ys.size == 0:
            continue
        prods = rep.mats[x] @ rep.mats[ys]
        norms = np.abs(prods).max(axis=(1, 2))
        hit = np.flatnonzero(norms > 0)
        if hit.size:
            y = int(ys[hit[0]])
            return x, y, float(norms[hit[0]])
    return None


# ---------------------------------------------------------------------
# inner-product identities


@dataclass
class IdentityReport:
    name: str
    max_deviation: float
    tolerance: float
    witness: str = ""

    @property
    def ok(self):
        return self.max_deviation < self.tolerance


def lambda_inner_identity_report(S, *, trials=100, seed=0, tol=1e-10):
    """<lambda_r(x*) xi, eta> = (xi . eta~)(x) for every x and random
    vectors."""
    lam = restricted_left_regular(S)
    mats_star = lam.mats[S.star]
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = np.einsum("xij,j,i->x", mats_star, xi.coeffs, np.conj(eta.coeffs))
        rhs = dot(xi, eta.tilde()).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return IdentityReport("lambda_r inner identity", worst, tol, witness)


def rho_inner_identity_report(S, *, trials=100, seed=0, tol=1e-10):
    """<rho_r(x) xi, eta> = (eta~ . xi)(x) for every x and random vectors."""
    rho = restricted_right_regular(S)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = np.einsum("xij,j,i->x", rho.mats, xi.coeffs, np.conj(eta.coeffs))
        rhs = dot(eta.tilde(), xi).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return IdentityReport("rho_r inner identity", worst, tol, witness)


@dataclass
class LiftedRhoReport:
    """Three readings of the lifted right-regular pairing.

    ``summed`` is <rho_r~(phi) xi, eta> against the evaluation of
    phi . (xi-check . eta-bar) summed over all idempotents; it holds for
    every inverse semigroup and reduces to evaluation at the identity
    when that is the only idempotent (the group case, where
    ``at_identity`` measures the same thing).  On semigroups with more
    idempotents the at-identity evaluation keeps only the terms with
    unit range: ``localized`` checks that it equals exactly that partial
    sum, and ``at_identity`` then just records how much of the pairing
    the single evaluation misses.
    """

    summed: float
    at_identity: float
    localized: float
    tolerance: float
    group_like: bool
    witness: str = ""

    @property
    def ok(self):
        strict = self.summed < self.tolerance and self.localized < self.tolerance
        if self.group_like:
            strict = strict and self.at_identity < self.tolerance
        return strict


def rho_lift_identity_report(S, *, trials=100, seed=0, tol=1e-10):
    """Pair rho_r~(phi) against evaluations of phi . (xi-check . eta-bar);
    needs the identity element."""
    if S.identity is None:
        raise ValueError("the lifted identity is evaluated at the identity element")
    rho = restricted_right_regular(S)
    rng = np.random.default_rng(seed)
    E = S.idempotents()
    unit_range = S.ran == S.identity
    d_sum = d_ident = d_local = 0.0
    witness = ""
    for t in range(trials):
        phi = AlgebraElement.random(S, rng)
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = complex(np.vdot(eta.coeffs, lift(rho, phi) @ xi.coeffs))
        full = dot(phi, dot(xi.check(), eta.conj())).coeffs
        rhs_sum = complex(full[E].sum())
        rhs_ident = complex(full[S.identity])
        pairing = phi.coeffs * dot(eta.tilde(), xi).coeffs
        rhs_local = complex(pairing[unit_range].sum())
        if abs(lhs - rhs_sum) > d_sum:
            d_sum = abs(lhs - rhs_sum)
            witness = f"trial {t}"
        d_ident = max(d_ident, abs(lhs - rhs_ident))
        d_local = max(d_local, abs(rhs_ident - rhs_local))
    return LiftedRhoReport(
        summed=d_sum,
        at_identity=d_ident,
        localized=d_local,
        tolerance=tol,
        group_like=len(E) == 1,
        witness=witness,
    )


# ---------------------------------------------------------------------
# faithfulness and the compression identity


def lift_rank(rep, rel_tol=1e-9):
    """Rank of f -> lift(rep, f); the lift is faithful iff this is n."""
    cols = rep.mats.reshape(rep.base.n, -1).T
    return column_rank(cols, rel_tol)


def trace_form_rank(rep, rel_tol=1e-9):
    """Rank of the Gram matrix of tr(pi(x) pi(y)*).

    Full rank certifies that the trace form is nondegenerate on the image
    of the lift, hence that the lifted algebra has zero radical.
    """
    V = rep.mats.reshape(rep.base.n, -1)
    G = V @ V.conj().T
    return column_rank(G, rel_tol)


def compression_deviation(rs):
    """Max entrywise deviation of Lambda(s) P0 from lambda_r(s), where P0
    kills the zero coordinate; exactly 0 for every valid input."""
    Lam = left_regular(rs.sr)
    lam_r = restricted_left_regular(rs.base)
    n, z = rs.base.n, rs.zero_index
    compressed = Lam.mats[:n].copy()
    compressed[:, :, z] = 0.0
    embedded = np.zeros_like(compressed)
    embedded[:, :n, :n] = lam_r.mats
    return float(np.abs(compressed - embedded).max())
