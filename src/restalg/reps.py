"""The regular representations and their lifts.

All representations act on the coordinate space indexed by the semigroup
elements (delta basis, element order).  A "restricted" representation is
adjoint-preserving and multiplicative exactly on composable pairs, with
non-composable products mapped to 0; a "full" one is multiplicative on
every pair.

The regular representations are 0/1 partial permutations, so a
representation is an (n, dim) partial-map table, never a matrix stack,
and each membership law is an integer identity on that table.

Multiplicativity is decided on generators, by the closure argument of
Light's associativity test (Clifford and Preston, *The Algebraic Theory
of Semigroups I*, 1961, section 1.2): over an associative base B, the
set of a with pi(a)pi(y) = pi(ay) for all y is closed under the
product, so it is B once it holds a generating set.  The restricted law
on S is the full law on the zero-adjoined semigroup S0, whose nonzero
products are exactly the composable pairs (the groupoid picture of
Paterson, *Groupoids, Inverse Semigroups, and their Operator Algebras*,
1999), for pi extended by pi(0) = 0.  Both proofs are in
:func:`representation_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import wraps
from typing import NamedTuple

import numpy as np

from .algebra import dot_many, dot_many_into, first_max, map_rows, random_rows, scatter_rows, tilde_rows
from .errors import BaseMismatch
from .linalg import _pattern_labels
from .restricted import build_restricted_semigroup
from .semigroups import BLOCK_ENTRIES, first_mismatch, kept_on, read_only

KIND_FULL = "full"
KIND_RESTRICTED = "restricted"


class Representation:
    """A map x -> pi(x) from semigroup elements to dim x dim 0/1 matrices,
    given as a partial-map table.

    ``table`` is an integer (base.n, dim) array: row y of pi(x) has its
    single 1 in column table[x, y], or is zero where that entry is -1.
    It is copied and kept read-only.  ``kind`` records which homomorphism
    law the map claims: "full" for pi(x)pi(y) = pi(xy) on every pair,
    "restricted" for the composability rule.  Arrays derived from the
    table are kept on this object.
    """

    def __init__(self, base, table, kind, name=""):
        if kind not in (KIND_FULL, KIND_RESTRICTED):
            raise ValueError(f"unknown kind {kind!r}")
        table = np.asarray(table)
        if table.ndim != 2 or not np.issubdtype(table.dtype, np.integer):
            raise ValueError("expected a 2-D integer partial-map table")
        if table.shape[0] != base.n:
            raise ValueError(f"expected one table row per element, got {table.shape[0]} for {base.n}")
        if table.size and (table.min() < -1 or table.max() >= table.shape[1]):
            raise ValueError(f"table entries must lie in [-1, {table.shape[1]})")
        self.base = base
        self.kind = kind
        self.name = name
        self.table = read_only(np.array(table, dtype=np.intp))
        self._rep_data = {}

    @property
    def dim(self):
        return int(self.table.shape[1])

    def entries(self):
        """The nonzero entries (x, y, table[x, y]), as three read-only
        arrays in row-major order."""

        def build():
            xs, ys = np.nonzero(self.table >= 0)
            return tuple(read_only(a) for a in (xs, ys, self.table[xs, ys]))

        return kept_on(self, "entries", build)

    def mat(self, x):
        """pi(x) as one dense matrix."""
        M = np.zeros((self.dim, self.dim), dtype=np.complex128)
        rows = np.flatnonzero(self.table[x] >= 0)
        M[rows, self.table[x, rows]] = 1.0
        return M


def _kept_on_base(kind, name):
    """Build a regular representation once per semigroup and keep it on
    the semigroup, so it is freed with it."""

    def wrap(build):
        @wraps(build)
        def rep(S):
            return kept_on(S, (name, "rep"), lambda: Representation(S, build(S), kind, name))

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
    """The lifted operator sum_x f(x) pi(x): f(x) scattered into entry
    (y, table[x, y]) for every nonzero entry, O(nnz); the one-row case of
    lift_many."""
    if f.base is not rep.base:
        raise BaseMismatch("element and representation live over different bases")
    return lift_many(rep, f.coeffs[None, :])[0]


def lift_many(rep, F):
    """The (B, dim, dim) stack of lifts of the rows of a (B, n) coefficient
    array, in one scatter; each is bitwise the lift of its row alone.
    Callers bound B (see algebra.map_rows)."""
    xs, ys, cols = rep.entries()
    dim = rep.dim
    bins = kept_on(rep, "lift bins", lambda: read_only(ys * dim + cols))
    return scatter_rows(np.take(F, xs, axis=1), bins, dim * dim).reshape(-1, dim, dim)


class SupportLayout(NamedTuple):
    """The diagonal blocks of every lift through a representation, laid
    end to end in one row (support_layout).

    ``blocks`` holds, per block size d in ascending order, the (q, d)
    array of the q components of that size, each in ascending order and
    the components of one size in the order of their smallest member;
    size k's (q, d, d) stack of blocks (row-major) fills positions
    ``starts[k]`` to ``starts[k + 1]`` of the row.  Entry j of
    rep.entries() lands at position ``bins[j]``.
    """

    blocks: list
    starts: np.ndarray
    bins: np.ndarray


def support_layout(rep):
    """The SupportLayout of the connected components of rep's support,
    kept on rep.

    Two coordinates share a component when a chain of nonzero entries
    (y, table[x, y]) of the pi(x), read in either direction, joins them:
    the components of the union of the supports, symmetrized, with its
    diagonal (linalg._pattern_labels).  Every nonzero entry of every pi(x)
    has its row and column in one component, so every lift is
    block-diagonal over them, whatever the table.  For lambda_r they are
    the L-classes: row y goes to column x*y, with (x*y)*(x*y) = y*y.
    """

    def build():
        _, ys, cols = rep.entries()
        dim = rep.dim
        pattern = np.eye(dim, dtype=bool)
        pattern[ys, cols] = True
        pattern[cols, ys] = True
        # the diagonal joins row i to column i, so the rows carry the labels
        labels = _pattern_labels(pattern)[:dim]
        size = np.bincount(labels, minlength=dim)[labels]
        # the coordinates by (component size, label), each component in
        # ascending order; a label is below dim
        order = np.argsort(size * dim + labels, kind="stable")
        sorted_size = size[order]
        position = np.empty(dim, dtype=np.intp)
        position[order] = np.arange(dim)
        # per coordinate, where its size's run starts in order and its
        # stack in the row: the stacks before hold one row of d entries
        # per coordinate of size d
        seg = np.searchsorted(sorted_size, size)
        offset = np.concatenate([[0], np.cumsum(sorted_size)])[seg]
        j, local = np.divmod(position - seg, size)
        corner = offset + j * size * size
        bins = corner[ys] + local[ys] * size[ys] + local[cols]
        firsts = np.flatnonzero(np.diff(sorted_size, prepend=0))
        counts = np.diff(np.append(firsts, dim))
        d = sorted_size[firsts]
        return SupportLayout(
            blocks=[read_only(order[lo : lo + c].reshape(-1, k)) for lo, c, k in zip(firsts, counts, d)],
            starts=read_only(np.concatenate([[0], np.cumsum(counts * d)])),
            bins=read_only(bins),
        )

    return kept_on(rep, "support layout", build)


def lift_blocks(rep, F):
    """The diagonal blocks of lift_many(rep, F) over support_layout(rep):
    one (B, q, d, d) stack per block size, in the order of its blocks, in
    one scatter.  Each bin sums the terms of its dense entry in their
    order, so every entry is bitwise the dense lift's, and the dense lift
    is zero off the blocks.  Callers bound B (see algebra.map_rows)."""
    layout = support_layout(rep)
    row = scatter_rows(np.take(F, rep.entries()[0], axis=1), layout.bins, layout.starts[-1])
    return [
        row[:, lo:hi].reshape(-1, *L.shape, L.shape[1])
        for L, lo, hi in zip(layout.blocks, layout.starts, layout.starts[1:])
    ]


def extend_with_zero(rep, rs):
    """View a restricted representation of S as a full one of the
    zero-adjoined semigroup, sending the adjoined zero (the last element)
    to 0."""
    if rep.base is not rs.base:
        raise BaseMismatch("representation does not live over the base semigroup")
    table = np.vstack([rep.table, np.full((1, rep.dim), -1, dtype=np.intp)])
    return Representation(rs.sr, table, KIND_FULL, rep.name + "+0")


def column_multiplicity(rep):
    """Per x, the largest number of rows of pi(x) with their 1 in one
    column.  pi(x)* pi(x) is the diagonal matrix of the column counts, so
    ||pi(x)|| is the square root of this, and pi(x) is a partial isometry
    iff it is at most 1."""
    n, dim = rep.table.shape
    # one bin per (x, column), column -1 included and then dropped
    bins = np.arange(n)[:, None] * (dim + 1) + rep.table + 1
    counts = np.bincount(bins.ravel(), minlength=n * (dim + 1)).reshape(n, dim + 1)
    return counts[:, 1:].max(axis=1, initial=0)


# ---------------------------------------------------------------------
# membership: adjoint law, contractivity, multiplicativity


@dataclass
class Violation:
    code: str
    witness: str
    deviation: float


@dataclass
class MembershipReport:
    """Total report: every violated law is listed with a witness, so the
    laws hold iff ``violations`` is empty."""

    kind: str
    violations: list = field(default_factory=list)
    adjoint_deviation: float = 0.0
    worst_norm: float = 0.0
    multiplicative_deviation: float = 0.0


def representation_report(rep):
    """Check the three membership laws for rep's claimed kind, exactly on
    its table.

    Entries of pi(x) and of every product pi(x)pi(y) are 0 or 1, so a
    violated adjoint or product law deviates by exactly 1.  The witness is
    the first x (adjoint, contraction) or the first pair (x, y) in x-major
    order (multiplicativity).

    The product law is checked for x in a generating set only, O(g n dim)
    for g generators against O(n^2 dim) for every x.  The premise is that
    the base came through :func:`restalg.semigroups.validate_table`, so it
    is associative; its generators are the ones that validation kept.

    - Full kind over B: let H = {a : pi(a)pi(y) = pi(ay) for all y}.  For
      a, b in H and any y, pi(ab)pi(y) = pi(a)pi(b)pi(y) = pi(a)pi(by) =
      pi(a(by)) = pi((ab)y), so ab is in H.  H is closed under the
      product, so it is B once it holds B's generators.
    - Restricted kind over S: extend pi to the zero-adjoined semigroup S0
      by pi(0) = 0.  The product of S0 is xy on composable pairs and 0
      elsewhere, and any pair with 0 gives 0 on both sides, so the
      restricted law on S says exactly that the extension is
      multiplicative on S0.  S0 is associative (it is validated when it
      is built), and the argument above runs over S0: x goes over S0's
      generators with the zero dropped (the law holds at 0), y over S.

    When the generators find a failure, all x are checked in order, so
    the witness is still the first failing pair in x-major order; only a
    broken table pays the full cost.
    """
    S = rep.base
    T = rep.table
    report = MembershipReport(kind=rep.kind)

    # pi(x*) = pi(x)* iff x* maps T[x, r] back to r on the nonzero entries
    # of row x and has no others
    has = T >= 0
    back = T[S.star[:, None], np.where(has, T, 0)]
    count = has.sum(axis=1)
    bad = np.any(has & (back != np.arange(rep.dim)), axis=1) | (count != count[S.star])
    if bad.any():
        x = int(np.argmax(bad))
        report.adjoint_deviation = 1.0
        report.violations.append(
            Violation(
                "adjoint",
                f"pi({S.label(S.star[x])}) != pi({S.label(x)})* (deviation 1.000e+00)",
                1.0,
            )
        )

    mult = column_multiplicity(rep)
    x = int(np.argmax(mult))
    report.worst_norm = math.sqrt(mult[x])
    if mult[x] > 1:
        report.violations.append(
            Violation(
                "contraction",
                f"||pi({S.label(x)})|| = {report.worst_norm:.12f} > 1",
                report.worst_norm - 1.0,
            )
        )

    # the extension of pi by pi(0) = 0 to the product table mul, where
    # entry n is the zero: the table of S0 for the restricted kind
    if rep.kind == KIND_RESTRICTED:
        rs = build_restricted_semigroup(S)
        mul = rs.sr.mul[: S.n, : S.n]
        gens = rs.sr.generators()
        gens = gens[gens != rs.zero_index]
    else:
        mul, gens = S.mul, S.generators()
    if _product_law_witness(T, mul, gens) is not None:
        x, y = _product_law_witness(T, mul, np.arange(S.n))
        report.multiplicative_deviation = 1.0
        law = "pi(xy) on composables / 0 otherwise" if rep.kind == KIND_RESTRICTED else "pi(xy)"
        report.violations.append(
            Violation(
                "multiplicative",
                f"pi({S.label(x)}) pi({S.label(y)}) != {law} (deviation 1.000e+00)",
                1.0,
            )
        )
    return report


def _product_law_witness(T, mul, xs):
    """The first x in xs, with the first y, at which pi(x)pi(y) !=
    pi(mul[x, y]), or None; T is pi's (n, dim) partial-map table and an
    entry n of mul stands for the zero, whose pi is 0.

    Row r of pi(x)pi(y) has its 1 in column T[y, T[x, r]] and row r of
    pi(xy) in column T[xy, r]; both are read by one first_mismatch over
    the x, from tables padded with -1, the row of a zero row of pi(x)
    (index -1, so the last) and of the zero.  The first x with a
    mismatch does not depend on where the blocks fall.
    """
    n, dim = T.shape
    # tables and keys in the smallest signed dtype that holds the entries,
    # in [-1, dim), and the products, in [0, n]
    dtype = np.min_scalar_type(-max(dim, n) - 1)
    lhs_table = np.full((dim + 1, n), -1, dtype=dtype)  # [T[x, r], y]
    lhs_table[:dim] = T.T
    rhs_table = np.full((dim, n + 1), -1, dtype=dtype)  # [r, xy]
    rhs_table[:, :n] = T.T
    # column x of lhs_table is row x of T
    hit = first_mismatch(lhs_table, lhs_table[:dim, xs], rhs_table, mul.astype(dtype)[xs])
    if hit is None:
        return None
    lo, ne = hit
    k = int(np.argmax(ne.any(axis=(0, 2))))
    return int(xs[lo + k]), int(np.argmax(ne[:, k].any(axis=0)))


def restricted_multiplicativity_witness(rep):
    """A non-composable pair on which pi(x)pi(y) != 0, if one exists, as
    (x, y, largest entry of the product).

    Used as the negative control: the order-based left regular
    representation is not a restricted representation whenever such a
    pair exists.
    """
    S = rep.base
    T = rep.table
    C = S.composable_matrix()
    for x in range(S.n):
        ys = np.flatnonzero(~C[x])
        # pi(x)pi(y) != 0 iff some column hit by pi(x) is a nonzero row of pi(y)
        hit = np.any(T[np.ix_(ys, T[x][T[x] >= 0])] >= 0, axis=1)
        if hit.any():
            return x, int(ys[np.argmax(hit)]), 1.0
    return None


# ---------------------------------------------------------------------
# inner-product identities


def _pairings(rep, at, Xi, Eta):
    """Row t: <pi(x) Xi[t], Eta[t]> per entry of rep, summed into
    coordinate at[entry], in blocks of rows."""
    _, ys, cols = rep.entries()
    n = rep.base.n

    def block(X, Y):
        # np.take lays the gathers out row-major, so each product is
        # bitwise the one its row gives alone
        return scatter_rows(np.take(X, cols, axis=1) * np.conj(np.take(Y, ys, axis=1)), at, n)

    return map_rows(block, ys.size, Xi, Eta)


def _worst_entry(lhs, rhs):
    """(max |lhs - rhs|, witness naming its first trial and coordinate)."""
    dev = np.abs(lhs - rhs)
    worst, t = first_max(dev.max(axis=1, initial=0.0))
    return worst, f"trial {t}, x={int(np.argmax(dev[t]))}" if worst > 0 else ""


def lambda_inner_identity_report(S, *, trials=100, seed=0):
    """<lambda_r(x*) xi, eta> = (xi . eta~)(x) for every x and random
    vectors; returns (max deviation, witness)."""
    rep = restricted_left_regular(S)
    xs = rep.entries()[0]
    Xi, Eta = random_rows(S, np.random.default_rng(seed), trials, 2)
    # entry (ys, cols) of lambda_r(xs) is one of lambda_r(x*) for x = xs*
    lhs = _pairings(rep, S.star[xs], Xi, Eta)
    return _worst_entry(lhs, dot_many(S, Xi, tilde_rows(S, Eta)))


def rho_inner_identity_report(S, *, trials=100, seed=0):
    """<rho_r(x) xi, eta> = (eta~ . xi)(x) for every x and random vectors;
    returns (max deviation, witness)."""
    rep = restricted_right_regular(S)
    Xi, Eta = random_rows(S, np.random.default_rng(seed), trials, 2)
    lhs = _pairings(rep, rep.entries()[0], Xi, Eta)
    return _worst_entry(lhs, dot_many(S, tilde_rows(S, Eta), Xi))


@dataclass
class LiftedRhoReport:
    """Three deviations of the lifted right-regular pairing.

    ``summed`` is that of <rho_r~(phi) xi, eta> from the evaluation of
    phi . (xi-check . eta-bar) summed over all idempotents; the identity
    holds for every inverse semigroup and reduces to evaluation at the
    identity when that is the only idempotent (the group case, where
    ``at_identity`` is the same number).  On semigroups with more
    idempotents the at-identity evaluation keeps only the terms with
    unit range: ``localized`` measures how far it is from exactly that
    partial sum, and ``at_identity`` then just records how much of the
    pairing the single evaluation misses.
    """

    summed: float
    at_identity: float
    localized: float
    witness: str = ""


def rho_lift_identity_report(S, *, trials=100, seed=0):
    """Pair rho_r~(phi) against evaluations of phi . (xi-check . eta-bar);
    needs the identity element."""
    if S.identity is None:
        raise ValueError("the lifted identity is evaluated at the identity element")
    rho = restricted_right_regular(S)
    Phi, Xi, Eta = random_rows(S, np.random.default_rng(seed), trials, 3)
    E = S.idempotents()

    def lifted(P, X, Y):
        # <eta, lift(phi) xi> per row, as vdot on one row gives it
        return (np.conj(Y)[:, None, :] @ (lift_many(rho, P) @ X[:, :, None]))[:, 0, 0]

    lhs = map_rows(lifted, rho.dim * rho.dim + rho.entries()[0].size, Phi, Xi, Eta)
    # each product is evaluated only where it is read: the outer one at
    # the idempotents (x = xx*), the pairing's at unit range
    full = dot_many_into(S, Phi, dot_many(S, Xi[:, S.star], np.conj(Eta)), S.ran == np.arange(S.n))
    # np.take keeps the rows contiguous, so each sum is the one-row sum
    rhs_sum = np.take(full, E, axis=1).sum(axis=1)
    rhs_ident = full[:, S.identity]
    unit_range = S.ran == S.identity
    units = np.flatnonzero(unit_range)
    pairing = dot_many_into(S, tilde_rows(S, Eta), Xi, unit_range)
    rhs_local = (np.take(Phi, units, axis=1) * np.take(pairing, units, axis=1)).sum(axis=1)
    d_sum, t = first_max(np.abs(lhs - rhs_sum))
    return LiftedRhoReport(
        summed=d_sum,
        at_identity=float(np.abs(lhs - rhs_ident).max(initial=0.0)),
        localized=float(np.abs(rhs_ident - rhs_local).max(initial=0.0)),
        witness=f"trial {t}" if d_sum > 0 else "",
    )


# ---------------------------------------------------------------------
# faithfulness and the compression identity


def _gram(rep):
    """The exact (n, n) Gram matrix G[x, y] = tr(pi(x) pi(y)*), the
    number of rows r with T[x, r] == T[y, r] >= 0, kept on rep.

    It is V V^T for the 0/1 matrix V of the flattened pi(x), so it has
    V's rank, without V: on the order-256 tables G is 128 KiB where V
    is up to 128 MiB.  Each -1 of T is first replaced by a code of its
    own row (dim + x), so that it matches nothing off the diagonal; the
    diagonal, where every code matches itself, is set to the row counts.
    The columns of T are compared in blocks of about ``BLOCK_ENTRIES``
    entries and at most 255 columns, whose counts are summed as uint8.
    """

    def build():
        T = rep.table
        n, dim = T.shape
        codes = np.where(T >= 0, T, dim + np.arange(n)[:, None]).T
        cols = np.ascontiguousarray(codes, dtype=np.promote_types(np.int16, np.min_scalar_type(dim + n)))
        # entries are at most dim
        G = np.zeros((n, n), dtype=np.promote_types(np.uint16, np.min_scalar_type(dim)))
        step = max(1, min(255, BLOCK_ENTRIES // (n * n or 1)))
        eq = np.empty((min(step, dim), n, n), dtype=bool)
        part = np.empty((n, n), dtype=np.uint8)
        for i in range(0, dim, step):
            c = cols[i : i + step]
            same = np.equal(c[:, :, None], c[:, None, :], out=eq[: len(c)])
            G += np.add.reduce(same.view(np.uint8), axis=0, dtype=np.uint8, out=part)
        np.fill_diagonal(G, np.count_nonzero(T >= 0, axis=1))
        return read_only(G)

    return kept_on(rep, "gram", build)


def _gram_rank(rep, rel_tol):
    """The number of singular values of _gram(rep) above rel_tol times
    the largest, as linalg.column_rank counts them; the singular values
    are kept on rep beside the Gram matrix, so that both ranks read one
    SVD."""
    s = kept_on(rep, "gram singular values", lambda: read_only(np.linalg.svd(_gram(rep), compute_uv=False)))
    return int(np.count_nonzero(s > rel_tol * s[0]))


def lift_rank(rep, rel_tol=1e-9):
    """Rank of f -> lift(rep, f); the lift is faithful iff this is n.

    It is the rank of the Gram matrix of the pi(x) under the trace form,
    from the singular values of G, which are the squares of those of the
    flattened pi(x): rel_tol cuts them at sqrt(rel_tol) of the largest.
    """
    return _gram_rank(rep, rel_tol)


def trace_form_rank(rep, rel_tol=1e-9):
    """Rank of the Gram matrix of tr(pi(x) pi(y)*), the number of nonzero
    positions pi(x) and pi(y) share (exact integers).

    The trace form is the Frobenius inner product, positive definite on
    every matrix algebra, so this is the rank of the lift (lift_rank),
    read off the same singular values: full rank says the lift is
    injective, not that the radical is zero.
    """
    return _gram_rank(rep, rel_tol)


def compression_deviation(rs):
    """Max entrywise deviation of Lambda(s) P0 from lambda_r(s), where P0
    kills the zero coordinate (the last one), read on the tables: 1.0 if
    any row differs, and exactly 0 for every valid input."""
    n, z = rs.base.n, rs.zero_index
    compressed = left_regular(rs.sr).table[:n]
    compressed = np.where(compressed == z, -1, compressed)
    embedded = np.full((n, n + 1), -1, dtype=np.intp)
    embedded[:, :n] = restricted_left_regular(rs.base).table
    return float(np.any(compressed != embedded))
