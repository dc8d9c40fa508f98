"""Generators for the instance corpus.

Groups (cyclic, symmetric), chain semilattices, symmetric inverse monoids
built from explicit partial injections, Brandt semigroups over a group,
and identity adjunction.  Every generator routes its table through
:func:`restalg.semigroups.build_from_table`, so the outputs are validated
structures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGroupTable, SizeLimit
from .semigroups import (
    MAX_ORDER,
    _as_table,
    _detect_identity,
    associativity_witness,
    build_from_table,
)


@dataclass(frozen=True)
class PartialInjection:
    """A partial injective map on {0..n-1}, stored as sorted (point, image)
    pairs."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pts = [p for p, _ in self.pairs]
        imgs = [q for _, q in self.pairs]
        if any(not 0 <= v < self.n for v in pts + imgs):
            raise ValueError("points and images must lie in 0..n-1")
        if len(set(pts)) != len(pts):
            raise ValueError("map is not a function: repeated point")
        if len(set(imgs)) != len(imgs):
            raise ValueError("map is not injective: repeated image")
        if list(pts) != sorted(pts):
            object.__setattr__(self, "pairs", tuple(sorted(self.pairs)))

    @classmethod
    def identity(cls, n):
        return cls(n, tuple((p, p) for p in range(n)))

    @classmethod
    def empty(cls, n):
        return cls(n, ())

    def __call__(self, p):
        for q, r in self.pairs:
            if q == p:
                return r
        return None

    def domain(self):
        return tuple(p for p, _ in self.pairs)

    def image(self):
        return tuple(sorted(q for _, q in self.pairs))

    def compose(self, other):
        """self after other: (self . other)(p) = self(other(p))."""
        if self.n != other.n:
            raise ValueError("ground sets differ")
        pairs = []
        for p, q in other.pairs:
            r = self(q)
            if r is not None:
                pairs.append((p, r))
        return PartialInjection(self.n, tuple(pairs))

    def inverse(self):
        return PartialInjection(self.n, tuple(sorted((q, p) for p, q in self.pairs)))

    def label(self):
        return "[" + " ".join(f"{p}>{q}" for p, q in self.pairs) + "]"


def symmetric_inverse_monoid_order(n):
    """sum_k C(n,k)^2 k!, the number of partial injections on n points."""
    import math

    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def all_partial_injections(n):
    """Deterministic enumeration: by domain size, then domain, then image."""
    out = []
    for k in range(n + 1):
        for dom in itertools.combinations(range(n), k):
            for img in itertools.permutations(range(n), k):
                out.append(PartialInjection(n, tuple(zip(dom, img))))
    return out


def gen_symmetric_inverse_monoid(n):
    """The monoid of all partial injections on n points, 1 <= n <= 4.

    The product of tables f, g is the composite "g first, then f";
    the involution is the relational inverse.
    """
    if not 1 <= n <= 4:
        raise SizeLimit(
            "symmetric inverse monoid is generated only for 1 <= n <= 4 "
            f"(order grows as sum C(n,k)^2 k!; n={n} requested)"
        )
    elems = all_partial_injections(n)
    index = {e: i for i, e in enumerate(elems)}
    m = len(elems)
    mul = np.empty((m, m), dtype=np.intp)
    for i, f in enumerate(elems):
        for j, g in enumerate(elems):
            mul[i, j] = index[f.compose(g)]
    star = np.array([index[e.inverse()] for e in elems], dtype=np.intp)
    labels = [e.label() for e in elems]
    return build_from_table(mul, star, labels=labels, max_order=max(MAX_ORDER, m))


def gen_group(kind, n, *, max_order=MAX_ORDER):
    """A cyclic group Z_n or a full symmetric group on n letters."""
    if n < 1:
        raise SizeLimit("group order parameter must be positive")
    if kind == "cyclic":
        if n > max_order:
            raise SizeLimit(f"cyclic group of order {n} exceeds max_order")
        idx = np.arange(n)
        mul = (idx[:, None] + idx[None, :]) % n
        labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
        return build_from_table(mul, labels=labels, max_order=max_order)
    if kind == "symmetric":
        # n! without listing the permutations, stopping once past max_order
        m = 1
        for k in range(2, n + 1):
            m *= k
            if m > max_order:
                raise SizeLimit(f"symmetric group on {n} letters has order {n}! > {max_order}")
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        mul = np.empty((m, m), dtype=np.intp)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                mul[i, j] = index[tuple(p[q[k]] for k in range(n))]
        labels = ["".join(map(str, p)) for p in perms]
        return build_from_table(mul, labels=labels, max_order=max_order)
    raise ValueError(f"unknown group kind {kind!r}")


def gen_chain_semilattice(n, *, max_order=MAX_ORDER):
    """A descending chain of n idempotents; index 0 is the top (identity)."""
    if n < 1:
        raise SizeLimit("chain length must be positive")
    if n > max_order:
        raise SizeLimit(f"chain of length {n} exceeds max_order")
    idx = np.arange(n)
    mul = np.maximum(idx[:, None], idx[None, :])
    labels = ["1"] + [f"e{i}" for i in range(1, n)]
    return build_from_table(mul, idx, labels=labels, max_order=max_order)


def gen_semilattice(meet_table, *, max_order=MAX_ORDER):
    """A semilattice from an explicit meet table (idempotent, commutative,
    associative)."""
    t, n = _as_table(meet_table)
    idx = np.arange(n)
    if not np.array_equal(t[idx, idx], idx):
        raise ValueError("meet table must be idempotent")
    if not np.array_equal(t, t.T):
        raise ValueError("meet table must be commutative")
    return build_from_table(t, idx, max_order=max_order)


def _as_group(table):
    """Validate a table as a finite group; raise InvalidGroupTable."""
    t, n = _as_table(table)
    idx = np.arange(n)
    for x in range(n):
        if len(set(t[x].tolist())) != n or len(set(t[:, x].tolist())) != n:
            raise InvalidGroupTable(
                f"row/column {x} is not a permutation (not a Latin square)",
                witness=(x,),
            )
    bad = associativity_witness(t)
    if bad is not None:
        raise InvalidGroupTable("group table is not associative", witness=bad)
    e = _detect_identity(t)
    if e is None:
        raise InvalidGroupTable("group table has no identity element")
    inv = np.empty(n, dtype=np.intp)
    for x in range(n):
        inv[x] = int(np.flatnonzero(t[x] == e)[0])
    return t, n, e, inv


def gen_brandt(group_table, n, *, max_order=MAX_ORDER):
    """The Brandt semigroup over a group G with n rows/columns.

    Elements are triples (i, a, j) with a in G plus a zero;
    (i, a, j)(k, b, l) is (i, ab, l) when j = k, and zero otherwise.
    The output is non-unital for n >= 2.
    """
    if n < 1:
        raise SizeLimit("brandt parameter must be positive")
    g, m, e, inv = _as_group(group_table)
    order = n * n * m + 1
    if order > max_order:
        raise SizeLimit(f"brandt semigroup of order {order} exceeds max_order")
    zero = order - 1

    def enc(i, a, j):
        return (i * m + a) * n + j

    mul = np.full((order, order), zero, dtype=np.intp)
    star = np.empty(order, dtype=np.intp)
    star[zero] = zero
    labels = [""] * order
    labels[zero] = "0"
    for i in range(n):
        for a in range(m):
            for j in range(n):
                x = enc(i, a, j)
                star[x] = enc(j, inv[a], i)
                labels[x] = f"({i}|{a}|{j})"
                for b in range(m):
                    for l in range(n):
                        mul[x, enc(j, b, l)] = enc(i, g[a, b], l)
    return build_from_table(mul, star, labels=labels, max_order=max_order)


def adjoin_identity(S, *, max_order=MAX_ORDER):
    """S with a fresh identity appended as the last index."""
    n = S.n
    if n + 1 > max_order:
        raise SizeLimit(f"order {n + 1} exceeds max_order")
    mul = np.empty((n + 1, n + 1), dtype=np.intp)
    mul[:n, :n] = S.mul
    mul[n, :n] = np.arange(n)
    mul[:n, n] = np.arange(n)
    mul[n, n] = n
    star = np.concatenate([S.star, [n]])
    labels = None
    if S.labels is not None:
        labels = S.labels + ["1"]
    return build_from_table(mul, star, labels=labels, max_order=max_order)
