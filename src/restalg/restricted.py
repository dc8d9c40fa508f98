"""The composability structure on an inverse semigroup.

The partial product xy is defined only when x*x = yy*; the set of
composable pairs is a groupoid, and adjoining an absorbing zero for the
undefined products yields a new inverse semigroup with S embedded in it.
"""

from __future__ import annotations

import numpy as np

from .algebra import dot_triples
from .errors import NotAssociative, NotInverse, StarMismatch, VerificationFailure
from .semigroups import kept_on, validate_table


def groupoid_law_violations(S):
    """Violations of the groupoid laws on the composable pairs, as
    strings, from S.brandt() in O(T + n log n) for T composable pairs.

    (x*, x) and (x, x*) must be composable, and the coordinates an
    isomorphism onto the union over the D-classes of the pair groupoid on
    m_D idempotents times G_D: each composable (x, y, xy) maps to
    (D, i(x), j(y), g(x) g(y)) (so (y, z) is composable when (x, y) and
    (xy, z) are), the coordinates are a bijection onto the sum of
    m_D^2 |G_D| points, and each G_D is a group under S.mul with identity
    e_1.  The rest follows: the two composabilities and the first law put
    g(x) = (t_i* x) t_j in G_D, close G_D, and put x* in G_D for x in
    G_D, where x x* = e_1 = x* x (S.ran and S.dom are these products), so
    x* is the inverse of x.  Then (xy)z = x(yz) on composables iff it
    holds in each G_D: associativity of the table, which axioms.table
    decides first.
    """
    out = []
    for side, bad in (("(x*, x)", S.dom[S.star] != S.ran), ("(x, x*)", S.dom != S.ran[S.star])):
        if bad.any():
            out.append(f"{side} not composable at x={int(np.argmax(bad))}")
    try:
        D, i, j, g, classes, _ = S.brandt()
    except VerificationFailure as exc:
        return out + [str(exc)]
    xs, ys, xys = dot_triples(S).T
    bad = (D[xys] != D[xs]) | (i[xys] != i[xs]) | (j[xys] != j[ys]) | (g[xys] != S.mul[g[xs], g[ys]])
    if bad.any():
        k = int(np.argmax(bad))
        out.append(f"xy lacks the coordinates (D, i(x), j(y), g(x) g(y)) at x={xs[k]}, y={ys[k]}")
    group = (i == 0) & (j == 0)  # x in G_D(x)
    m = np.array([c.size for c in classes])
    points = int((m * m * np.bincount(D[group], minlength=m.size)).sum())
    keys = np.sort((i * S.n + j) * S.n + g)
    if np.any(keys[1:] == keys[:-1]) or points != S.n:
        out.append(f"the coordinates are not a bijection onto the {points} points")
    h = np.flatnonzero(group)
    e1 = S.ran[h]
    bad = (S.mul[e1, h] != h) | (S.mul[h, e1] != h)
    if bad.any():
        out.append(f"the group at {int(e1[np.argmax(bad)])} breaks its laws at x={int(h[np.argmax(bad)])}")
    return out


class RestrictedSemigroup:
    """S with an absorbing zero adjoined; non-composable products map to it.

    ``sr`` is a validated FiniteInvSemigroup of order ``base.n + 1`` whose
    last index is the adjoined zero, so S-indices are stable under
    ``embed``.
    """

    def __init__(self, base, sr, zero_index):
        self.base = base
        self.sr = sr
        self.zero_index = int(zero_index)

    def __repr__(self):
        return f"RestrictedSemigroup(base order {self.base.n})"

    def embed(self, x):
        if not 0 <= x < self.base.n:
            raise ValueError(f"element {x} is not in the base semigroup")
        return int(x)

    def project(self, x):
        """Partial inverse of embed: None at the adjoined zero."""
        if not 0 <= x <= self.zero_index:
            raise ValueError(f"element {x} is out of range")
        if x == self.zero_index:
            return None
        return int(x)


def build_restricted_semigroup(S):
    """Adjoin a zero and route every non-composable product to it; built
    once per S and kept on it.

    The resulting table is validated as an inverse semigroup from scratch;
    a validation failure here would falsify the construction and is
    reported as VerificationFailure (it is expected never to fire).  A
    build that raises is not kept, so every call reports the failure.
    """

    def build():
        n = S.n
        z = n
        table = np.full((n + 1, n + 1), z, dtype=np.intp)
        table[:n, :n] = np.where(S.composable_matrix(), S.mul, z)
        star = np.concatenate([S.star, [z]])
        labels = None
        if S.labels is not None:
            labels = S.labels + ["0"]
        try:
            sr = validate_table(table, star, labels=labels)
        except (NotAssociative, NotInverse, StarMismatch) as exc:
            raise VerificationFailure(
                f"the zero-adjoined composability table is not an inverse "
                f"semigroup: {exc}",
                witness=getattr(exc, "witness", None),
            ) from exc
        return RestrictedSemigroup(S, sr, z)

    return kept_on(S, "zero-adjoined", build)
