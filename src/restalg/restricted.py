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


def restricted_product(S, x, y):
    """xy when x*x = yy*, else None."""
    if S.composable(x, y):
        return int(S.mul[x, y])
    return None


def composable_pairs(S):
    """All (x, y) for which the partial product is defined, row-major."""
    triples = dot_triples(S)
    return list(zip(triples[:, 0].tolist(), triples[:, 1].tolist()))


def groupoid_law_violations(S):
    """Violations of the groupoid laws on the composable pairs.

    Checks that (x*, x) and (x, x*) are always composable, and that
    whenever (x, y) and (xy, z) are composable so is (y, z), with the two
    partial products agreeing.  Returns a list of human-readable strings;
    empty for every valid inverse semigroup.
    """
    out = []
    C = S.composable_matrix()
    idx = np.arange(S.n)
    if not np.all(C[S.star, idx]):
        x = int(np.flatnonzero(~C[S.star, idx])[0])
        out.append(f"(x*, x) not composable at x={x}")
    if not np.all(C[idx, S.star]):
        x = int(np.flatnonzero(~C[idx, S.star])[0])
        out.append(f"(x, x*) not composable at x={x}")
    for x in range(S.n):
        first = C[x]                      # over y
        chained = C[S.mul[x]]             # (y, z): (xy, z) composable
        need = first[:, None] & chained
        missing = need & ~C
        if missing.any():
            y, z = np.argwhere(missing)[0]
            out.append(
                f"(x,y) and (xy,z) composable but (y,z) is not at "
                f"x={x}, y={int(y)}, z={int(z)}"
            )
        # products agree wherever both chains are defined
        lhs = S.mul[S.mul[x], :]
        rhs = S.mul[x, S.mul]
        bad = need & (lhs != rhs)
        if bad.any():
            y, z = np.argwhere(bad)[0]
            out.append(f"(xy)z != x(yz) on composables at x={x}, y={int(y)}, z={int(z)}")
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
