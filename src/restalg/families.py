"""Generators for the instance corpus.

Groups (cyclic, symmetric), chain semilattices, symmetric inverse monoids,
Brandt semigroups over a group, and identity adjunction.  Symmetric groups,
symmetric inverse monoids and Brandt semigroups are sets of partial
injections, composed by one routine, :func:`maps_table`.  Every generator
routes its table through :func:`restalg.semigroups.build_from_table`, so
the outputs are validated structures.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InvalidGroupTable, SizeLimit
from .semigroups import (
    _as_table,
    _identity_and_zero,
    associativity_witness,
    build_from_table,
    check_order,
)


def maps_table(images):
    """``(mul, star)``, the table and involution of a set of partial injections.

    ``images`` is (m, k): row x lists the images of the points 0..k-1
    under map x, -1 where x is undefined.  ``mul[i, j]`` indexes the
    composite "j first, then i", ``star[x]`` the inverse of x; ValueError
    when one of them is not among the maps.  A table row is one (m, k)
    gather, its maps looked up by the bytes of their image rows.
    """
    imgs = np.asarray(images)
    m, k = imgs.shape
    if imgs.size and (imgs.min() < -1 or imgs.max() >= k):
        raise ValueError(f"images must lie in -1..{k - 1}")
    # point k is a sink: undefined images go there and it maps to itself,
    # so a composite is one gather; the narrowest dtype keeps keys short
    ext = np.full((m, k + 1), k, dtype=np.min_scalar_type(k))
    ext[:, :k] = np.where(imgs < 0, k, imgs)
    key = np.dtype((np.void, ext.itemsize * (k + 1)))
    index = {b: x for x, b in enumerate(ext.view(key).ravel().tolist())}
    if len(index) != m:
        raise ValueError("maps must be distinct")

    def lookup(rows):
        return [index.get(b, -1) for b in rows.view(key).ravel().tolist()]

    inv = np.full_like(ext, k)
    x, p = np.nonzero(ext[:, :k] < k)
    inv[x, ext[x, p]] = p
    star = np.array(lookup(inv), dtype=np.intp)
    bad = np.flatnonzero((star < 0) | (star[star] != np.arange(m)))  # or not injective
    if bad.size:
        raise ValueError(f"map {bad[0]} has no inverse among the maps")
    # an intp index and a preallocated row make the gather 3x faster
    mul, points, row = np.empty((m, m), dtype=np.intp), ext.astype(np.intp), np.empty_like(ext)
    for i in range(m):
        mul[i] = lookup(np.take(ext[i], points, out=row))
    if (mul < 0).any():
        i, j = np.argwhere(mul < 0)[0]
        raise ValueError(f"the composite of map {j} then map {i} is not among the maps")
    return mul, star


def symmetric_inverse_monoid_order(n):
    """sum_k C(n,k)^2 k!, the number of partial injections on n points."""
    return sum(math.comb(n, k) ** 2 * math.factorial(k) for k in range(n + 1))


def all_partial_injections(n):
    """Every partial injection on n points as its tuple of (point, image)
    pairs, points ascending; by domain size, then domain, then image."""
    out = []
    for k in range(n + 1):
        for dom in itertools.combinations(range(n), k):
            for img in itertools.permutations(range(n), k):
                out.append(tuple(zip(dom, img)))
    return out


def gen_symmetric_inverse_monoid(n):
    """The monoid of all partial injections on n points.

    The product of tables f, g is the composite "g first, then f";
    the involution is the relational inverse.
    """
    if n < 1:
        raise SizeLimit("symmetric inverse monoid parameter must be positive")
    # the orders grow with n: stop at the first past MAX_ORDER, listing no map
    for m in range(1, n + 1):
        order = symmetric_inverse_monoid_order(m)
        check_order(order, None if m == n else f"sum C({n},k)^2 k!")
    elems = all_partial_injections(n)
    mul, star = maps_table([[dict(e).get(p, -1) for p in range(n)] for e in elems])
    labels = ["[" + " ".join(f"{p}>{q}" for p, q in e) + "]" for e in elems]
    return build_from_table(mul, star, labels=labels)


def gen_group(kind, n):
    """A cyclic group Z_n or a full symmetric group on n letters."""
    if n < 1:
        raise SizeLimit("group order parameter must be positive")
    if kind == "cyclic":
        check_order(n)
        idx = np.arange(n)
        mul = (idx[:, None] + idx[None, :]) % n
        labels = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
        return build_from_table(mul, labels=labels)
    if kind == "symmetric":
        # n! without listing the permutations, stopping once past MAX_ORDER
        m = 1
        for k in range(2, n + 1):
            m *= k
            check_order(m, f"{n}!")
        perms = list(itertools.permutations(range(n)))
        mul, star = maps_table(np.array(perms).reshape(m, n))
        labels = ["".join(map(str, p)) for p in perms]
        return build_from_table(mul, star, labels=labels)
    raise ValueError(f"unknown group kind {kind!r}")


def gen_chain_semilattice(n):
    """A descending chain of n idempotents; index 0 is the top (identity)."""
    if n < 1:
        raise SizeLimit("chain length must be positive")
    check_order(n)
    idx = np.arange(n)
    mul = np.maximum(idx[:, None], idx[None, :])
    labels = ["1"] + [f"e{i}" for i in range(1, n)]
    return build_from_table(mul, idx, labels=labels)


def gen_semilattice(meet_table):
    """A semilattice from an explicit meet table (idempotent, commutative,
    associative)."""
    t, n = _as_table(meet_table)
    idx = np.arange(n)
    if not np.array_equal(t[idx, idx], idx):
        raise ValueError("meet table must be idempotent")
    if not np.array_equal(t, t.T):
        raise ValueError("meet table must be commutative")
    return build_from_table(t, idx)


def _as_group(table):
    """Validate a table as a finite group; raise InvalidGroupTable."""
    t, n = _as_table(table)
    idx = np.arange(n)
    # entries lie in 0..n-1: a row or column is a permutation when it sorts to idx
    rows = np.all(np.sort(t, axis=1) == idx, axis=1)
    latin = rows & np.all(np.sort(t, axis=0) == idx[:, None], axis=0)
    if not latin.all():
        x = int(np.argmin(latin))
        raise InvalidGroupTable(
            f"row/column {x} is not a permutation (not a Latin square)",
            witness=(x,),
        )
    bad = associativity_witness(t)
    if bad is not None:
        raise InvalidGroupTable("group table is not associative", witness=bad)
    if _identity_and_zero(t)[0] is None:
        raise InvalidGroupTable("group table has no identity element")
    return t, n


def gen_brandt(group_table, n):
    """The Brandt semigroup over a group G with n rows/columns.

    Elements are triples (i, a, j) with a in G plus a zero;
    (i, a, j)(k, b, l) is (i, ab, l) when j = k, and zero otherwise.
    The output is non-unital for n >= 2.
    """
    if n < 1:
        raise SizeLimit("brandt parameter must be positive")
    g, m = _as_group(group_table)
    order = n * n * m + 1
    check_order(order)
    # (i, a, j), index (i*m + a)*n + j, is the map (j, h) -> (i, ah) on the
    # n*m points (row, group element); the zero, last, is the empty map
    i, a, j = np.indices((n, m, n)).reshape(3, -1)
    images = np.full((order, n, m), -1)
    images[np.arange(order - 1), j] = (i * m)[:, None] + g[a]
    mul, star = maps_table(images.reshape(order, n * m))
    labels = [f"({r}|{b}|{c})" for r, b, c in zip(i.tolist(), a.tolist(), j.tolist())]
    return build_from_table(mul, star, labels=labels + ["0"])


def adjoin_identity(S):
    """S with a fresh identity appended as the last index."""
    n = S.n
    mul = np.empty((n + 1, n + 1), dtype=np.intp)
    mul[:n, :n] = S.mul
    mul[n, :n] = np.arange(n)
    mul[:n, n] = np.arange(n)
    mul[n, n] = n
    star = np.concatenate([S.star, [n]])
    labels = None
    if S.labels is not None:
        labels = S.labels + ["1"]
    return build_from_table(mul, star, labels=labels)
