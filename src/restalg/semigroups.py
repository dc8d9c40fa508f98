"""Finite inverse semigroups as dense multiplication tables.

Elements are the indices 0..n-1.  A structure is accepted exactly when its
table is associative, every element has a generalized inverse, and the
idempotents commute; the involution is then derived (and checked against a
user-supplied one, if any).

Associativity is decided exactly by Light's test (A. H. Clifford and
G. B. Preston, *The Algebraic Theory of Semigroups I*, 1961, section 1.2):
it suffices that (xa)y = x(ay) for all x, y and every a in a generating set
A of the table's magma.  That costs O(g n^2) products for g = |A|, against
n^3 for all triples; the proof is in :func:`associativity_witness`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    NotAssociative,
    NotInverse,
    SizeLimit,
    StarMismatch,
    VerificationFailure,
)

MAX_ORDER = 256


def kept_on(owner, key, build):
    """build() once per owner (a semigroup or a representation) and key,
    kept on the owner so it is freed with it."""
    value = owner._rep_data.get(key)
    if value is None:
        value = build()
        owner._rep_data[key] = value
    return value


def read_only(arr):
    """arr, marked read-only."""
    arr.setflags(write=False)
    return arr


class Brandt(NamedTuple):
    """The read-only arrays of :meth:`FiniteInvSemigroup.brandt`."""

    D: np.ndarray
    i: np.ndarray
    j: np.ndarray
    g: np.ndarray
    classes: tuple
    arrows: np.ndarray


class FiniteInvSemigroup:
    """An inverse semigroup on indices 0..n-1 with a dense product table.

    Immutable after construction; safe to share between threads.  Build
    instances through :func:`build_from_table` or the generators in
    :mod:`restalg.families`, which run the full axiom check.

    Attributes
    ----------
    mul : (n, n) int array, ``mul[x, y]`` is the product xy.
    star : (n,) int array, the involution x -> x*.
    dom : (n,) int array of domain idempotents x*x.
    ran : (n,) int array of range idempotents xx*.
    identity, zero : element index or None.
    """

    def __init__(self, mul, star, identity=None, zero=None, labels=None):
        self.mul = np.ascontiguousarray(mul, dtype=np.intp)
        self.star = np.ascontiguousarray(star, dtype=np.intp)
        self.n = int(self.mul.shape[0])
        self.identity = None if identity is None else int(identity)
        self.zero = None if zero is None else int(zero)
        self.labels = None if labels is None else [str(s) for s in labels]
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels must have one entry per element")
        idx = np.arange(self.n)
        self.dom = self.mul[self.star, idx]
        self.ran = self.mul[idx, self.star]
        for arr in (self.mul, self.star, self.dom, self.ran):
            arr.setflags(write=False)
        # key -> idempotents, order and composability tables, generators,
        # product triples, regular representations, L-class blocks, the
        # zero-adjoined semigroup
        self._rep_data = {}

    # -- basic queries ------------------------------------------------

    def __len__(self):
        return self.n

    def __repr__(self):
        bits = [f"order={self.n}"]
        if self.identity is not None:
            bits.append(f"identity={self.identity}")
        if self.zero is not None:
            bits.append(f"zero={self.zero}")
        return f"FiniteInvSemigroup({', '.join(bits)})"

    def label(self, x):
        if self.labels is not None:
            return self.labels[x]
        return str(x)

    @property
    def is_group(self):
        # one idempotent <=> a group
        return len(self.idempotents()) == 1

    # -- idempotents and the natural order ----------------------------

    def idempotents(self):
        """Indices of all idempotents, ascending."""
        def build():
            return read_only(np.flatnonzero(np.diagonal(self.mul) == np.arange(self.n)))

        return kept_on(self, "idempotents", build)

    def order_table(self):
        """Boolean table L with L[a, b] = (ab == a).

        Coincides with the natural order when both arguments are
        idempotents; rows/columns at non-idempotents are incidental.
        """
        return kept_on(self, "order", lambda: read_only(self.mul == np.arange(self.n)[:, None]))

    # -- composability -------------------------------------------------

    def composable_matrix(self):
        """Boolean (n, n) matrix of the x*x = yy* predicate, kept on S."""
        return kept_on(self, "composable", lambda: read_only(self.dom[:, None] == self.ran[None, :]))

    # -- generators ----------------------------------------------------

    def generators(self):
        """A generating set of S as a read-only index array, kept on S:
        the one Light's test used when the table came through
        :func:`validate_table`, else :func:`generating_set` of the table."""
        return kept_on(self, "generators", lambda: read_only(generating_set(self.mul)))

    # -- the groupoid of composable pairs ------------------------------

    def brandt(self):
        """The Brandt coordinates (D, i, j, g) of S, kept on S.

        The composable pairs form the disjoint union over the D-classes of
        the pair groupoid on the class's m_D idempotents times its maximal
        subgroup G_D (M. V. Lawson, *Inverse Semigroups*, 1998; Paterson
        1999).  ``classes`` lists each class {x*x : xx* = e} ascending, in
        the order of the smallest members e_1; x lies in class D[x], with
        xx* and x*x at positions i[x] and j[x].  ``arrows[e]`` is the first
        x with x*x = e_1 and xx* = e (-1 off the idempotents), and
        g[x] = t_i* x t_j, for the arrows t_i, t_j at xx* and x*x, lies in
        G_D, the H-class of e_1.  VerificationFailure, witness (x,), at the
        first x without coordinates (never in an inverse semigroup).
        """

        def build():
            n, ran, dom = self.n, self.ran, self.dom
            E = self.idempotents()
            low = np.full(n + 1, n)  # index n stands for "none"
            np.minimum.at(low, ran, dom)  # e_1 of the class of e, at e
            firsts = E[low[E] == E]
            cls = np.full(n + 1, -1)
            cls[firsts] = np.arange(firsts.size)
            cls[E] = cls[low[E]]
            cand = np.flatnonzero(dom == low[ran])
            arrows = np.full(n + 1, n)
            np.minimum.at(arrows, ran[cand], cand)
            bad = (cls[ran] < 0) | (cls[dom] != cls[ran]) | (arrows[ran] == n) | (arrows[dom] == n)
            bad[E] |= cls[E] < 0
            if bad.any():
                x = int(np.argmax(bad))
                raise VerificationFailure(f"element {x} has no Brandt coordinates", witness=(x,))
            sizes = np.bincount(cls[E])
            grouped = E[np.argsort(cls[E], kind="stable")]
            pos = np.empty(n, dtype=np.intp)
            pos[grouped] = np.arange(E.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            t = arrows[:n]
            g = self.mul[self.mul[self.star[t[ran]], np.arange(n)], t[dom]]
            classes = tuple(map(read_only, np.split(grouped, np.cumsum(sizes)[:-1])))
            arrows = np.where(cls[:n] >= 0, t, -1)  # at the idempotents
            return Brandt(*map(read_only, (cls[ran], pos[ran], pos[dom], g)), classes, read_only(arrows))

        return kept_on(self, "brandt", build)


# ---------------------------------------------------------------------
# validation


def _as_table(mul):
    t = np.asarray(mul)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("multiplication table must be square")
    n = int(t.shape[0])
    if n == 0:
        raise ValueError("multiplication table must be nonempty")
    _require_integers(t, "table")
    if t.min() < 0 or t.max() >= n:
        raise ValueError("table entries must be element indices in 0..n-1")
    return t.astype(np.intp, copy=False), n


def _require_integers(a, what):
    """ValueError unless ``a`` has an integer dtype: a float, bool or
    object array is never cast to indices."""
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{what} entries must be integers, got dtype {a.dtype}")


# entries per block of the gathers in first_mismatch, and of the column
# comparisons in reps._gram
BLOCK_ENTRIES = 2**18


def first_mismatch(L, rows, R, cols):
    """(lo, ne) for the first block of keys k, from key lo on, in which
    some L[rows[p, k], q] != R[p, cols[k, q]], with ne that block's
    (p, k - lo, q) mask of mismatches; None when every entry matches.

    An index of -1 reads the last row of L or the last column of R.  The
    keys go in blocks of about ``BLOCK_ENTRIES`` entries, gathered into
    buffers reused across blocks, so memory stays O(p q) whatever the
    number of keys.  ``ne`` is a view of a buffer: read it before the
    next call.
    """
    P, K = rows.shape
    Q = cols.shape[1]
    step = max(1, BLOCK_ENTRIES // (P * Q or 1))
    lhs_buf = np.empty(P * min(step, K) * Q, dtype=np.result_type(L, R))
    rhs_buf = np.empty_like(lhs_buf)
    ne_buf = np.empty(lhs_buf.size, dtype=bool)
    for lo in range(0, K, step):
        shape = (P, min(step, K - lo), Q)
        size = P * shape[1] * Q
        # wrap sends an index -1 to the last row or column; unlike the
        # default mode it writes into out= without a buffered copy
        lhs = np.take(L, rows[:, lo : lo + step], axis=0, mode="wrap", out=lhs_buf[:size].reshape(shape))
        rhs = np.take(R, cols[lo : lo + step], axis=1, mode="wrap", out=rhs_buf[:size].reshape(shape))
        ne = np.not_equal(lhs, rhs, out=ne_buf[:size].reshape(shape))
        if ne.any():
            return lo, ne
    return None


def generating_set(t):
    """Indices that generate the magma of table ``t`` under its product,
    in the order they were taken.

    Greedy: candidates go by the number of distinct entries in their row
    plus their column, most first (ties by index), and each candidate
    outside the closure so far becomes a generator.  The closure grows by
    frontier: each new element is multiplied once against the closure on
    both sides, so at most 2 n^2 products are taken in all.
    """
    n = t.shape[0]
    idx = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    seen[idx[:, None], t] = True
    score = seen.sum(axis=1)
    seen[:] = False
    seen[t, idx] = True
    score += seen.sum(axis=0)
    inside = np.zeros(n, dtype=bool)
    size = 0  # of the closure: each frontier holds new elements only
    gens = []
    for a in np.argsort(-score, kind="stable").tolist():
        if size == n:
            break
        if inside[a]:
            continue
        gens.append(a)
        frontier = np.array([a])
        while frontier.size:
            inside[frontier] = True
            size += frontier.size
            closure = np.flatnonzero(inside)
            fresh = np.zeros(n, dtype=bool)
            fresh[t[frontier][:, closure]] = True
            fresh[t[:, frontier][closure]] = True
            frontier = np.flatnonzero(fresh & ~inside)
    return np.array(gens, dtype=np.intp)


def associativity_witness(t):
    """A triple (x, a, y) with (xa)y != x(ay), or None when the table is
    associative.

    Light's test: let G be the set of a with (xa)y = x(ay) for all x, y.
    G is closed under the product: for a, b in G, x(ab) = (xa)b, so
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y), and ab is in G.
    So when G contains a generating set (:func:`generating_set`), G is the
    whole table, which is then associative; no associativity is assumed
    on the way.  The check runs over the generators only, g of them, at
    O(g n^2) cost instead of the n^3 of all triples (Clifford and Preston,
    *The Algebraic Theory of Semigroups I*, 1961, section 1.2).

    The generators are checked by :func:`first_mismatch`, gathered as
    small integers, so memory stays O(n^2) even when every element is a
    generator (a chain).
    The witness is a genuine failing triple with a generator in the
    middle, not the first failing triple in x-major order.
    """
    return _light_witness(t, generating_set(t))


def _light_witness(t, gens):
    """:func:`associativity_witness` over the generating set ``gens`` of
    ``t``, so that :func:`validate_table` can keep the set it checked."""
    values = t.astype(np.min_scalar_type(t.shape[0] - 1))
    hit = first_mismatch(values, t[:, gens], values, t[gens])  # (xa)y, x(ay)
    if hit is None:
        return None
    lo, ne = hit
    x, k, y = np.argwhere(ne)[0]
    return int(x), int(gens[lo + k]), int(y)


def _identity_and_zero(t):
    """(identity, zero) of a table, each an index or None."""
    idx = np.arange(t.shape[0])
    keeps_right, keeps_left = t == idx, t == idx[:, None]  # xy == y, xy == x
    identity = keeps_right.all(1) & keeps_left.all(0)  # ey == y and xe == x
    zero = keeps_left.all(1) & keeps_right.all(0)  # zy == z and xz == z
    return tuple(int(np.argmax(h)) if h.any() else None for h in (identity, zero))


def _derive_star(t):
    """For each x the unique y with xyx = x and yxy = y; NotInverse at the
    first x with none or with more than one."""
    idx = np.arange(t.shape[0])
    inverse = (t[t, idx[:, None]] == idx[:, None]) & (t[t.T, idx] == idx)
    bad = np.flatnonzero(inverse.sum(axis=1) != 1)
    if bad.size:
        x = int(bad[0])
        cand = np.flatnonzero(inverse[x])
        if cand.size == 0:
            raise NotInverse(f"element {x} has no generalized inverse", witness=(x, ()))
        raise NotInverse(
            f"element {x} has {cand.size} generalized inverses {cand.tolist()}",
            witness=(x, tuple(int(c) for c in cand)),
        )
    return np.argmax(inverse, axis=1)


def check_order(order, shown=None):
    """SizeLimit above MAX_ORDER elements; ``shown`` writes the order."""
    if order > MAX_ORDER:
        raise SizeLimit(f"order {shown or order} exceeds MAX_ORDER = {MAX_ORDER}")


def build_from_table(mul, star=None, *, labels=None):
    """:func:`validate_table` for at most MAX_ORDER elements; a larger
    table raises SizeLimit before any entry is read."""
    t = np.asarray(mul)
    if t.ndim == 2:
        check_order(t.shape[0])
    return validate_table(t, star, labels=labels)


def validate_table(mul, star=None, *, labels=None):
    """Validate a multiplication table of any order as a finite inverse
    semigroup.

    The involution is derived as the unique y with xyx = x and yxy = y,
    read off one (n, n) mask.  A supplied ``star`` is checked by equality
    with the derived map alone.  In an inverse semigroup that map is an
    involution, regular and antimultiplicative, and a star that is an
    involution with x star(x) x = x sends x to a generalized inverse, so
    to the derived one: checking those properties again accepts exactly
    the stars equality accepts.  Identity and zero elements are read off
    the table.  No bound on the order: the zero-adjoined semigroup of an
    order-MAX_ORDER table comes through here.

    Raises ValueError for a table or star of the wrong shape or range or
    of a non-integer dtype, and NotAssociative, NotInverse or StarMismatch with a witness.
    """
    t, n = _as_table(mul)
    idx = np.arange(n)
    if star is not None:
        s = np.asarray(star)
        if s.shape != (n,):
            raise ValueError("involution map must list one index in 0..n-1 per element")
        _require_integers(s, "involution map")
        if s.min() < 0 or s.max() >= n:
            raise ValueError("involution map must list one index in 0..n-1 per element")

    gens = generating_set(t)
    bad = _light_witness(t, gens)
    if bad is not None:
        x, y, z = bad
        raise NotAssociative(
            f"(x y) z != x (y z) at x={x}, y={y}, z={z}: "
            f"{t[t[x, y], z]} != {t[x, t[y, z]]}",
            witness=bad,
        )

    idem = idx[t[idx, idx] == idx]
    sub = t[np.ix_(idem, idem)]
    noncomm = np.argwhere(sub != sub.T)
    if noncomm.size:
        i, j = noncomm[0]
        e, f = int(idem[i]), int(idem[j])
        raise NotInverse(
            f"idempotents {e} and {f} do not commute: "
            f"ef={t[e, f]}, fe={t[f, e]}",
            witness=(e, f),
        )

    derived = _derive_star(t)
    if star is not None and not np.array_equal(s, derived):
        x = int(np.argmax(s != derived))
        raise StarMismatch(
            f"supplied star({x}) = {s[x]} but the unique generalized "
            f"inverse is {derived[x]}",
            witness=(x,),
        )

    identity, zero = _identity_and_zero(t)
    S = FiniteInvSemigroup(t, derived, identity=identity, zero=zero, labels=labels)
    S._rep_data["generators"] = read_only(gens)
    return S
