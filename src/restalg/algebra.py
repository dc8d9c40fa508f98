"""Coefficient vectors over a finite semigroup and the products on them.

Each product is a triple set: a triple (a, b, c) adds f(a) g(b) into
coordinate c, and one gather-scatter kernel runs them all, row by row on
(B, n) arrays.  ``conv`` is the classical convolution over the triples
(x, y, xy) of every pair; ``dot`` keeps only the composable pairs
x*x = yy* and is the product that matches the restricted regular
representations.  ``order_dot_many`` sums the triples (xy, y*, x) over the
pairs with yy* <= x*x, the composability equality relaxed to the natural
order; it is not associative and serves the associativity witness search
only.  ``dot_direct_many`` evaluates ``dot`` from the translation sum
over a padded index table, the independent route that ``verify``
compares with.
"""

from __future__ import annotations

import numpy as np

from .errors import BaseMismatch
from .semigroups import kept_on, read_only


class AlgebraElement:
    """A complex coefficient vector indexed by the elements of a semigroup."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs, *, copy=True):
        c = np.array(coeffs, dtype=np.complex128, copy=copy).reshape(-1)
        if c.shape[0] != base.n:
            raise ValueError(
                f"expected {base.n} coefficients, got {c.shape[0]}"
            )
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("coefficients must be finite")
        self.base = base
        self.coeffs = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def delta(cls, base, x):
        c = np.zeros(base.n, dtype=np.complex128)
        c[x] = 1.0
        return cls(base, c, copy=False)

    @classmethod
    def random(cls, base, rng):
        """Real and imaginary parts uniform on [-1, 1]: the one-row case of
        random_rows."""
        return cls(base, random_rows(base, rng, 1)[0][0], copy=False)

    # -- involutions and norms -------------------------------------------

    def check(self):
        """Star-reflected coefficients: x -> f(x*)."""
        return AlgebraElement(self.base, self.coeffs[self.base.star])

    def tilde(self):
        """The involution x -> conj(f(x*)); isometric for the 1-norm."""
        return AlgebraElement(self.base, np.conj(self.coeffs[self.base.star]))

    def conj(self):
        return AlgebraElement(self.base, np.conj(self.coeffs))

    def norm(self, p=1):
        a = np.abs(self.coeffs)
        if p == 1:
            return float(a.sum())
        if p == 2:
            return float(np.sqrt((a * a).sum()))
        if p in ("inf", np.inf):
            return float(a.max()) if a.size else 0.0
        raise ValueError("p must be 1, 2 or 'inf'")

    def support(self, tol=0.0):
        return [int(i) for i in np.flatnonzero(np.abs(self.coeffs) > tol)]

    # -- vector-space arithmetic ------------------------------------------

    def _like(self, coeffs):
        return AlgebraElement(self.base, coeffs, copy=False)

    def __add__(self, other):
        _same_base(self, other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_base(self, other)
        return self._like(self.coeffs - other.coeffs)

    def __neg__(self):
        return self._like(-self.coeffs)

    def __mul__(self, scalar):
        return self._like(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        terms = [
            f"({self.coeffs[i]:.3g})d[{self.base.label(i)}]"
            for i in self.support(1e-12)[:6]
        ]
        body = " + ".join(terms) if terms else "0"
        if len(self.support(1e-12)) > 6:
            body += " + ..."
        return f"<{body}>"


def _same_base(f, g):
    if f.base is not g.base:
        raise BaseMismatch("operands live over different semigroups")


def max_abs_diff(f, g):
    _same_base(f, g)
    return float(np.abs(f.coeffs - g.coeffs).max())


# ---------------------------------------------------------------------
# the products as triple sets: a triple (a, b, c) adds F[a] G[b] into
# coordinate c


def _triple_set(a, b, c):
    """A read-only (T, 3) int array, one contiguous column per slot."""
    triples = np.stack([a, b, c]).astype(np.intp, copy=False).T
    triples.setflags(write=False)
    return triples


def _xy_triples(S, pairs):
    xs, ys = np.nonzero(pairs)
    return _triple_set(xs, ys, S.mul[xs, ys])


def dot_triples(S):
    """(x, y, xy) over the composable pairs x*x = yy*, row-major."""
    return kept_on(S, "dot triples", lambda: _xy_triples(S, S.composable_matrix()))


def conv_triples(S):
    """(x, y, xy) over every pair, row-major."""
    return kept_on(S, "conv triples", lambda: _xy_triples(S, np.ones((S.n, S.n), bool)))


def order_triples(S):
    """(xy, y*, x) over the pairs (x, y) with yy* <= x*x, row-major."""

    def build():
        xs, ys = np.nonzero(S.order_table()[S.ran[None, :], S.dom[:, None]])
        return _triple_set(S.mul[xs, ys], S.star[ys], xs)

    return kept_on(S, "order triples", build)


# bytes of kernel temporaries per term and row: the complex weights,
# the bin indices and the gathers come to about 40; the budget is 64,
# with headroom, and it fixes where the row blocks fall
_BYTES_PER_TERM = 64
_BLOCK_BYTES = 1 << 20


def _rows_per_block(terms):
    """Rows taken at once by a row-wise computation with ``terms`` terms
    per row (triples, table entries, matrix entries), so its temporaries
    stay near 1 MB."""
    return max(1, _BLOCK_BYTES // (_BYTES_PER_TERM * max(1, int(terms))))


def map_rows(fn, terms, *arrays):
    """fn applied to blocks of rows of the (B, ...) arrays, sized by
    _rows_per_block(terms), with the results concatenated along the first
    axis; fn must act row by row."""
    step = _rows_per_block(terms)
    count = arrays[0].shape[0]
    if count <= step:
        return fn(*arrays)
    return np.concatenate(
        [fn(*(a[lo : lo + step] for a in arrays)) for lo in range(0, count, step)]
    )


def random_rows(S, rng, trials, count=1):
    """``count`` (trials, n) arrays of random coefficients, real and
    imaginary parts uniform on [-1, 1], from one draw: row t of array k is
    the k-th element of round t, so the stream is read in the order of
    trials * count elements drawn one by one, real parts first."""
    draws = rng.uniform(-1.0, 1.0, (trials, count, 2, S.n))
    return [draws[:, k, 0] + 1j * draws[:, k, 1] for k in range(count)]


def dyadic_rows(S, rng, trials, count=1):
    """Rows laid out as random_rows gives them, with real and imaginary
    parts m / 16 for integers |m| <= 128.  The products and lifts have 0/1
    structure constants, so on these rows every term and partial sum of a
    triple product is a multiple of 2^-12, at most 2^23 n^2 of them (2^39
    at MAX_ORDER, under float64's 53 bits): both sides of a bilinear law
    are exact, and agree bitwise in any summation order.  The fractions
    keep a kernel that truncates to integers from passing."""
    draws = rng.integers(-128, 129, (trials, count, 2, S.n)) / 16.0
    return [draws[:, k, 0] + 1j * draws[:, k, 1] for k in range(count)]


def tilde_rows(S, F):
    """The involution f -> f~ applied to every row of a (B, n) array."""
    return np.conj(F[:, S.star])


def first_max(values):
    """(largest value, index of its first entry); a NaN counts as
    infinite, and no entries give (0.0, None).  A sequential scan that
    keeps a witness on strict increase ends at the same entry."""
    values = np.where(np.isnan(values), np.inf, values)
    if not values.size:
        return 0.0, None
    i = int(np.argmax(values))
    return float(values[i]), i


def scatter_rows(W, index, size):
    """Row-wise complex scatter-add: row r of the (B, size) result sums
    W[r, j] over index[j] == i into column i, each bin from +0.0 in the
    order of index, in one np.add.at over the B rows side by side (a
    complex add is componentwise, so real and imaginary parts are summed
    apart).  A row's result does not depend on the batch it came in."""
    rows = W.shape[0]
    out = np.zeros(rows * size, dtype=np.complex128)
    np.add.at(out, (np.arange(rows)[:, None] * size + index).ravel(), W.ravel())
    return out.reshape(rows, size)


def _dot_block(F, G, triples, n):
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    return scatter_rows(F[:, a] * G[:, b], c, n)


def _row_pair(S, F, G):
    """F and G as complex (B, n) arrays of one shape."""
    F = np.asarray(F, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    if F.ndim != 2 or F.shape[1] != S.n or G.shape != F.shape:
        raise ValueError(
            f"expected two (B, {S.n}) arrays of one shape, got {F.shape} and {G.shape}"
        )
    return F, G


def _product_many(S, F, G, triples):
    """Row-wise product of two (B, n) coefficient arrays over a triple
    set, in blocks of rows sized from its triple count."""
    F, G = _row_pair(S, F, G)
    return map_rows(lambda f, g: _dot_block(f, g, triples, S.n), len(triples), F, G)


def dot_many(S, F, G):
    """Row-wise dot product of two (B, n) coefficient arrays over S: f(x)
    g(y) summed into xy over the composable triples only.  Each row is
    bitwise equal to dot on that row, and the temporaries stay near 1 MB
    whatever B is."""
    return _product_many(S, F, G, dot_triples(S))


def conv_many(S, F, G):
    """Row-wise convolution of two (B, n) coefficient arrays over S."""
    return _product_many(S, F, G, conv_triples(S))


def order_dot_many(S, F, G):
    """Row-wise order-relaxed product of two (B, n) coefficient arrays:
    (f.'g)(x) = sum over y with yy* <= x*x of f(xy) g(y*), the natural
    order in place of equality.  Not associative in general."""
    return _product_many(S, F, G, order_triples(S))


def _one_row(product_many, f, g):
    _same_base(f, g)
    row = product_many(f.base, f.coeffs[None, :], g.coeffs[None, :])[0]
    return AlgebraElement(f.base, row, copy=False)


def conv(f, g):
    """Classical convolution: (f*g)(x) = sum over st = x of f(s) g(t)."""
    return _one_row(conv_many, f, g)


def dot(f, g):
    """Composable-factorization product: the terms of conv with s*s = tt*."""
    return _one_row(dot_many, f, g)


def _runs(values, n):
    """(order, start, counts) grouping the indices of an int array with
    values in 0..n-1 by value: the j-th i with values[i] == v, in index
    order, is order[start[v] + j], for j < counts[v]."""
    counts = np.bincount(values, minlength=n)
    return np.argsort(values, kind="stable"), np.cumsum(counts) - counts, counts


def _translation_pairs(S):
    """(xy, y*) over the y with yy* = x*x, as two (n, r) index arrays padded
    with n: row x lists its y in index order, r is the largest R-class."""

    def build():
        # the R-classes side by side
        order, start, counts = _runs(S.ran, S.n)
        slot = np.arange(counts.max())
        hit = slot < counts[S.dom, None]
        ys = order[np.where(hit, start[S.dom, None] + slot, 0)]
        xy = np.where(hit, S.mul[np.arange(S.n)[:, None], ys], S.n)
        return read_only(xy), read_only(np.where(hit, S.star[ys], S.n))

    return kept_on(S, "translation pairs", build)


def dot_direct_many(S, F, G):
    """Row-wise dot product from the translation sum (f.g)(x) = sum over y
    with yy* = x*x of f(xy) g(y*): one gather, multiply and sum over
    _translation_pairs per block of rows.  It reads no triple set, so it
    is a route to dot_many independent of the kernel."""
    F, G = _row_pair(S, F, G)
    XY, YS = _translation_pairs(S)
    # a zero column at index n absorbs the padding; np.take gathers
    # row-major, so a row sums in one order whatever its batch
    pad = np.zeros((F.shape[0], 1), dtype=np.complex128)
    return map_rows(
        lambda f, g: (np.take(f, XY, axis=1) * np.take(g, YS, axis=1)).sum(axis=2),
        XY.size,
        np.hstack([F, pad]),
        np.hstack([G, pad]),
    )


def dot_direct(f, g):
    """The one-row case of dot_direct_many."""
    return _one_row(dot_direct_many, f, g)


# ---------------------------------------------------------------------
# finitely supported units


def unit_rows(S, members):
    """Row r is e_F for F the elements in row r of a (B, k) index array:
    ones at the idempotents i(F), the xx* and x*x of its members.  A row
    padded with repeats of its own members keeps its i(F).

    These elements form a two-sided approximate identity for the
    composable-factorization product as F grows.
    """
    rows = np.zeros((len(members), S.n), dtype=np.complex128)
    r = np.arange(len(members))[:, None]
    rows[r, S.ran[members]] = 1.0
    rows[r, S.dom[members]] = 1.0
    return rows


# ---------------------------------------------------------------------
# restriction along the zero-adjoined semigroup


def restrict_to_base(f, rs):
    """Drop the zero coordinate: the quotient map onto functions on S.

    A surjective contractive homomorphism from the convolution algebra of
    the zero-adjoined semigroup onto the composable-product algebra on S;
    its kernel is the line through the delta at zero.
    """
    if f.base is not rs.sr:
        raise BaseMismatch("element does not live over the zero-adjoined semigroup")
    return AlgebraElement(rs.base, f.coeffs[: rs.base.n])


def extend_from_base(f, rs, zero_coeff=0.0):
    """Extend a function on S to the zero-adjoined semigroup."""
    if f.base is not rs.base:
        raise BaseMismatch("element does not live over the base semigroup")
    c = np.concatenate([f.coeffs, [complex(zero_coeff)]])
    return AlgebraElement(rs.sr, c, copy=False)


# ---------------------------------------------------------------------
# associativity witness searches over delta triples


def _partners(a, runs):
    """Every index pair (i, j) with a[i] == b[j], i-major and j in index
    order, for runs = _runs(b, n)."""
    order, start, counts = runs
    reach = counts[a]
    i = np.repeat(np.arange(a.size), reach)
    # the k-th partner of i: its offset k within the run of i's partners
    k = np.arange(i.size) - np.repeat(np.cumsum(reach) - reach, reach)
    return i, order[start[a[i]] + k]


def _assoc_witness(S, triples):
    """First delta triple (x, y, z), x-major, on which the product of a
    triple set fails to associate, or None.  Both associations come from
    the triples joined with themselves: (d_x d_y) d_z gets d_w once for
    each pair of triples (x, y, c), (c, z, w), and d_x (d_y d_z) once for
    each pair (y, z, v), (x, v, w); the law holds when each (x, y, z, w)
    comes from both sides equally often.  The joins run over blocks of x
    sized from their pair counts, near _BLOCK_BYTES each, or one x's
    pairs (at most n^2 for dot and order triples) when that is more."""
    n, T = S.n, np.asarray(triples)
    by_first, by_third = _runs(T[:, 0], n), _runs(T[:, 2], n)
    # the (z, w) digits of a key from a triple (c, z, w), its (y, z) from (y, z, v)
    zw, yz = T[:, 1] * n + T[:, 2], (T[:, 0] * n + T[:, 1]) * n
    # each triple (x, b, c) joins the triples (c, ., .) and (., ., b)
    pairs = np.bincount(T[:, 0], by_first[2][T[:, 2]] + by_third[2][T[:, 1]], n)
    step = _rows_per_block(pairs.max())
    for lo in range(0, n, step):
        B = T[(T[:, 0] >= lo) & (T[:, 0] < lo + step)]
        k, p = _partners(B[:, 2], by_first)
        left = (B[:, 0] * n + B[:, 1])[k] * n * n + zw[p]
        k, p = _partners(B[:, 1], by_third)
        right = (B[:, 0] * n**3 + B[:, 2])[k] + yz[p]
        # the key (x, y, z, w) above the side bit, sorted: a run of one key
        # is balanced when it has as many left as right entries
        s = np.sort(np.concatenate([left * 2, right * 2 + 1]))
        key = np.append(s >> 1, -1)
        end = key[1:] != key[:-1]
        bad = np.flatnonzero(np.cumsum(1 - 2 * (s & 1))[end])
        if bad.size:
            return tuple(int(v) for v in np.unravel_index(key[:-1][end][bad[0]] // n, (n, n, n)))
    return None


def delta_assoc_witness(S):
    """The associativity witness of the dot product over dot_triples(S):
    it reads the triple set, not the zero-adjoined table that
    build_restricted_semigroup validates."""
    return _assoc_witness(S, dot_triples(S))


def order_dot_assoc_witness(S):
    """First delta triple (x, y, z), x-major, on which order_dot fails to
    associate, as (x, y, z, lhs, rhs) with both associations, or None
    when the exhaustive scan passes."""
    hit = _assoc_witness(S, order_triples(S))
    if hit is None:
        return None
    dx, dy, dz = np.eye(S.n, dtype=np.complex128)[list(hit), None]
    lhs = order_dot_many(S, order_dot_many(S, dx, dy), dz)
    return (*hit, lhs[0], order_dot_many(S, dx, order_dot_many(S, dy, dz))[0])


def order_dot_scan(members):
    """Run the associativity scan over labelled semigroups.

    Returns a list of dicts, one per member, each with the label and
    either a witness triple (with both association vectors) or a
    certified exhaustive pass.  Deterministic for a fixed member order.
    """
    results = []
    for label, S in members:
        hit = order_dot_assoc_witness(S)
        record = {"label": label, "witness": None if hit is None else hit[:3]}
        if hit is not None:
            record["lhs"], record["rhs"] = hit[3:]
        results.append(record)
    return results

