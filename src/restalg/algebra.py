"""Coefficient vectors over a finite semigroup and the products on them.

Each product is a triple set: a triple (a, b, c) adds f(a) g(b) into
coordinate c, and one gather-scatter kernel runs them all, row by row on
(B, n) arrays.  ``conv`` is the classical convolution over the triples
(x, y, xy) of every pair; ``dot`` keeps only the composable pairs
x*x = yy* and is the product that matches the restricted regular
representations.  ``order_dot`` sums the triples (xy, y*, x) over the
pairs with yy* <= x*x, the composability equality relaxed to the natural
order; it is not associative and serves the associativity witness search
only.  ``dot_direct`` evaluates ``dot`` per coordinate from the
translation sum, the independent route the test suite compares with.
"""

from __future__ import annotations

import numpy as np

from .errors import BaseMismatch
from .semigroups import kept_on


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


def inner(f, g):
    """<f, g> = sum_x f(x) conj(g(x))."""
    _same_base(f, g)
    return complex(np.vdot(g.coeffs, f.coeffs))


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
# their real and imaginary copies, the bin indices and the gathers
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


def scatter(values, index, size):
    """Complex bincount: out[i] sums values[j] over index[j] == i, each bin
    from +0.0 in the order of index, real and imaginary parts apart."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, weights=values.real, minlength=size)
    out.imag = np.bincount(index, weights=values.imag, minlength=size)
    return out


def _dot_block(F, G, triples, n):
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    rows = F.shape[0]
    w = (F[:, a] * G[:, b]).ravel()
    bins = (np.arange(rows)[:, None] * n + c).ravel()
    # each bin is summed in the order of the triples, so a row's result
    # does not depend on the batch it came in
    return scatter(w, bins, rows * n).reshape(rows, n)


def _product_many(S, F, G, triples):
    """Row-wise product of two (B, n) coefficient arrays over a triple
    set, in blocks of rows sized from its triple count."""
    F = np.asarray(F, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    n = S.n
    if F.ndim != 2 or F.shape[1] != n or G.shape != F.shape:
        raise ValueError(
            f"expected two (B, {n}) arrays of one shape, got {F.shape} and {G.shape}"
        )
    return map_rows(lambda f, g: _dot_block(f, g, triples, n), len(triples), F, G)


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
    """Row-wise order-relaxed product of two (B, n) coefficient arrays."""
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


def dot_direct(f, g):
    """The same product evaluated per coordinate from the translation sum
    (f.g)(x) = sum over y with x*x = yy* of f(xy) g(y*)."""
    _same_base(f, g)
    S = f.base
    gs = g.coeffs[S.star]
    out = np.zeros(S.n, dtype=np.complex128)
    for x in range(S.n):
        ys = np.flatnonzero(S.ran == S.dom[x])
        out[x] = f.coeffs[S.mul[x, ys]] @ gs[ys]
    return AlgebraElement(S, out, copy=False)


def order_dot(f, g):
    """The order-relaxed variant: (f.'g)(x) = sum over y with yy* <= x*x
    of f(xy) g(y*), the natural order in place of equality.  Not
    associative in general."""
    return _one_row(order_dot_many, f, g)


# ---------------------------------------------------------------------
# finitely supported units


def unit_rows(S, members):
    """Row r is e_F for F the elements in row r of a (B, k) index array:
    ones at the idempotents i(F), the xx* and x*x of its members.  A row
    padded with repeats of its own members keeps its i(F)."""
    rows = np.zeros((len(members), S.n), dtype=np.complex128)
    r = np.arange(len(members))[:, None]
    rows[r, S.ran[members]] = 1.0
    rows[r, S.dom[members]] = 1.0
    return rows


def approx_identity(S, F):
    """e_F, the sum of the deltas at the idempotents attached to F: the
    one-row case of unit_rows.

    These elements form a two-sided approximate identity for the
    composable-factorization product as F grows.
    """
    F = np.asarray(F)
    if F.size and not np.issubdtype(F.dtype, np.integer):
        raise TypeError(f"elements must be integers, got {F.dtype}")
    F = F.astype(np.intp).reshape(1, -1)
    bad = (F < 0) | (F >= S.n)
    if bad.any():
        raise ValueError(f"element {F[bad][0]} out of range")
    return AlgebraElement(S, unit_rows(S, F)[0], copy=False)


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
# associativity witness search for the order-relaxed product


def order_dot_assoc_witness(S):
    """First delta triple (x, y, z), x-major, on which order_dot fails to
    associate, as (x, y, z, lhs, rhs) with both associations, or None
    when the exhaustive scan passes.  The kernel runs on delta rows, one
    (n, n) block of (y, z) pairs per x and z; d_x .' g gets only the
    triples (x, b, c) and f .' d_z only the triples (a, z, c), as the
    others add exact zeros.
    """
    n = S.n
    triples = order_triples(S)
    left = [triples[triples[:, 0] == v] for v in range(n)]
    right = [triples[triples[:, 1] == v] for v in range(n)]
    deltas = np.eye(n, dtype=np.complex128)
    for x in range(n):
        Dx = deltas[np.full(n, x)]
        xy = _product_many(S, Dx, deltas, left[x])  # row y: d_x .' d_y
        hit = None
        for z in range(n):
            Dz = deltas[np.full(n, z)]
            lhs = _product_many(S, xy, Dz, right[z])
            rhs = _product_many(S, Dx, _product_many(S, deltas, Dz, right[z]), left[x])
            bad = np.flatnonzero(np.any(lhs != rhs, axis=1))
            if bad.size and (hit is None or bad[0] < hit[1]):
                y = int(bad[0])
                hit = (x, y, z, lhs[y], rhs[y])
        if hit is not None:
            return hit
    return None


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


def find_nonassoc_witness(members):
    """First failing delta triple over the corpus, or None."""
    for record in order_dot_scan(members):
        if record["witness"] is not None:
            return record
    return None
