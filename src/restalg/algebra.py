"""Coefficient vectors over a finite semigroup and the products on them.

``conv`` is the classical convolution summing over every factorization of
x; ``dot`` sums only over composable factorizations (s, t) with s*s = tt*
and is the product that matches the restricted regular representations.
``dot_many`` is its kernel, applied row by row to (B, n) arrays through the
semigroup's cached composable triples; ``dot`` is its one-row case.
``dot_direct`` evaluates the same product coordinate-by-coordinate from
the translation formula sum_{x*x = yy*} f(xy) g(y*); the two routes are
compared in the test suite.  ``order_dot`` relaxes the composability
equality to the natural order and is kept only for the associativity
witness search: it is not an algebra product.
"""

from __future__ import annotations

import numpy as np

from .errors import BaseMismatch


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
    def zeros(cls, base):
        return cls(base, np.zeros(base.n, dtype=np.complex128), copy=False)

    @classmethod
    def random(cls, base, rng):
        """Real and imaginary parts uniform on [-1, 1]."""
        c = rng.uniform(-1.0, 1.0, base.n) + 1j * rng.uniform(-1.0, 1.0, base.n)
        return cls(base, c, copy=False)

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


def conv(f, g):
    """Classical convolution: (f*g)(x) = sum over st = x of f(s) g(t)."""
    _same_base(f, g)
    S = f.base
    w = (f.coeffs[:, None] * g.coeffs[None, :]).ravel()
    return AlgebraElement(S, scatter(w, S.mul.ravel(), S.n), copy=False)


# bytes of kernel temporaries per composable triple and row: the complex
# weights, their real and imaginary copies, the bin indices and the gathers
_BYTES_PER_TERM = 64
_BLOCK_BYTES = 1 << 20


def _rows_per_block(S):
    """Rows dot_many takes at once, so its temporaries stay near 1 MB."""
    terms = max(1, S.composable_triples().shape[0])
    return max(1, _BLOCK_BYTES // (_BYTES_PER_TERM * terms))


def scatter(values, index, size):
    """Complex bincount: out[i] sums values[j] over index[j] == i, each bin
    from +0.0 in the order of index, real and imaginary parts apart."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, weights=values.real, minlength=size)
    out.imag = np.bincount(index, weights=values.imag, minlength=size)
    return out


def _dot_block(F, G, triples, n):
    xs, ys, xys = triples[:, 0], triples[:, 1], triples[:, 2]
    rows = F.shape[0]
    w = (F[:, xs] * G[:, ys]).ravel()
    bins = (np.arange(rows)[:, None] * n + xys).ravel()
    # each bin is summed in the row-major order of the pairs, so a row's
    # result does not depend on the batch it came in
    return scatter(w, bins, rows * n).reshape(rows, n)


def dot_many(S, F, G):
    """Row-wise dot product of two (B, n) coefficient arrays over S.

    Sums f(x) g(y) into coordinate xy over the composable triples
    (x, y, xy) only, with one bincount for the real and one for the
    imaginary parts; each row is bitwise equal to dot on that row.  Rows
    go through in blocks sized from the triple count, so the temporaries
    stay near 1 MB whatever B is.
    """
    F = np.asarray(F, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    n = S.n
    if F.ndim != 2 or F.shape[1] != n or G.shape != F.shape:
        raise ValueError(
            f"expected two (B, {n}) arrays of one shape, got {F.shape} and {G.shape}"
        )
    triples = S.composable_triples()
    step = _rows_per_block(S)
    if F.shape[0] <= step:
        return _dot_block(F, G, triples, n)
    return np.concatenate(
        [
            _dot_block(F[lo : lo + step], G[lo : lo + step], triples, n)
            for lo in range(0, F.shape[0], step)
        ]
    )


def dot(f, g):
    """Composable-factorization product: the terms of conv with s*s = tt*."""
    _same_base(f, g)
    S = f.base
    row = dot_many(S, f.coeffs[None, :], g.coeffs[None, :])[0]
    return AlgebraElement(S, row, copy=False)


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
    """The order-relaxed variant: sum over y with yy* <= x*x (natural
    order instead of equality).  Not associative in general."""
    _same_base(f, g)
    S = f.base
    L = S.order_table()
    gs = g.coeffs[S.star]
    out = np.zeros(S.n, dtype=np.complex128)
    for x in range(S.n):
        ys = np.flatnonzero(L[S.ran, S.dom[x]])
        out[x] = f.coeffs[S.mul[x, ys]] @ gs[ys]
    return AlgebraElement(S, out, copy=False)


# ---------------------------------------------------------------------
# finitely supported units


def support_idempotents(S, F):
    """i(F): the idempotents xx* and x*x attached to the elements of F."""
    out = set()
    for x in F:
        if not 0 <= x < S.n:
            raise ValueError(f"element {x} out of range")
        out.add(int(S.ran[x]))
        out.add(int(S.dom[x]))
    return sorted(out)


def approx_identity(S, F):
    """The sum of the deltas at the idempotents attached to F.

    These elements form a two-sided approximate identity for the
    composable-factorization product as F grows.
    """
    c = np.zeros(S.n, dtype=np.complex128)
    for e in support_idempotents(S, F):
        c[e] = 1.0
    return AlgebraElement(S, c, copy=False)


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


def order_dot_delta_table(S):
    """All products of two deltas under order_dot, as an (n, n, n) float
    array D with D[x, y] the coefficient vector of delta_x .' delta_y."""
    n = S.n
    L = S.order_table()
    cond = L[np.ix_(S.dom, S.dom)]          # [y, w]: dom(y) <= dom(w)
    prod = S.mul[:, S.star]                  # [w, y]: w y*
    D = np.zeros((n, n, n))
    ys, ws = np.nonzero(cond)
    xs = prod[ws, ys]
    D[xs, ys, ws] = 1.0
    return D


def order_dot_assoc_witness(S):
    """First delta triple (x, y, z) on which order_dot fails to associate.

    Returns (x, y, z, lhs, rhs) with the two associations as coefficient
    vectors, or None when the scan certifies an exhaustive pass.
    """
    n = S.n
    D = order_dot_delta_table(S)
    L = S.order_table()
    G = S.mul[:, S.star]                       # [w, z] = w z*
    maskz = L[np.ix_(S.dom, S.dom)]            # [z, w] = dom(z) <= dom(w)
    O_base = L[np.ix_(S.ran, S.dom)].T         # [w, u] = ran(u) <= dom(w)
    Dstar = D[:, :, S.star].reshape(n * n, n)  # rows (y, z), columns u
    for x in range(n):
        # lhs[y, z, w] = [dom z <= dom w] * D[x, y][w z*]
        lhs = D[x][:, G].transpose(0, 2, 1) * maskz[None, :, :]
        # rhs[y, z, w] = sum_u [ran u <= dom w][w u = x] D[y, z][u*]
        Ox = (O_base & (S.mul == x)).astype(float)
        rhs = (Dstar @ Ox.T).reshape(n, n, n)
        bad = np.argwhere(np.any(lhs != rhs, axis=2))
        if bad.size:
            y, z = (int(v) for v in bad[0])
            return x, y, z, lhs[y, z].copy(), rhs[y, z].copy()
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
        if hit is None:
            results.append({"label": label, "witness": None})
        else:
            x, y, z, lhs, rhs = hit
            results.append(
                {
                    "label": label,
                    "witness": (x, y, z),
                    "lhs": lhs,
                    "rhs": rhs,
                }
            )
    return results


def find_nonassoc_witness(members):
    """First failing delta triple over the corpus, or None."""
    for record in order_dot_scan(members):
        if record["witness"] is not None:
            return record
    return None
