"""Reference routes the library is tested against.

Nothing here is used by the library.
- Dense (n, dim, dim) matrix stacks for the partial-map tables of
  restalg.reps: the builders evaluate each regular representation's
  defining rule element by element, and the membership report is the
  float-matmul check the table laws replaced.
- The D-classes of the idempotents by union-find over the pairs
  (xx*, x*x), for the classes restalg.cstar reads off the table.
- The dense (n, P) 0/1 incidence of a representation's nonzero
  positions, whose SVD ranks are the reference for the ranks restalg.reps
  reads off one (n, n) Gram matrix, and that Gram matrix one row of x at
  a time, for its blocked column comparisons.
- Column rank by modified Gram-Schmidt, for the SVD rank of
  restalg.linalg, and the spectral norm as one LAPACK SVD of the whole
  matrix, for the block-by-block SVD norm of restalg.linalg and as the
  dense-lift reference of the block norms (dense_lift_norm keeps each
  lift's value, so tests that need the same lift share one SVD).
- The block norms of restalg.cstar one block size at a time, each size
  with its own index, liveness test, scatter and eigensolve, for the one
  scatter per block of rows of block_norms.
- The pattern split of restalg.linalg with one np.unique per count and
  per shape, for its one-pass grouping, and the complex scatter-add as
  two real bincounts, for restalg.algebra.scatter_rows.
- The dot product coordinate by coordinate from the translation sum,
  for the padded-table route restalg.algebra.dot_direct_many.
- The order-relaxed product coordinate by coordinate, and its
  associativity scan over an (n, n, n) table of delta products, for the
  triple-set kernel of restalg.algebra.
- The sampled restricted representations of restalg.cstar assembled
  as one Haar-conjugated direct sum, for the summand-by-summand norms of
  the sigma cross-check.
- The random-trial checks one trial at a time through the scalar dot and
  the one-row norms (the inner-identity reports, the lifted rho report,
  the approximate identity and the quotient match), for the batched
  checks of restalg.reps, restalg.verify and restalg.cstar.
- The per-sample loops of the sigma cross-check, the opnorm backend
  check, the quotient match's minimized subsample and the unit
  projection check, with the one-matrix SVD norm and closed-form
  minimum they called, for the stacked calls of restalg.verify,
  restalg.cstar and restalg.linalg.
- The delta-level algebra laws one product per delta pair, and the unit
  laws set by set with one random partner and function each, for the
  coded-row checks of restalg.verify.
- The generalized inverses element by element, and the Latin-square test
  of a group table row and column by row and column, for the array
  identities of restalg.semigroups and restalg.families.
- Associativity over all n^3 triples, one row of x at a time, for Light's
  test over a generating set in restalg.semigroups.
- The multiplicativity law of a partial-map table one x at a time over
  every y, for the check over a generating set in restalg.reps.
- The groupoid laws of the composable pairs over all triples, one row of
  x at a time, for the Brandt-coordinate check of restalg.restricted.
- Partial injections composed and inverted one pair at a time, for the
  table gathers of restalg.families.maps_table.
"""

import hashlib
import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from restalg import cstar
from restalg.algebra import (
    AlgebraElement,
    conv_many,
    dot,
    dot_many,
    dyadic_rows,
    first_max,
    map_rows,
    random_rows,
    restrict_to_base,
    scatter_rows,
    tilde_rows,
)
from restalg.errors import InvalidGroupTable, NotInverse
from restalg.linalg import SPLIT_MIN_DIM, _pattern_labels, op_norm, op_norms, pattern_blocks
from restalg.reps import (
    KIND_RESTRICTED,
    LiftedRhoReport,
    MembershipReport,
    Violation,
    left_regular,
    lift,
    restricted_left_regular,
    restricted_right_regular,
)
from restalg.restricted import build_restricted_semigroup


def dense_lambda_r(S):
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(S.ran == S.ran[x])
        mats[x, rows, S.mul[S.star[x], rows]] = 1.0
    return mats


def dense_lambda(S):
    L = S.order_table()
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(L[S.ran, S.ran[x]])
        mats[x, rows, S.mul[S.star[x], rows]] = 1.0
    return mats


def dense_rho_r(S):
    mats = np.zeros((S.n, S.n, S.n), dtype=np.complex128)
    for x in range(S.n):
        rows = np.flatnonzero(S.dom == S.ran[x])
        mats[x, rows, S.mul[rows, x]] = 1.0
    return mats


def stack_of(table):
    """The 0/1 stack of a partial-map table, one entry at a time."""
    n, dim = table.shape
    mats = np.zeros((n, dim, dim), dtype=np.complex128)
    for x in range(n):
        for y in range(dim):
            if table[x, y] >= 0:
                mats[x, y, table[x, y]] = 1.0
    return mats


def dense_representation_report(S, mats, kind, *, atol=0.0, contraction_slack=1e-9):
    """The three membership laws with float matmuls over the stack.

    ``atol`` is the entrywise tolerance for the adjoint and product laws;
    operator norms may reach 1 + contraction_slack.
    """
    n = S.n
    report = MembershipReport(kind=kind)

    adj = mats.conj().transpose(0, 2, 1)
    dev = np.abs(mats[S.star] - adj)
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
        v = op_norm(mats[x])
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
    chunk = 64
    for x in range(n):
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            prod = mats[x] @ mats[lo:hi]
            target = mats[S.mul[x, lo:hi]]
            if kind == KIND_RESTRICTED:
                target = np.where(C[x, lo:hi, None, None], target, 0)
            d = np.abs(prod - target)
            local = float(d.max()) if d.size else 0.0
            if local > mdev:
                mdev = local
                y = lo + int(np.unravel_index(np.argmax(d), d.shape)[0])
                mwitness = (x, y)
    report.multiplicative_deviation = mdev
    if mdev > atol:
        x, y = mwitness
        law = "pi(xy) on composables / 0 otherwise" if kind == KIND_RESTRICTED else "pi(xy)"
        report.violations.append(
            Violation(
                "multiplicative",
                f"pi({S.label(x)}) pi({S.label(y)}) != {law} "
                f"(deviation {mdev:.3e})",
                mdev,
            )
        )
    return report


def dense_multiplicativity_witness(S, mats):
    """The first non-composable pair with pi(x)pi(y) != 0, x-major."""
    C = S.composable_matrix()
    for x in range(S.n):
        ys = np.flatnonzero(~C[x])
        if ys.size == 0:
            continue
        norms = np.abs(mats[x] @ mats[ys]).max(axis=(1, 2))
        hit = np.flatnonzero(norms > 0)
        if hit.size:
            return x, int(ys[hit[0]]), float(norms[hit[0]])
    return None


def sigma_r_samples(S, trials, seed):
    """Random contractive restricted representations as dense stacks: per
    sample, the (k, n, n, n) images of the lambda_r stack, one stack per
    summand of cstar's sampled representations."""
    lam = dense_lambda_r(S)
    for masks in cstar._sigma_r_masks(S, trials, seed):
        yield np.where(masks[:, None, None, :], lam, 0.0)


def haar_unitary(dim, rng):
    """A Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def dense_sigma_r_samples(S, M, trials, seed, rng):
    """cstar's sampled representations of a matrix M, assembled densely:
    per sample the summands M P_i and the (kn, kn) matrix
    U (M P_1 (+) ... (+) M P_k) U*.  k and the classes of each P_i are
    drawn from the seed one scalar at a time, P_i = diag(1 where yy* lies
    in the drawn classes), and the Haar unitary U is drawn from rng."""
    draws = np.random.default_rng(seed)
    classes = [c.tolist() for c in S.brandt().classes]
    n = S.n
    for _ in range(trials):
        k = int(draws.integers(1, 4))
        summands = []
        for _ in range(k):
            chosen = [e for c in classes if draws.random() < 0.7 for e in c]
            summands.append(M @ np.diag(np.isin(S.ran, chosen).astype(np.complex128)))
        out = np.zeros((k * n, k * n), dtype=np.complex128)
        for i, MP in enumerate(summands):
            out[i * n : (i + 1) * n, i * n : (i + 1) * n] = MP
        U = haar_unitary(k * n, rng)
        yield np.array(summands), U @ out @ U.conj().T


def union_find_idempotent_classes(S):
    """The partition of the idempotents generated by xx* ~ x*x over all x,
    by union-find, sorted by smallest member."""
    idem = [int(e) for e in S.idempotents()]
    parent = {e: e for e in idem}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(S.n):
        a, b = find(int(S.ran[x])), find(int(S.dom[x]))
        if a != b:
            parent[a] = b
    classes = {}
    for e in idem:
        classes.setdefault(find(e), []).append(e)
    return [sorted(c) for c in sorted(classes.values())]


def dense_svd_norm(M):
    """Largest singular value from one LAPACK SVD of the whole matrix."""
    return float(np.linalg.norm(M, 2))


# dense_lift_norm's values by (table digest, representation name, row
# digest, cleared element); the digests of a table by its semigroup
_LIFT_NORMS = {}
_TABLE_DIGESTS = weakref.WeakKeyDictionary()


def _digest(a):
    return hashlib.blake2b(np.ascontiguousarray(a)).digest()


def dense_lift_norm(rep, row, cleared=None):
    """dense_svd_norm of lift(rep, row) with the column of element
    ``cleared`` zeroed, computed once per semigroup table, representation,
    row and cleared element."""
    S = rep.base
    if S not in _TABLE_DIGESTS:
        _TABLE_DIGESTS[S] = _digest(S.mul)
    row = np.asarray(row, dtype=np.complex128)
    key = (_TABLE_DIGESTS[S], rep.name, _digest(row), cleared)
    if key not in _LIFT_NORMS:
        A = lift(rep, AlgebraElement(S, row))
        if cleared is not None:
            A[:, cleared] = 0.0
        _LIFT_NORMS[key] = dense_svd_norm(A)
    return _LIFT_NORMS[key]


def _block_index_per_size(rep):
    """Per block size d among the representative blocks: (Ls, xs, flat,
    elements), with Ls the (q, d) array of that size's L-classes and
    their (q, d, d) stack of lift(rep, f) the scatter of f[xs] into flat,
    whose terms read the columns ``elements`` of f alone."""
    S = rep.base
    xs, ys, cols = rep.entries()
    local = np.full(S.n, -1, dtype=np.intp)
    by_size = {}
    for L in cstar.representative_blocks(S):
        local[L] = np.arange(L.size)
        keep = S.dom[ys] == S.dom[L[0]]
        by_size.setdefault(L.size, []).append((L, xs[keep], local[ys[keep]] * L.size + local[cols[keep]]))
    out = []
    for d, blocks in sorted(by_size.items()):
        xs_d = np.concatenate([x for _, x, _ in blocks])
        flat = np.concatenate([j * d * d + f for j, (_, _, f) in enumerate(blocks)])
        out.append((np.stack([L for L, _, _ in blocks]), xs_d, flat, np.flatnonzero(np.bincount(xs_d, minlength=S.n))))
    return out


def block_norms_per_size(rep, F, cleared=None):
    """cstar.block_norms one block size at a time: per size d, the rows
    with a nonzero coefficient on that size's elements take their own
    scatter of their (B, q, d, d) block stack and a stacked eigensolve,
    in blocks of rows sized from that size's terms."""
    F = np.asarray(F, dtype=np.complex128)
    best = np.zeros(F.shape[0])
    for Ls, xs, flat, elements in _block_index_per_size(rep):
        q, d = Ls.shape
        live = np.flatnonzero((F[:, elements] != 0).any(axis=1))
        if not live.size:
            continue
        q_hit, col_hit = np.nonzero(Ls == cleared)

        def norms(rows):
            stack = scatter_rows(np.take(rows, xs, axis=1), flat, q * d * d).reshape(-1, q, d, d)
            stack[:, q_hit, :, col_hit] = 0.0
            return op_norms(stack.reshape(-1, d, d)).reshape(-1, q).max(axis=1)

        best[live] = np.maximum(best[live], map_rows(norms, q * d * d + xs.size, F[live]))
    return best


def pattern_blocks_reference(M):
    """linalg.pattern_blocks with the counts, shapes and component groups
    taken by np.unique and np.any passes over the pattern."""
    m = M.shape[0]
    nonzero = M != 0
    if nonzero.all():
        yield M[None]
        return
    labels = _pattern_labels(nonzero)
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    rows = rows[np.argsort(labels[rows], kind="stable")]
    cols = cols[np.argsort(labels[cols + m], kind="stable")]
    _, row_count = np.unique(labels[rows], return_counts=True)
    _, col_count = np.unique(labels[cols + m], return_counts=True)
    row_start = np.cumsum(row_count) - row_count
    col_start = np.cumsum(col_count) - col_count
    shapes = np.stack([row_count, col_count], axis=1)
    for a, b in np.unique(shapes, axis=0):
        hit = np.flatnonzero((row_count == a) & (col_count == b))
        R = rows[row_start[hit, None] + np.arange(a)]
        C = cols[col_start[hit, None] + np.arange(b)]
        yield M[R[:, :, None], C[:, None, :]]


def scatter_reference(values, index, size):
    """Complex scatter-add as two real bincounts: each bin summed from
    +0.0 in the order of index, real and imaginary parts apart."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, weights=values.real, minlength=size)
    out.imag = np.bincount(index, weights=values.imag, minlength=size)
    return out


def _incidence(rep):
    """The (n, P) 0/1 matrix with a 1 where pi(x) has a 1 at the p-th of
    the P distinct positions that are nonzero for some x: each pi(x)
    flattened, without the positions that are zero for every x."""
    xs, ys, cols = rep.entries()
    positions, at = np.unique(ys * rep.dim + cols, return_inverse=True)
    V = np.zeros((rep.base.n, positions.size))
    V[xs, at] = 1.0
    return V


def gram_loop(rep):
    """G[x, y] = #{r : T[x, r] == T[y, r] >= 0}, one row x at a time
    against the whole table."""
    T = rep.table
    G = np.zeros((T.shape[0], T.shape[0]), dtype=np.int64)
    for x in range(T.shape[0]):
        G[x] = np.count_nonzero((T == T[x]) & (T[x] >= 0), axis=1)
    return G


def gram_schmidt_rank(cols, rel_tol=1e-9):
    """Numerical column rank by modified Gram-Schmidt with greedy
    pivoting; pivots below rel_tol times the largest initial column norm
    are treated as zero.  Real input stays in real arithmetic."""
    A = np.array(cols, dtype=np.complex128 if np.iscomplexobj(cols) else np.float64)
    if A.ndim != 2 or A.size == 0:
        return 0
    norms = np.linalg.norm(A, axis=0)
    scale = float(norms.max())
    if scale == 0.0:
        return 0
    rank = 0
    for _ in range(min(A.shape)):
        norms = np.linalg.norm(A, axis=0)
        j = int(np.argmax(norms))
        if norms[j] <= rel_tol * scale:
            break
        q = A[:, j] / norms[j]
        A -= np.outer(q, q.conj() @ A)
        rank += 1
    return rank


def dot_direct_loop(S, f, g):
    """(f.g)(x) = sum over y with yy* = x*x of f(xy) g(y*), one coordinate
    at a time."""
    gs = g[S.star]
    out = np.zeros(S.n, dtype=np.complex128)
    for x in range(S.n):
        ys = np.flatnonzero(S.ran == S.dom[x])
        out[x] = f[S.mul[x, ys]] @ gs[ys]
    return out


def order_dot_loop(S, f, g):
    """(f.'g)(x) = sum over y with yy* <= x*x of f(xy) g(y*), one
    coordinate at a time."""
    L = S.order_table()
    gs = g[S.star]
    out = np.zeros(S.n, dtype=np.complex128)
    for x in range(S.n):
        ys = np.flatnonzero(L[S.ran, S.dom[x]])
        out[x] = f[S.mul[x, ys]] @ gs[ys]
    return out


def order_dot_delta_table(S):
    """All products of two deltas under the order-relaxed product, as an
    (n, n, n) float array D with D[x, y] the coefficients of d_x .' d_y."""
    n = S.n
    L = S.order_table()
    cond = L[np.ix_(S.dom, S.dom)]          # [y, w]: dom(y) <= dom(w)
    prod = S.mul[:, S.star]                  # [w, y]: w y*
    D = np.zeros((n, n, n))
    ys, ws = np.nonzero(cond)
    xs = prod[ws, ys]
    D[xs, ys, ws] = 1.0
    return D


def order_dot_assoc_witness_dense(S):
    """First delta triple (x, y, z) on which the order-relaxed product
    fails to associate, as (x, y, z, lhs, rhs), or None."""
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


# ---------------------------------------------------------------------
# the random-trial checks, one trial at a time


def lambda_inner_identity_loop(S, *, trials=100, seed=0):
    xs, ys, cols = restricted_left_regular(S).entries()
    at = S.star[xs]
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = scatter_reference(xi.coeffs[cols] * np.conj(eta.coeffs[ys]), at, S.n)
        rhs = dot(xi, eta.tilde()).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return worst, witness


def rho_inner_identity_loop(S, *, trials=100, seed=0):
    xs, ys, cols = restricted_right_regular(S).entries()
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = scatter_reference(xi.coeffs[cols] * np.conj(eta.coeffs[ys]), xs, S.n)
        rhs = dot(eta.tilde(), xi).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return worst, witness


def rho_lift_identity_loop(S, *, trials=100, seed=0):
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
    return LiftedRhoReport(summed=d_sum, at_identity=d_ident, localized=d_local, witness=witness)


def unit_loop(S, F):
    """e_F one member at a time: ones at the xx* and x*x of each x in F."""
    coeffs = np.zeros(S.n, dtype=np.complex128)
    for x in F:
        coeffs[S.ran[x]] = coeffs[S.dom[x]] = 1.0
    return AlgebraElement(S, coeffs, copy=False)


def approx_identity_loop(S, rng):
    """Stops at the first failing trial, so it reads fewer draws then."""
    for t in range(50):
        mags = 0.5 ** np.arange(S.n, dtype=float)
        rng.shuffle(mags)
        phase = np.exp(2j * np.pi * rng.uniform(size=S.n))
        f = AlgebraElement(S, mags * phase)
        order = np.argsort(-np.abs(f.coeffs))
        sorted_abs = np.abs(f.coeffs[order])
        tails = np.concatenate([np.cumsum(sorted_abs[::-1])[::-1][1:], [0.0]])
        for eps in (1e-1, 1e-3):
            hits = np.flatnonzero(tails < eps)
            N = int(hits[0]) + 1 if hits.size else S.n
            eF = unit_loop(S, order[:N].tolist())
            d1 = (f - dot(f, eF)).norm(1)
            d2 = (f - dot(eF, f)).norm(1)
            if not (d1 < eps and d2 < eps):
                return False, f"trial {t}, eps={eps}, |F|={N}, dev={max(d1, d2):.3e}"
    return True, ""


def quotient_match_loop(S, rs, *, trials=100, seed=7):
    """The worst |quotient - reduced| over the deltas and random elements of
    the zero-adjoined semigroup, its witness, and the worst
    |quotient - minimized| over the subsample drawn next."""
    sr = rs.sr
    rng = np.random.default_rng(seed)
    elems = [AlgebraElement.delta(sr, x) for x in range(sr.n)]
    elems += [AlgebraElement.random(sr, rng) for _ in range(trials)]
    worst = 0.0
    witness = ""
    for i, f in enumerate(elems):
        q = cstar.quotient_cstar_norm(f, rs.zero_index)
        r = cstar.reduced_cstar_norm(restrict_to_base(f, rs))
        dev = abs(q - r)
        if dev > worst:
            worst = dev
            witness = f"element #{i} (delta)" if i < sr.n else f"element #{i} (random)"
    return worst, witness, minimized_loop(rs, rng)


def minimized_loop(rs, rng):
    """The worst |quotient - minimized| over the delta at zero, 4 spread-out
    other deltas and 2 random elements, one element at a time."""
    sr = rs.sr
    spread = np.linspace(0, sr.n - 1, num=min(4, sr.n), dtype=int)
    sample = [AlgebraElement.delta(sr, rs.zero_index)]
    sample += [AlgebraElement.delta(sr, int(x)) for x in spread]
    sample += [AlgebraElement.random(sr, rng) for _ in range(2)]
    worst_min = 0.0
    for f in sample:
        q = cstar.quotient_cstar_norm(f, rs.zero_index)
        m = cstar.minimized_quotient_norm(f, rs.zero_index)
        worst_min = max(worst_min, abs(q - m))
    return worst_min


# ---------------------------------------------------------------------
# the per-sample norm and lift loops, one matrix at a time


def svd_op_norm_one(mat):
    """Largest singular value of one matrix by LAPACK SVD, split into the
    components of its zero pattern from SPLIT_MIN_DIM on."""
    M = np.ascontiguousarray(mat, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    if M.size == 0:
        return 0.0
    if not np.isfinite(M.view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    if min(M.shape) < SPLIT_MIN_DIM:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    tops = [np.linalg.svd(stack, compute_uv=False)[:, 0].max() for stack in pattern_blocks(M)]
    return float(max(tops, default=0.0))


def min_shift_norm_one(A, P):
    """min over c of ||A + c P|| for one matrix, by Parrott's closed form
    with svd_op_norm_one."""
    j = int(np.argmax(np.diagonal(P).real))
    col, row = P[:, j] / P[j, j], P[j, :]
    return max(
        svd_op_norm_one(A - np.outer(col, row @ A)),
        svd_op_norm_one(A - np.outer(A @ col, row)),
    )


def _sigma_r_images_one(S, M, trials, seed):
    """The (k, n, n) summand stacks of M under each sampled
    representation, drawn as restalg.cstar draws them."""
    rng = np.random.default_rng(seed)
    brandt = S.brandt()
    for _ in range(trials):
        k = int(rng.integers(1, 4))
        masks = (rng.random((k, len(brandt.classes))) < 0.7)[:, brandt.D]
        yield np.where(masks[:, None, :], M[..., None, :, :], 0.0)


def sigma_r_cross_check_one(f, *, trials=5, seed=0):
    """The sigma cross-check of one element, one sample at a time."""
    value = cstar.reduced_cstar_norm(f)
    A = lift(restricted_left_regular(f.base), f)
    samples = _sigma_r_images_one(f.base, A, trials, seed)
    return float(max((op_norms(stack).max() for stack in samples), default=-np.inf)) - value


def sigma_cross_check_loop(S, rng, seed):
    """cstar.sigma-cross-check's excess, one element at a time."""
    excess = -np.inf
    for i in range(5):
        f = AlgebraElement.random(S, rng)
        excess = max(excess, sigma_r_cross_check_one(f, trials=3, seed=seed + i))
    return excess


def opnorm_backend_loop(S, rng):
    """cstar.opnorm-backend's deviation, one matrix at a time."""
    lam_r = restricted_left_regular(S)
    worst = 0.0
    for i in range(5):
        M = rng.standard_normal((S.n, S.n)) + 1j * rng.standard_normal((S.n, S.n))
        dense = svd_op_norm_one(M)
        worst = max(worst, abs(op_norm(M) - dense) / max(1.0, dense))
        f = AlgebraElement.random(S, rng)
        A = lift(lam_r, f)
        dense = svd_op_norm_one(A)
        worst = max(worst, abs(op_norm(A) - dense) / max(1.0, dense))
        # the block route of reduced_cstar_norm against the dense lift
        worst = max(worst, abs(cstar.reduced_cstar_norm(f) - dense) / max(1.0, dense))
    return worst


def unit_projection_loop(S, rng):
    """reps.unit-projection's deviation, one unit at a time."""
    lam_r = restricted_left_regular(S)
    worst = 0.0
    for _ in range(10):
        size = int(rng.integers(1, S.n + 1))
        F = rng.choice(S.n, size=size, replace=False).tolist()
        B = lift(lam_r, unit_loop(S, F))
        worst = max(
            worst,
            float(np.abs(B @ B - B).max()),
            float(np.abs(B - B.conj().T).max()),
        )
    return worst


def quotient_match_report_loop(S, *, trials=100, seed=7):
    """cstar.quotient_match_report with its minimized subsample one
    element at a time, and the extra random rows normed in a call of
    their own."""
    rs = build_restricted_semigroup(S)
    sr = rs.sr
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.eye(sr.n, dtype=np.complex128), random_rows(sr, rng, trials)[0]])
    quotient = cstar.block_norms(left_regular(sr), rows, cleared=rs.zero_index)
    reduced = cstar.block_norms(restricted_left_regular(S), rows[:, : S.n])
    worst, i = first_max(np.abs(quotient - reduced))
    witness = ""
    if worst > 0:
        witness = f"element #{i} (delta)" if i < sr.n else f"element #{i} (random)"

    deltas = np.concatenate([[rs.zero_index], np.linspace(0, sr.n - 1, num=min(4, sr.n), dtype=int)])
    extra = random_rows(sr, rng, 2)[0]
    sample = np.concatenate([rows[deltas], extra])
    q = np.concatenate([quotient[deltas], cstar.block_norms(left_regular(sr), extra, cleared=rs.zero_index)])
    Lam = left_regular(sr)
    m = np.array([min_shift_norm_one(lift(Lam, AlgebraElement(sr, f)), Lam.mat(rs.zero_index)) for f in sample])
    worst_min = float(np.abs(q - m).max())
    return cstar.QuotientMatchReport(max_deviation=worst, minimized_deviation=worst_min, witness=witness)


# ---------------------------------------------------------------------
# the delta-level algebra laws, one product per delta pair

# delta-pair rows per batch times n, and subsets of the unit laws per
# batch: both bound the arrays held at once (about 1 MB each)
_PAIR_ENTRIES = 1 << 16
_UNIT_BLOCK = 64


def _delta_rows(n, xs):
    rows = np.zeros((len(xs), n), dtype=np.complex128)
    rows[np.arange(len(xs)), xs] = 1.0
    return rows


def _delta_pairs(n, inner):
    """All pairs (x, y) with x in range(n) and y in ``inner``, x-major, as
    (xs, ys) index arrays in blocks of about _PAIR_ENTRIES / n rows."""
    inner = np.asarray(inner, dtype=np.intp)
    step = max(1, _PAIR_ENTRIES // max(1, inner.size * n))
    for lo in range(0, n, step):
        outer = np.arange(lo, min(lo + step, n))
        yield np.repeat(outer, inner.size), np.tile(inner, outer.size)


def _row_devs(A, B):
    return np.abs(A - B).max(axis=1)


def delta_dot_pairs(S):
    """d_x . d_y against the composability rule for every pair; (max
    deviation, witness)."""
    n = S.n
    comp = S.composable_matrix()
    worst, witness = 0.0, ""
    for xs, ys in _delta_pairs(n, np.arange(n)):
        got = dot_many(S, _delta_rows(n, xs), _delta_rows(n, ys))
        want = np.zeros_like(got)
        hit = comp[xs, ys]
        want[np.flatnonzero(hit), S.mul[xs[hit], ys[hit]]] = 1.0
        dev, i = first_max(_row_devs(got, want))
        if dev > worst:
            worst, witness = dev, f"x={S.label(int(xs[i]))}, y={S.label(int(ys[i]))}"
    return worst, witness


def tilde_delta_pairs(S):
    """The largest |(d_x . d_y)~ - d_y~ . d_x~| over every pair."""
    n = S.n
    worst = 0.0
    for xs, ys in _delta_pairs(n, np.arange(n)):
        Dx, Dy = _delta_rows(n, xs), _delta_rows(n, ys)
        lhs = tilde_rows(S, dot_many(S, Dx, Dy))
        worst = max(worst, float(np.abs(lhs - dot_many(S, tilde_rows(S, Dy), tilde_rows(S, Dx))).max()))
    return worst


def delta_absorption_pairs(S):
    """d_y . d_e and d_e . d_y against d_y or 0 for every y and idempotent
    e; (max deviation, witness)."""
    n = S.n
    worst, wit = 0.0, ""
    for ys, es in _delta_pairs(n, S.idempotents()):
        Dy, De = _delta_rows(n, ys), _delta_rows(n, es)
        want_right = np.where((S.dom[ys] == es)[:, None], Dy, 0.0)
        want_left = np.where((S.ran[ys] == es)[:, None], Dy, 0.0)
        dev, i = first_max(
            np.maximum(
                _row_devs(dot_many(S, Dy, De), want_right),
                _row_devs(dot_many(S, De, Dy), want_left),
            )
        )
        if dev > worst:
            worst, wit = dev, f"y={S.label(int(ys[i]))}, e={S.label(int(es[i]))}"
    return worst, wit


def tau_homomorphism_pairs(rs, rng, trials=50):
    """The restriction homomorphism on every delta pair of the zero-adjoined
    semigroup and the kernel, and on random pairs; (deviation on the
    deltas and the kernel, deviation on random dyadic pairs, witness)."""
    sr, S = rs.sr, rs.base
    n = S.n
    worst, wit = 0.0, ""
    for As, Bs in _delta_pairs(sr.n, np.arange(sr.n)):
        DA, DB = _delta_rows(sr.n, As), _delta_rows(sr.n, Bs)
        lhs = conv_many(sr, DA, DB)[:, :n]
        dev, i = first_max(_row_devs(lhs, dot_many(S, DA[:, :n], DB[:, :n])))
        if dev > worst:
            worst, wit = dev, f"delta pair ({int(As[i])}, {int(Bs[i])})"
    F, G = dyadic_rows(sr, rng, trials, 2)
    rand, t = first_max(_row_devs(conv_many(sr, F, G)[:, :n], dot_many(S, F[:, :n], G[:, :n])))
    if rand > worst:
        wit = f"random pair {t}"
    kernel = restrict_to_base(AlgebraElement.delta(sr, rs.zero_index), rs)
    if kernel.norm(1) != 0.0:
        worst, wit = max(worst, kernel.norm(1)), "restriction of d_0"
    return worst, rand, wit


def unit_laws_blocks(S, rng):
    """Laws of the units e_F for every F with |F| <= 3 and 20 random bigger
    sets: e_F absorbs the deltas over F from both sides; e_F . e_G is the
    sum of deltas over i(F) & i(G) (G is F, a subset, the empty set and a
    random partner); right/left multiplication filters a random f by its
    domain/range idempotents; e_F is a unit on functions supported in F.
    The sets go through in blocks of _UNIT_BLOCK, each set drawing its own
    partner and function; (max deviation, witness)."""
    n = S.n
    bigger = []
    for _ in range(20):
        size = int(rng.integers(4, max(5, n + 1)))
        bigger.append(tuple(sorted(rng.choice(n, size=min(size, n), replace=False).tolist())))
    small = (itertools.combinations(range(n), size) for size in (1, 2, 3))
    subsets = itertools.chain(*small, bigger)

    worst, wit = 0.0, ""
    while block := list(itertools.islice(subsets, _UNIT_BLOCK)):
        partners, fs = [], []
        for _ in block:
            partners.append(tuple(sorted(rng.choice(n, size=min(3, n), replace=False).tolist())))
            fs.append(random_rows(S, rng, 1)[0][0])
        dev, key = _unit_laws_block(S, block, partners, np.array(fs))
        if dev > worst:
            worst, wit = dev, _unit_law_witness(S, block, partners, key)
    return worst, wit


def _members(subsets):
    """(owner, element, rank) per entry of the subsets, flattened: entry k
    is subsets[owner[k]][rank[k]] = element[k]."""
    sizes = np.array([len(F) for F in subsets], dtype=np.intp)
    owner = np.repeat(np.arange(len(subsets)), sizes)
    element = np.fromiter(itertools.chain.from_iterable(subsets), dtype=np.intp, count=int(sizes.sum()))
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return owner, element, rank


def _unit_rows(S, subsets):
    owner, element, _ = _members(subsets)
    rows = np.zeros((len(subsets), S.n), dtype=np.complex128)
    rows[owner, S.ran[element]] = 1.0
    rows[owner, S.dom[element]] = 1.0
    return rows


def _unit_laws_block(S, block, partners, fs):
    """Worst deviation of the unit laws over ``block`` and its key, the
    position of the first law reaching it (subset * (2n + 16) + slot)."""
    n, b = S.n, len(block)
    K = 2 * n + 16
    owner, element, rank = _members(block)
    inF = np.zeros((b, n), dtype=bool)
    inF[owner, element] = True
    eF = _unit_rows(S, block)
    devs, keys = [], []

    # e_F absorbs d_s for s in F: slots 2j (left) and 2j + 1 (right)
    Ds, Es = _delta_rows(n, element), eF[owner]
    devs += [_row_devs(dot_many(S, Es, Ds), Ds), _row_devs(dot_many(S, Ds, Es), Ds)]
    keys += [owner * K + 2 * rank, owner * K + 2 * rank + 1]

    # partners p = F, F[:|F|/2], (), random: slots 2n + 3p + {0, 1, 2}
    halves = [F[: len(F) // 2] for F in block]
    eG = np.concatenate(
        [eF, _unit_rows(S, halves), np.zeros((b, n), np.complex128), _unit_rows(S, partners)]
    )
    eF4 = np.tile(eF, (4, 1))
    P, Q = dot_many(S, eF4, eG), dot_many(S, eG, eF4)
    nested = np.ones(4 * b, dtype=bool)
    nested[3 * b :] = [bool(inF[r, list(G)].all()) for r, G in enumerate(partners)]
    base = np.tile(np.arange(b), 4) * K + 2 * n + 3 * np.repeat(np.arange(4), b)
    common = ((eF4 != 0) & (eG != 0)).astype(np.complex128)
    devs += [
        _row_devs(P, common),
        _row_devs(P, Q),
        np.where(nested, _row_devs(P, eG), 0.0),
    ]
    keys += [base, base + 1, base + 2]

    # filters and units on functions supported in F: slots 2n + 12 + {0..3}
    keep_dom = eF[:, S.dom] != 0
    keep_ran = eF[:, S.ran] != 0
    gs = np.where(inF, fs, 0)
    base = np.arange(b) * K + 2 * n + 12
    devs += [
        _row_devs(dot_many(S, fs, eF), np.where(keep_dom, fs, 0)),
        _row_devs(dot_many(S, eF, fs), np.where(keep_ran, fs, 0)),
        _row_devs(dot_many(S, gs, eF), gs),
        _row_devs(dot_many(S, eF, gs), gs),
    ]
    keys += [base, base + 1, base + 2, base + 3]

    devs, keys = np.concatenate(devs), np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    dev, i = first_max(devs[order])
    return dev, None if i is None else int(keys[order][i])


def _unit_law_witness(S, block, partners, key):
    n = S.n
    r, slot = divmod(key, 2 * n + 16)
    F = block[r]
    if slot < 2 * n:
        j, side = divmod(slot, 2)
        return f"{('left', 'right')[side]} unit on F={F}, s={F[j]}"
    if slot < 2 * n + 12:
        p, k = divmod(slot - 2 * n, 3)
        G = (F, F[: len(F) // 2], (), partners[r])[p]
        return ("e_F.e_G on", "e_F.e_G commutes on", "nested unit on")[k] + f" F={F}, G={G}"
    k = slot - 2 * n - 12
    return (
        f"domain filter on F={F}",
        f"range filter on F={F}",
        f"supported unit (right) on F={F}",
        f"supported unit (left) on F={F}",
    )[k]


def derive_star_loop(t):
    """For each x the unique y with xyx = x and yxy = y, one element at a
    time; NotInverse at the first x with none or more than one."""
    t = np.asarray(t)
    n = t.shape[0]
    idx = np.arange(n)
    derived = np.empty(n, dtype=np.intp)
    for x in range(n):
        xyx = t[t[x], x]
        yxy = t[t[:, x], idx]
        cand = np.flatnonzero((xyx == x) & (yxy == idx))
        if cand.size == 0:
            raise NotInverse(f"element {x} has no generalized inverse", witness=(x, ()))
        if cand.size > 1:
            raise NotInverse(
                f"element {x} has {cand.size} generalized inverses {cand.tolist()}",
                witness=(x, tuple(int(c) for c in cand)),
            )
        derived[x] = cand[0]
    return derived


def latin_square_loop(t):
    """InvalidGroupTable at the first x whose row or column is not a
    permutation."""
    t = np.asarray(t)
    n = t.shape[0]
    for x in range(n):
        if len(set(t[x].tolist())) != n or len(set(t[:, x].tolist())) != n:
            raise InvalidGroupTable(
                f"row/column {x} is not a permutation (not a Latin square)",
                witness=(x,),
            )


def associativity_witness_loop(t):
    """First (x, y, z) with (xy)z != x(yz), or None.  Row-by-row to keep
    memory at O(n^2)."""
    n = t.shape[0]
    for x in range(n):
        lhs = t[t[x], :]
        rhs = t[x, t]
        if not np.array_equal(lhs, rhs):
            y, z = np.argwhere(lhs != rhs)[0]
            return int(x), int(y), int(z)
    return None


def multiplicativity_witness_loop(rep):
    """The first pair (x, y), x-major, at which rep breaks the product law
    of its kind, or None; O(n^2 dim), one row of x at a time."""
    S = rep.base
    T = rep.table
    has = T >= 0
    # row r of pi(x)pi(y) has its 1 in column T[y, T[x, r]]
    C = S.composable_matrix()
    for x in range(S.n):
        got = np.where(has[x], T[:, T[x]], -1)
        want = T[S.mul[x]]
        if rep.kind == KIND_RESTRICTED:
            want = np.where(C[x, :, None], want, -1)
        bad = np.any(got != want, axis=1)
        if bad.any():
            return x, int(np.argmax(bad))
    return None


def groupoid_law_violations_loop(S):
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
