"""Reference routes the library is tested against.

Nothing here is used by the library.
- Dense (n, dim, dim) matrix stacks for the partial-map tables of
  restalg.reps: the builders evaluate each regular representation's
  defining rule element by element, and the membership report is the
  float-matmul check the table laws replaced.
- Column rank by modified Gram-Schmidt, for the SVD rank of
  restalg.linalg.
- The order-relaxed product coordinate by coordinate, and its
  associativity scan over an (n, n, n) table of delta products, for the
  triple-set kernel of restalg.algebra.
- The random-trial checks one trial at a time through the scalar dot and
  the one-row norms (the inner-identity reports, the lifted rho report,
  the approximate identity and the quotient match), for the batched
  checks of restalg.reps, restalg.verify and restalg.cstar.
"""

import numpy as np

from restalg import cstar
from restalg.algebra import AlgebraElement, approx_identity, dot, restrict_to_base, scatter
from restalg.linalg import op_norm
from restalg.reps import (
    KIND_RESTRICTED,
    IdentityReport,
    LiftedRhoReport,
    MembershipReport,
    Violation,
    lift,
    restricted_left_regular,
    restricted_right_regular,
)


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
    """Random contractive restricted representations as dense stacks: the
    images of the lambda_r stack under cstar's sampled representations."""
    yield from cstar._sigma_r_images(S, dense_lambda_r(S), trials, seed)


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


def lambda_inner_identity_loop(S, *, trials=100, seed=0, tol=1e-10):
    xs, ys, cols = restricted_left_regular(S).entries()
    at = S.star[xs]
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = scatter(xi.coeffs[cols] * np.conj(eta.coeffs[ys]), at, S.n)
        rhs = dot(xi, eta.tilde()).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return IdentityReport("lambda_r inner identity", worst, tol, witness)


def rho_inner_identity_loop(S, *, trials=100, seed=0, tol=1e-10):
    xs, ys, cols = restricted_right_regular(S).entries()
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for t in range(trials):
        xi = AlgebraElement.random(S, rng)
        eta = AlgebraElement.random(S, rng)
        lhs = scatter(xi.coeffs[cols] * np.conj(eta.coeffs[ys]), xs, S.n)
        rhs = dot(eta.tilde(), xi).coeffs
        dev = float(np.abs(lhs - rhs).max())
        if dev > worst:
            worst = dev
            witness = f"trial {t}, x={int(np.argmax(np.abs(lhs - rhs)))}"
    return IdentityReport("rho_r inner identity", worst, tol, witness)


def rho_lift_identity_loop(S, *, trials=100, seed=0, tol=1e-10):
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
    return LiftedRhoReport(
        summed=d_sum,
        at_identity=d_ident,
        localized=d_local,
        tolerance=tol,
        group_like=len(E) == 1,
        witness=witness,
    )


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
            eF = approx_identity(S, order[:N].tolist())
            d1 = (f - dot(f, eF)).norm(1)
            d2 = (f - dot(eF, f)).norm(1)
            if not (d1 < eps and d2 < eps):
                return False, f"trial {t}, eps={eps}, |F|={N}, dev={max(d1, d2):.3e}"
    return True, ""


def quotient_match_loop(S, rs, *, trials=100, seed=7):
    """The worst |quotient - reduced| over the deltas and random elements of
    the zero-adjoined semigroup, and its witness."""
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
    return worst, witness
