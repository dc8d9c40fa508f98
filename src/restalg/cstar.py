"""Operator norms of lifted elements at finite scale.

The reduced norm is the operator norm of the lift through the restricted
left regular representation.  For finite S that lift is faithful onto a
finite-dimensional *-closed matrix algebra, so every contractive
restricted representation factors through it and the supremum norm over
all of them coincides with the reduced norm; a randomized family of
restricted representations cross-checks the implementation of that fact.
The quotient norm mod the line through the delta at the adjoined zero is
computed through the regular representation of the zero-adjoined
semigroup.

The reduced, unrestricted and quotient norms are taken over one diagonal
block of the lift per D-class (see representative_blocks); the dense
lift stays in use as the independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, dot, restrict_to_base, scatter
from .errors import BaseMismatch, VerificationFailure
from .linalg import haar_unitary, min_shift_norm, op_norm
from .reps import left_regular, lift, restricted_left_regular
from .restricted import build_restricted_semigroup
from .semigroups import kept_on


def reduced_cstar_norm(f):
    """||f|| as an operator through the restricted left regular
    representation."""
    return _block_norm(restricted_left_regular(f.base), f)


def unrestricted_reduced_norm(f):
    """||f|| through the classical (order-based) left regular
    representation.  For finite S this also serves as the unrestricted
    full norm; reports flag the two identically."""
    return _block_norm(left_regular(f.base), f)


# ---------------------------------------------------------------------
# the lift as one diagonal block per D-class


def representative_blocks(S):
    """One L-class {y : y*y = e} per class of idempotent_classes (e the
    smallest idempotent of the class), as read-only index arrays, kept on
    S.

    lambda(x) and lambda_r(x) send row y to column x*y, and
    (x*y)*(x*y) = y*y whenever yy* <= xx*; so every lift through them is
    block-diagonal over the L-classes.  Right translation by an s with
    ss* = e and s*s = e' maps the L-class of e onto that of e' and
    commutes with the left action, so the blocks within one class are
    unitarily equivalent, and the norm of a lift is the largest norm of
    these blocks.
    """

    def build():
        blocks = []
        for cls in idempotent_classes(S):
            L = np.flatnonzero(S.dom == cls[0])
            L.setflags(write=False)
            blocks.append(L)
        return blocks

    return kept_on(S, ("L-classes", "representatives"), build)


def _block_index(rep):
    """Per representative block L: (L, x, flat) such that the (L, L) block
    of lift(rep, f) is the scatter of f[x] into flat (row-major); kept on
    rep."""

    def build():
        S = rep.base
        xs, ys, cols = rep.entries()
        local = np.full(S.n, -1, dtype=np.intp)
        out = []
        for L in representative_blocks(S):
            local[L] = np.arange(L.size)
            keep = S.dom[ys] == S.dom[L[0]]
            if np.any(S.dom[cols[keep]] != S.dom[L[0]]):
                raise VerificationFailure(
                    f"{rep.name} moves a row out of its L-class", witness=rep.name
                )
            out.append((L, xs[keep], local[ys[keep]] * L.size + local[cols[keep]]))
        return out

    return kept_on(rep, "blocks", build)


def _block_norm(rep, f, cleared=None):
    """||lift(rep, f)|| as the largest op_norm over the representative
    blocks, with the column of element ``cleared`` zeroed first."""
    if f.base is not rep.base:
        raise BaseMismatch("element and representation live over different bases")
    best = 0.0
    for L, xs, flat in _block_index(rep):
        B = scatter(f.coeffs[xs], flat, L.size * L.size).reshape(L.size, L.size)
        if cleared is not None:
            B[:, L == cleared] = 0.0
        best = max(best, op_norm(B))
    return best


# ---------------------------------------------------------------------
# randomized members of the contractive restricted representations


def idempotent_classes(S):
    """Partition of the idempotents generated by xx* ~ x*x over all x.

    A diagonal projection onto the coordinates whose range idempotent
    lies in a union of these classes commutes with every lambda_r(x).
    """
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


def central_unit_projection(S, classes_subset):
    """The lift through lambda_r of the finitely-supported unit over a
    union of idempotent classes: the diagonal projection onto the
    coordinates y with yy* in the union, central among the lambda_r
    matrices."""
    chosen = [e for cls in classes_subset for e in cls]
    return np.diag(np.isin(S.ran, chosen).astype(np.complex128))


def _sigma_r_images(S, M, trials, seed):
    """M under each sampled representation, for M a lift through lambda_r
    (or a stack of them): U (M P_1 (+) ... (+) M P_k) U*, with k, the
    central projections P_i and the Haar unitary U drawn from the seed.

    Each sample is a random contractive restricted representation: a
    direct sum of copies of lambda_r compressed by central projections
    built from saturated idempotent classes, then conjugated by a Haar
    unitary."""
    rng = np.random.default_rng(seed)
    classes = idempotent_classes(S)
    n = S.n
    for _ in range(trials):
        k = int(rng.integers(1, 4))
        out = np.zeros(M.shape[:-2] + (k * n, k * n), dtype=np.complex128)
        for i in range(k):
            P = central_unit_projection(S, [c for c in classes if rng.random() < 0.7])
            out[..., i * n : (i + 1) * n, i * n : (i + 1) * n] = M @ P
        U = haar_unitary(k * n, rng)
        yield U @ out @ U.conj().T


def full_cstar_norm(f, *, trials=0, seed=0):
    """The supremum norm over contractive restricted representations.

    Computed as the reduced norm (they agree for finite S); when trials
    is positive, randomized members of the family must not exceed it
    beyond 1e-9 or VerificationFailure is raised.
    """
    return _checked_full(f, reduced_cstar_norm(f), trials, seed)


def _checked_full(f, reduced, trials, seed):
    if trials:
        excess = _sigma_r_excess(f, reduced, trials, seed)
        if excess > 1e-9:
            raise VerificationFailure(
                f"a sampled restricted representation exceeded the norm "
                f"by {excess:.3e}",
                witness=excess,
            )
    return reduced


def sigma_r_cross_check(f, *, trials=5, seed=0):
    """Largest amount by which a sampled representation's lift exceeds the
    computed supremum norm (negative when none does).

    The samples are those of _sigma_r_images, whose matrix stacks are
    never built: the lift of f through a sample is the image of
    A = lift(lambda_r, f), a single (kn, kn) matrix.
    """
    return _sigma_r_excess(f, reduced_cstar_norm(f), trials, seed)


def _sigma_r_excess(f, value, trials, seed):
    A = lift(restricted_left_regular(f.base), f)
    worst = -np.inf
    for M in _sigma_r_images(f.base, A, trials, seed):
        worst = max(worst, op_norm(M) - value)
    return worst


# ---------------------------------------------------------------------
# quotient norm modulo the line at the adjoined zero


def quotient_cstar_norm(f, zero_index):
    """||f + C delta_0|| in the operator completion over the zero-adjoined
    semigroup.

    The lift of delta_0 through the regular representation is the
    rank-one projection P onto the zero coordinate, P is central in the
    lifted algebra, and the closed ideal it generates is the line C P;
    the quotient norm is therefore the norm of lift(f) (I - P), the lift
    with its zero column cleared.  That column lies only in the zero's
    own L-class {0}, so it is cleared in that block alone.
    """
    if zero_index != f.base.zero:
        raise ValueError(f"element {zero_index} is not the zero of the semigroup")
    return _block_norm(left_regular(f.base), f, cleared=zero_index)


def minimized_quotient_norm(f, zero_index):
    """Independent route to the quotient norm: the minimum of
    ||lift(f + c delta_0)|| over complex c.

    The lift of delta_0 through the regular representation is the
    rank-one orthogonal projection P onto the zero coordinate, so
    Parrott's theorem gives the minimum in closed form (see
    linalg.min_shift_norm).  Only that rank is used, not the centrality
    of P that quotient_cstar_norm relies on, and the norms are LAPACK SVDs
    of the dense lift, not eigensolves on its diagonal blocks, so the two
    routes share no argument and no factorization.
    """
    if zero_index != f.base.zero:
        raise ValueError(f"element {zero_index} is not the zero of the semigroup")
    Lam = left_regular(f.base)
    return min_shift_norm(lift(Lam, f), Lam.mat(zero_index))


# ---------------------------------------------------------------------
# reports


@dataclass
class NormReport:
    """The norms of one element: the 1-norm, the reduced and supremum
    operator norms, and (for elements over a zero-adjoined semigroup) the
    quotient norm mod the zero line."""

    l1: float
    reduced: float
    full: float
    quotient: float | None = None

    def as_dict(self):
        out = {"l1": self.l1, "reduced": self.reduced, "full": self.full}
        if self.quotient is not None:
            out["quotient"] = self.quotient
        return out

    def ordering_ok(self, slack=1e-9):
        return self.reduced <= self.full + slack and self.full <= self.l1 + slack


def norm_report(f, *, zero_index=None, trials=0, seed=0):
    reduced = reduced_cstar_norm(f)
    full = _checked_full(f, reduced, trials, seed)
    quotient = None
    if zero_index is not None:
        quotient = quotient_cstar_norm(f, zero_index)
    return NormReport(l1=f.norm(1), reduced=reduced, full=full, quotient=quotient)


def norms_close(a, b, tol=1e-8):
    """Absolute tolerance up to magnitude 10, relative beyond."""
    m = max(abs(a), abs(b))
    if m <= 10.0:
        return abs(a - b) <= tol
    return abs(a - b) <= tol * m


@dataclass
class QuotientMatchReport:
    label: str
    max_deviation: float
    tolerance: float
    minimized_deviation: float
    witness: str = ""

    @property
    def ok(self):
        return (
            self.max_deviation < self.tolerance
            and self.minimized_deviation < self.tolerance
        )


def quotient_match_report(
    S,
    *,
    trials=100,
    seed=7,
    tol=1e-8,
    rs=None,
    label="",
):
    """Compare the quotient norm over the zero-adjoined semigroup with the
    reduced norm of the restriction, on all deltas and random elements.

    The closed-form minimum over c of ||f + c delta_0|| (dense lift and
    SVD) reruns a subsample (the delta at zero, 4 spread-out other
    deltas, and 2 random elements) as a third route, held to the same
    tolerance.
    """
    if rs is None:
        rs = build_restricted_semigroup(S)
    sr = rs.sr
    rng = np.random.default_rng(seed)
    elems = [AlgebraElement.delta(sr, x) for x in range(sr.n)]
    elems += [AlgebraElement.random(sr, rng) for _ in range(trials)]
    worst = 0.0
    witness = ""
    for i, f in enumerate(elems):
        q = quotient_cstar_norm(f, rs.zero_index)
        r = reduced_cstar_norm(restrict_to_base(f, rs))
        dev = abs(q - r)
        if dev > worst:
            worst = dev
            witness = f"element #{i} (delta)" if i < sr.n else f"element #{i} (random)"

    spread = np.linspace(0, sr.n - 1, num=min(4, sr.n), dtype=int)
    sample = [AlgebraElement.delta(sr, rs.zero_index)]
    sample += [AlgebraElement.delta(sr, int(x)) for x in spread]
    sample += [AlgebraElement.random(sr, rng) for _ in range(2)]
    worst_min = 0.0
    for f in sample:
        q = quotient_cstar_norm(f, rs.zero_index)
        m = minimized_quotient_norm(f, rs.zero_index)
        worst_min = max(worst_min, abs(q - m))
    return QuotientMatchReport(
        label=label,
        max_deviation=worst,
        tolerance=tol,
        minimized_deviation=worst_min,
        witness=witness,
    )


def cstar_identity_deviation(f):
    """Relative deviation of ||f~ . f|| from ||f||^2 in the reduced norm."""
    a = reduced_cstar_norm(dot(f.tilde(), f))
    b = reduced_cstar_norm(f) ** 2
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) / scale


def l1_quotient_deviation(f, zero_index, rs):
    """Deviation of min_c ||f + c delta_0||_1 (attained at c = -f(0)) from
    the 1-norm of the restriction."""
    tau_f = restrict_to_base(f, rs)
    c = -f.coeffs[zero_index]
    shifted = f.coeffs.copy()
    shifted[zero_index] += c
    direct = float(np.abs(shifted).sum())
    return abs(direct - tau_f.norm(1))
