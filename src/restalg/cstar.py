"""Operator norms of lifted elements at finite scale.

The reduced norm is the operator norm of the lift through the restricted
left regular representation.  For finite S that lift is faithful onto a
finite-dimensional *-closed matrix algebra, so every contractive
restricted representation factors through it and the supremum norm over
all of them coincides with the reduced norm; a randomized family of
restricted representations (direct sums of lambda_r compressed by central
projections, normed summand by summand) cross-checks the implementation
of that fact.
The quotient norm mod the line through the delta at the adjoined zero is
computed through the regular representation of the zero-adjoined
semigroup.

The reduced, unrestricted and quotient norms are taken over one diagonal
block of the lift per D-class (see representative_blocks), for a whole
(B, n) array of coefficient rows at once (block_norms); the dense lift
stays in use as the independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    dot_many,
    first_max,
    map_rows,
    random_rows,
    scatter_rows,
    tilde_rows,
)
from .errors import BaseMismatch, VerificationFailure
from .linalg import min_shift_norms, op_norms
from .reps import left_regular, lift, lift_many, restricted_left_regular
from .restricted import build_restricted_semigroup
from .semigroups import kept_on, read_only


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
    """One L-class {y : y*y = e_1} per D-class of S.brandt() (e_1 the
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
        return [read_only(np.flatnonzero(S.dom == cls[0])) for cls in S.brandt().classes]

    return kept_on(S, ("L-classes", "representatives"), build)


class _BlockIndex(NamedTuple):
    """The representative blocks of every lift through a representation,
    laid end to end in one row (_block_index).

    ``Ls`` holds, per block size d in ascending order, the (q, d) array of
    the q L-classes of that size; size k's (q, d, d) stack of blocks
    (row-major) fills positions ``starts[k]`` to ``starts[k + 1]`` of the
    row.  For lift(rep, f) the row is the scatter of f[xs] into ``flat``.
    ``member[x, k]`` says whether size k reads f[x], and ``owner`` names
    the element whose column holds each position.
    """

    Ls: list
    starts: np.ndarray
    xs: np.ndarray
    flat: np.ndarray
    member: np.ndarray
    owner: np.ndarray


def _block_index(rep):
    """The _BlockIndex of rep, kept on rep."""

    def build():
        S = rep.base
        xs, ys, cols = rep.entries()
        local = np.full(S.n, -1, dtype=np.intp)
        by_size = {}
        for L in representative_blocks(S):
            local[L] = np.arange(L.size)
            keep = S.dom[ys] == S.dom[L[0]]
            if np.any(S.dom[cols[keep]] != S.dom[L[0]]):
                raise VerificationFailure(
                    f"{rep.name} moves a row out of its L-class", witness=rep.name
                )
            by_size.setdefault(L.size, []).append((L, xs[keep], local[ys[keep]] * L.size + local[cols[keep]]))
        sizes = []
        for d, blocks in sorted(by_size.items()):
            # block j of the stack starts at j d^2; each bin still sums in
            # the order of its own L-class's terms
            xs_d = np.concatenate([x for _, x, _ in blocks])
            flat_d = np.concatenate([j * d * d + f for j, (_, _, f) in enumerate(blocks)])
            sizes.append((np.stack([L for L, _, _ in blocks]), xs_d, flat_d))
        # each size's stack starts where the one before it ends
        starts = np.cumsum([0] + [Ls.size * Ls.shape[1] for Ls, _, _ in sizes])
        member = np.zeros((S.n, len(sizes)), dtype=bool)
        for k, (_, xs_d, _) in enumerate(sizes):
            member[xs_d, k] = True
        return _BlockIndex(
            Ls=[read_only(Ls) for Ls, _, _ in sizes],
            starts=read_only(starts),
            xs=read_only(np.concatenate([xs_d for _, xs_d, _ in sizes])),
            flat=read_only(np.concatenate([lo + f for lo, (_, _, f) in zip(starts, sizes)])),
            member=read_only(member),
            # entry (r, c) of the block of L lies in the column of L[c]
            owner=read_only(np.concatenate([np.tile(Ls, Ls.shape[1]).ravel() for Ls, _, _ in sizes])),
        )

    return kept_on(rep, "blocks", build)


def block_norms(rep, F, cleared=None):
    """||lift(rep, f)|| for every row f of a (B, n) coefficient array, with
    the column of element ``cleared`` zeroed first.

    A row is live on a block size d when it has a nonzero coefficient on
    an element that size reads; rows live on no size are zero, of norm
    0.  The live rows go in blocks of rows, each with one scatter of all
    its representative blocks (_block_index); then each size d takes one
    stacked eigensolve of its (q, d, d) stacks over the rows live on it.
    A row's value does not depend on the batch it comes in."""
    F = np.asarray(F, dtype=np.complex128)
    n = rep.base.n
    if F.ndim != 2 or F.shape[1] != n:
        raise ValueError(f"expected a (B, {n}) array, got {F.shape}")
    index = _block_index(rep)
    best = np.zeros(F.shape[0])
    # a NaN is nonzero, so it stays live and op_norms rejects it
    live = (F != 0) @ index.member
    rows = np.flatnonzero(live.any(axis=1))
    if not rows.size:
        return best
    if rows.size < len(F):
        F, live = F[rows], live[rows]
    # the positions in the cleared element's column; no element is -1
    hit = np.flatnonzero(index.owner == (-1 if cleared is None else cleared))
    starts = index.starts

    def norms(block, on):
        stack = scatter_rows(np.take(block, index.xs, axis=1), index.flat, starts[-1])
        stack[:, hit] = 0.0
        top = np.zeros(len(block))
        for k, Ls in enumerate(index.Ls):
            q, d = Ls.shape
            mine = on[:, k]
            if not mine.any():
                continue
            blocks = stack[:, starts[k] : starts[k + 1]] if mine.all() else stack[mine, starts[k] : starts[k + 1]]
            top[mine] = np.maximum(top[mine], op_norms(blocks.reshape(-1, d, d)).reshape(-1, q).max(axis=1))
        return top

    best[rows] = map_rows(norms, starts[-1] + index.xs.size, F, live)
    return best


def _block_norm(rep, f, cleared=None):
    """block_norms of the one row f."""
    if f.base is not rep.base:
        raise BaseMismatch("element and representation live over different bases")
    return float(block_norms(rep, f.coeffs[None, :], cleared)[0])


# ---------------------------------------------------------------------
# randomized members of the contractive restricted representations


def _sigma_r_masks(S, trials, seed):
    """The column masks of the summands of each sampled representation:
    one (k, n) boolean array per sample, with k and the idempotent
    classes of each central projection P_i drawn from the seed.

    Each sample is a random contractive restricted representation: the
    direct sum over i of lambda_r compressed by P_i, the diagonal
    projection onto the coordinates y with yy* in the drawn classes of
    S.brandt() (it commutes with every lambda_r(x), which keeps the
    D-class of each coordinate's yy*).  For M a lift through lambda_r,
    the summand M P_i is M with the columns outside mask i zeroed.  A direct
    sum's norm is its largest summand's norm, and conjugating by a
    unitary changes no norm, so the summands are not assembled into one
    (kn, kn) matrix."""
    rng = np.random.default_rng(seed)
    brandt = S.brandt()
    for _ in range(trials):
        k = int(rng.integers(1, 4))
        # one draw per summand and class, in the order of k scalar loops;
        # D[y] is the class of yy*
        yield (rng.random((k, len(brandt.classes))) < 0.7)[:, brandt.D]


def full_cstar_norm(f):
    """The supremum norm over contractive restricted representations,
    computed as the reduced norm (they agree for finite S;
    sigma_r_cross_checks measures sampled members of the family against
    it)."""
    return reduced_cstar_norm(f)


def sigma_r_cross_check(f, *, trials=5, seed=0):
    """Largest amount by which a sampled representation's lift exceeds the
    computed supremum norm (negative when none does): the one-row case of
    sigma_r_cross_checks."""
    return float(sigma_r_cross_checks(f.base, f.coeffs[None, :], trials=trials, seeds=[seed])[0])


def sigma_r_cross_checks(S, F, *, trials, seeds):
    """sigma_r_cross_check of every row of a (B, n) array, row i sampled
    from seeds[i]; -inf for a row with no samples.

    The samples are drawn seed by seed (_sigma_r_masks), and their
    matrices are never built: the lift of row i through a sample is the
    image of A_i = lift(lambda_r, F[i]), a stack of summands A_i P_j.
    The values take one block_norms call and the lifts one lift_many; the
    summands of all rows go through op_norms in blocks of rows
    (algebra.map_rows), so they are never all held at once.
    """
    lam_r = restricted_left_regular(S)
    F = np.asarray(F, dtype=np.complex128)
    lifts = lift_many(lam_r, F)
    owner, masks = [], []
    for i, seed in enumerate(seeds):
        for m in _sigma_r_masks(S, trials, seed):
            owner.extend([i] * len(m))
            masks.append(m)

    def tops(rows, cols):
        # a block of summands: the owner's lift, columns outside the mask zeroed
        return op_norms(np.where(cols[:, None, :], lifts[rows], 0.0))

    best = np.full(F.shape[0], -np.inf)
    if masks:
        np.maximum.at(best, owner, map_rows(tops, S.n * S.n, np.array(owner), np.concatenate(masks)))
    return best - block_norms(lam_r, F)


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
    linalg.min_shift_norms).  Only that rank is used, not the centrality
    of P that quotient_cstar_norm relies on, and the norms are LAPACK SVDs
    of the dense lift (linalg.svd_op_norm), not eigensolves on
    representative blocks: the SVDs run over every connected component of
    the matrix's own zero pattern, found from its entries with no
    idempotent classes or D-classes, so the two routes share no argument
    and no factorization.
    """
    if zero_index != f.base.zero:
        raise ValueError(f"element {zero_index} is not the zero of the semigroup")
    Lam = left_regular(f.base)
    return float(min_shift_norms(lift(Lam, f)[None], Lam.mat(zero_index))[0])


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


def norm_report(f, *, zero_index=None):
    """The NormReport of f; the supremum norm is the reduced norm
    (full_cstar_norm), computed once."""
    reduced = reduced_cstar_norm(f)
    quotient = None
    if zero_index is not None:
        quotient = quotient_cstar_norm(f, zero_index)
    return NormReport(l1=f.norm(1), reduced=reduced, full=reduced, quotient=quotient)


def norms_close(a, b, tol=1e-8):
    """Absolute tolerance up to magnitude 10, relative beyond."""
    m = max(abs(a), abs(b))
    if m <= 10.0:
        return abs(a - b) <= tol
    return abs(a - b) <= tol * m


@dataclass
class QuotientMatchReport:
    """max_deviation: the worst |quotient - reduced| and its witness;
    minimized_deviation: the worst |quotient - minimized| on the
    subsample."""

    max_deviation: float
    minimized_deviation: float
    witness: str = ""


def quotient_match_report(S, *, trials=100, seed=7):
    """Compare the quotient norm over the zero-adjoined semigroup with the
    reduced norm of the restriction, on all deltas and random elements.

    The closed-form minimum over c of ||f + c delta_0|| (dense lift and
    SVD) reruns a subsample (the delta at zero, 4 spread-out other
    deltas, and 2 random elements drawn after the rest) as a third route:
    the lifts go through linalg.min_shift_norms in blocks of rows.
    """
    rs = build_restricted_semigroup(S)
    sr = rs.sr
    Lam = left_regular(sr)
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.eye(sr.n, dtype=np.complex128), random_rows(sr, rng, trials)[0]])
    # the extra random rows of the subsample; one call norms them with the
    # rest, as a row's norm does not depend on its batch
    F = np.concatenate([rows, random_rows(sr, rng, 2)[0]])
    quotient = block_norms(Lam, F, cleared=rs.zero_index)
    # rows[:, :n] drops the zero coordinate: restrict_to_base on every row
    reduced = block_norms(restricted_left_regular(S), rows[:, : S.n])
    worst, i = first_max(np.abs(quotient[: len(rows)] - reduced))
    witness = ""
    if worst > 0:
        witness = f"element #{i} (delta)" if i < sr.n else f"element #{i} (random)"

    # the delta at zero, 4 spread-out other deltas and the 2 extra rows
    spread = np.linspace(0, sr.n - 1, num=min(4, sr.n), dtype=int)
    picked = np.concatenate([[rs.zero_index], spread, len(rows) + np.arange(2)])
    P = Lam.mat(rs.zero_index)
    minimized = map_rows(lambda R: min_shift_norms(lift_many(Lam, R), P), sr.n * sr.n, F[picked])
    worst_min = float(np.abs(quotient[picked] - minimized).max())
    return QuotientMatchReport(max_deviation=worst, minimized_deviation=worst_min, witness=witness)


def cstar_identity_deviation(f):
    """Relative deviation of ||f~ . f|| from ||f||^2 in the reduced norm;
    the one-row case of cstar_identity_deviations."""
    return float(cstar_identity_deviations(f.base, f.coeffs[None, :])[0])


def cstar_identity_deviations(S, F):
    """cstar_identity_deviation of every row of a (B, n) array."""
    norms = block_norms(restricted_left_regular(S), np.concatenate([dot_many(S, tilde_rows(S, F), F), F]))
    a, b = norms[: len(F)], norms[len(F) :] ** 2
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def l1_quotient_deviations(F, rs):
    """Per row f of a (B, n + 1) array over the zero-adjoined semigroup:
    the deviation of min_c ||f + c delta_0||_1 (attained at c = -f(0))
    from the 1-norm of the restriction."""
    shifted = F.copy()
    shifted[:, rs.zero_index] += -F[:, rs.zero_index]
    direct = np.abs(shifted).sum(axis=1)
    # [:, :n] drops the zero coordinate: restrict_to_base on every row
    return np.abs(direct - np.abs(F[:, : rs.base.n]).sum(axis=1))
