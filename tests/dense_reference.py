"""Dense (n, dim, dim) matrix stacks: the reference route the partial-map
tables of restalg.reps are tested against.

Nothing here is used by the library.  The builders evaluate each regular
representation's defining rule element by element, and the membership
report is the float-matmul check the table laws replaced.
"""

import numpy as np

from restalg import cstar
from restalg.linalg import op_norm
from restalg.reps import KIND_RESTRICTED, MembershipReport, Violation


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
