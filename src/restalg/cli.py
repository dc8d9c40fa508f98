"""Command-line interface.

One subcommand per job: gen (emit a generated semigroup as JSON),
verify (run the check suites over a file or the default corpus; the
only subcommand that judges a claim), rep (print one representation
matrix of a semigroup file), norm (norms of a coefficient function),
witness-search (associativity scan for the order-relaxed product).
Exit codes: 0 pass, 1 verification failure, 2 input error, 141
(128 + SIGPIPE) when the reader of stdout goes away early, as in
``restalg verify | head -1``.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys

import numpy as np

from . import cstar, verify
from .algebra import order_dot_scan
from .corpus import default_corpus
from .errors import (
    NotAssociative,
    NotInverse,
    ParseError,
    RestalgError,
    SizeLimit,
    StarMismatch,
    VerificationFailure,
)
from .families import (
    adjoin_identity,
    gen_brandt,
    gen_chain_semilattice,
    gen_group,
    gen_symmetric_inverse_monoid,
)
from .io_json import canonical_dumps, load_function, load_semigroup, semigroup_to_dict
from .reps import left_regular, restricted_left_regular, restricted_right_regular
from .restricted import build_restricted_semigroup
from .semigroups import check_order

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141

# --trials draws (trials, count, 2, n) random values at once, so it is
# bounded; 10 times the default
MAX_TRIALS = 1000

# glibc's mallopt parameters and the values the CLI gives them.  The row
# blocks of algebra.map_rows are about 1 MiB, above glibc's default 128 KiB
# mmap threshold, so each block would be mapped, zero-faulted and unmapped
# anew; with these, blocks come from the heap and their pages stay mapped.
# Setting either threshold turns off glibc's dynamic mmap threshold, so both
# are set: a trim threshold alone leaves every block to mmap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


def _add_format(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true")
    fmt.add_argument("--text", dest="as_json", action="store_false")
    p.set_defaults(as_json=False)


def _flag(name):
    return "--" + name.replace("_", "-")


def _check_args(args):
    """Reject option values that argparse accepts but no command can use and
    flags that the other options leave unread, and fill in gen's defaults,
    which it leaves unset so that it can tell a flag that was given."""
    given = [f for f in ("corpus", "no_restricted") if getattr(args, f, None) is not None]
    if getattr(args, "semigroup", None) and given:
        raise ParseError(f"{args.command} reads {_flag(given[0])} only without a FILE")
    if args.command == "gen":
        for name in ("n", "group_n"):
            if getattr(args, name) is None:
                setattr(args, name, 1)
            elif name in {"trivial": ("n", "group_n"), "brandt": ()}.get(args.family, ("group_n",)):
                raise ParseError(f"gen --family {args.family} reads no {_flag(name)}")
    if getattr(args, "trials", 1) < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if getattr(args, "trials", 1) > MAX_TRIALS:
        raise ParseError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    if getattr(args, "seed", 0) < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "corpus", None) not in (None, "default"):
        raise ParseError(f"unknown corpus {args.corpus!r}; the only one is 'default'")


def cmd_gen(args):
    fam = args.family
    if fam == "trivial":
        S = gen_group("cyclic", 1)
    elif fam == "cyclic":
        S = gen_group("cyclic", args.n)
    elif fam == "symmetric":
        S = gen_group("symmetric", args.n)
    elif fam == "chain":
        S = gen_chain_semilattice(args.n)
    elif fam == "symmetric-inverse":
        S = gen_symmetric_inverse_monoid(args.n)
    else:
        S = gen_brandt(gen_group("cyclic", args.group_n).mul, args.n)
    if args.with_identity:
        S = adjoin_identity(S)
    if args.restricted:
        S = build_restricted_semigroup(S).sr
        check_order(S.n)  # so that every table gen writes can be read back
    payload = canonical_dumps(semigroup_to_dict(S))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_PASS


def _members_for(args):
    if args.semigroup:
        return [(args.semigroup, load_semigroup(args.semigroup))]
    return default_corpus(include_restricted=not args.no_restricted)


def cmd_verify(args):
    suites = ["axioms", "algebra", "reps", "cstar"] if args.suite == "all" else [args.suite]
    members = _members_for(args)
    reports = verify.run_suites(members, suites, seed=args.seed, trials=args.trials)
    ok = all(r.passed for r in reports)
    if args.as_json:
        print(json.dumps([r.as_dict() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.format_text())
        total = sum(len(r.checks) for r in reports)
        failed = sum(1 for r in reports for c in r.checks if not c.passed)
        print(f"== {total - failed}/{total} checks passed over {len(members)} semigroups")
    return EXIT_PASS if ok else EXIT_VERIFICATION


def cmd_rep(args):
    S = load_semigroup(args.semigroup)
    rep = {
        "lambda_r": restricted_left_regular,
        "rho_r": restricted_right_regular,
        "lambda": left_regular,
        "Lambda": lambda S: left_regular(build_restricted_semigroup(S).sr),
    }[args.which](S)
    x = args.element
    if not 0 <= x < rep.base.n:
        raise ParseError(f"element {x} out of range for order {rep.base.n}")
    M = rep.mat(x)
    if args.as_json:
        print(
            json.dumps(
                [[[v.real, v.imag] for v in row] for row in M.tolist()],
                indent=None,
            )
        )
    else:
        print(f"{args.which}({rep.base.label(x)}) =")
        with np.printoptions(precision=3, suppress=True, linewidth=120):
            print(np.real_if_close(M))
    return EXIT_PASS


def cmd_norm(args):
    f = load_function(args.function)
    if args.cstar:
        zero = f.base.zero if f.base.zero is not None and f.base.n >= 2 else None
        report = cstar.norm_report(f, zero_index=zero)
        payload = report.as_dict()
        payload["unrestricted_reduced"] = cstar.unrestricted_reduced_norm(f)
        payload["blocks"] = [int(L.size) for L in cstar.representative_blocks(f.base)]
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_PASS
    p = {"1": 1, "2": 2, "inf": "inf"}[args.p]
    value = f.norm(p)
    if args.as_json:
        print(json.dumps({"p": args.p, "norm": value}))
    else:
        print(value)
    return EXIT_PASS


def cmd_witness_search(args):
    members = _members_for(args)
    results = order_dot_scan(members)
    found = False
    for record in results:
        if record["witness"] is None:
            print(f"[pass] {record['label']}: exhaustive scan found no failing triple")
            continue
        found = True
        x, y, z = record["witness"]
        label = record["label"]
        S = dict(members)[label]
        names = tuple(S.label(v) for v in (x, y, z))
        print(f"[witness] {label}: delta triple (x, y, z) = {names}")
        with np.printoptions(precision=3, suppress=True, linewidth=120):
            print(f"    (dx .' dy) .' dz = {np.real_if_close(record['lhs'])}")
            print(f"    dx .' (dy .' dz) = {np.real_if_close(record['rhs'])}")
        if args.first:
            break
    if not found:
        print("no corpus member yields a failing triple")
    return EXIT_PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="restalg",
        description="Finite inverse semigroups, their restricted convolution "
        "algebras, regular representations, and C*-norm checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a semigroup as JSON")
    p.add_argument(
        "--family",
        required=True,
        choices=["trivial", "cyclic", "symmetric", "chain", "symmetric-inverse", "brandt"],
    )
    p.add_argument("--n", type=int, default=None, help="size parameter (default 1)")
    p.add_argument("--group-n", type=int, default=None, help="group order for brandt (default 1)")
    p.add_argument("--with-identity", action="store_true", help="adjoin an identity")
    p.add_argument("--restricted", action="store_true", help="emit the zero-adjoined semigroup")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("semigroup", nargs="?", default=None, help="semigroup JSON file")
    p.add_argument("--corpus", default=None, help="use the default corpus")
    p.add_argument(
        "--no-restricted",
        action="store_true",
        default=None,
        help="skip the zero-adjoined variants of the corpus members",
    )
    p.add_argument(
        "--suite",
        default="all",
        choices=["axioms", "algebra", "reps", "cstar", "all"],
    )
    p.add_argument("--seed", type=int, default=7, help="random seed (default 7)")
    p.add_argument(
        "--trials", type=int, default=100, help=f"random trials (default 100, at most {MAX_TRIALS})"
    )
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rep", help="print one representation matrix")
    p.add_argument("semigroup", help="semigroup JSON file")
    p.add_argument(
        "--which",
        default="lambda_r",
        choices=["lambda_r", "rho_r", "lambda", "Lambda"],
    )
    p.add_argument("--element", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("norm", help="norms of a coefficient function")
    p.add_argument("function", help="function JSON file")
    p.add_argument("--p", default="1", choices=["1", "2", "inf"])
    p.add_argument("--cstar", action="store_true", help="emit the full norm report")
    _add_format(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("witness-search", help="associativity scan for the order-relaxed product")
    p.add_argument("semigroup", nargs="?", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--no-restricted", action="store_true", default=None)
    p.add_argument("--first", action="store_true", help="stop at the first witness")
    p.set_defaults(fn=cmd_witness_search)

    return parser


@functools.cache
def _keep_freed_heap():
    """Set glibc's heap thresholds, once per process; without glibc, do
    nothing.  Only the CLI does this: importing restalg leaves a library
    user's allocator as it is."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    if glibc:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@functools.cache
def _parser():
    """The parser, built on first use and kept for the process: parsing
    reads it and never changes it, and each call gets its own namespace."""
    return build_parser()


def main(argv=None):
    _keep_freed_heap()
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is still buffered to devnull so
        # that the flush at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotAssociative, NotInverse, StarMismatch, VerificationFailure) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (SizeLimit, RestalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
