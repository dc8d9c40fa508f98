"""Command-line interface.

Subcommands: gen (emit a semigroup as JSON), verify (run suites over a
file or the default corpus), rep (print representation matrices or run
the membership checks), norm (norms of a coefficient function),
quotient-check (quotient-norm comparison), witness-search (associativity
scan for the order-relaxed product).  Exit codes: 0 pass, 1 verification
failure, 2 input error, 141 (128 + SIGPIPE) when the reader of stdout
goes away early, as in ``restalg verify | head -1``.
"""

from __future__ import annotations

import argparse
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
from .reps import (
    left_regular,
    representation_report,
    restricted_left_regular,
    restricted_right_regular,
)
from .restricted import build_restricted_semigroup
from .semigroups import check_order

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141

# --trials draws (trials, count, 2, n) random values at once, so it is
# bounded; 10 times the default
MAX_TRIALS = 1000


def _add_sampling(p):
    """--seed and --trials, for the commands that draw random elements;
    _check_args fills in the defaults, so that it can tell a flag that was
    given."""
    p.add_argument("--seed", type=int, default=None, help="random seed (default 7)")
    p.add_argument(
        "--trials", type=int, default=None, help=f"random trials (default 100, at most {MAX_TRIALS})"
    )


def _add_family(p, family=None, n=1):
    """--family and the flags that size it, for the commands that generate a
    semigroup; _check_args fills in the defaults, so that it can tell a flag
    that was given."""
    p.add_argument(
        "--family",
        required=family is None,
        choices=["trivial", "cyclic", "symmetric", "chain", "symmetric-inverse", "brandt"],
    )
    p.add_argument("--n", type=int, default=None, help=f"size parameter (default {n})")
    p.add_argument("--group-n", type=int, default=None, help="group order for brandt (default 1)")
    p.add_argument("--with-identity", action="store_true", default=None, help="adjoin an identity")
    p.set_defaults(family_defaults={"family": family, "n": n, "group_n": 1, "with_identity": False})


def _add_format(p):
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true")
    fmt.add_argument("--text", dest="as_json", action="store_false")
    p.set_defaults(as_json=False)


def _flag(name):
    return "--" + name.replace("_", "-")


def _check_args(args):
    """Reject option values that argparse accepts but no command can use and
    flags that the other options leave unread, and fill in the defaults."""
    given = [f for f in ("seed", "trials") if getattr(args, f, None) is not None]
    if args.command == "norm" and not args.cstar and given:
        raise ParseError(f"norm reads --{given[0]} only with --cstar")
    defaults = getattr(args, "family_defaults", {})
    given = [f for f in ("corpus", "no_restricted", *defaults) if getattr(args, f, None) is not None]
    if getattr(args, "semigroup", None) and given:
        raise ParseError(f"{args.command} reads {_flag(given[0])} only without a FILE")
    for name, value in defaults.items():  # --family first
        if getattr(args, name) is None:
            setattr(args, name, value)
        elif name in {"trivial": ("n", "group_n"), "brandt": ()}.get(args.family, ("group_n",)):
            raise ParseError(f"{args.command} --family {args.family} reads no {_flag(name)}")
    if hasattr(args, "seed"):
        args.seed = 7 if args.seed is None else args.seed
        args.trials = 100 if args.trials is None else args.trials
    if getattr(args, "trials", 1) < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    if getattr(args, "trials", 1) > MAX_TRIALS:
        raise ParseError(f"--trials must be at most {MAX_TRIALS}, got {args.trials}")
    if getattr(args, "seed", 0) < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    if getattr(args, "corpus", None) not in (None, "default"):
        raise ParseError(f"unknown corpus {args.corpus!r}; the only one is 'default'")


def _gen_family(args):
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
    return S


def cmd_gen(args):
    S = _gen_family(args)
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


def _members_for(args, include_restricted):
    if args.semigroup:
        return [(args.semigroup, load_semigroup(args.semigroup))]
    return default_corpus(include_restricted=include_restricted)


def cmd_verify(args):
    suites = ["axioms", "algebra", "reps", "cstar"] if args.suite == "all" else [args.suite]
    members = _members_for(args, not args.no_restricted)
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
    S = load_semigroup(args.semigroup) if args.semigroup else _gen_family(args)
    builders = {
        "lambda_r": lambda: restricted_left_regular(S),
        "rho_r": lambda: restricted_right_regular(S),
        "lambda": lambda: left_regular(S),
        "Lambda": lambda: left_regular(build_restricted_semigroup(S).sr),
    }
    if args.check:
        entries = []
        for name, build in builders.items():
            rep = build()
            bad = [{"code": v.code, "witness": v.witness} for v in representation_report(rep).violations]
            entries.append({"name": name, "kind": rep.kind, "passed": not bad, "violations": bad})
        if args.as_json:
            print(json.dumps(entries, indent=2, sort_keys=True))
        else:
            for e in entries:
                print(f"[{'PASS' if e['passed'] else 'FAIL'}] {e['name']} membership ({e['kind']} law)")
                for v in e["violations"]:
                    print(f"    {v['code']}: {v['witness']}")
        return EXIT_PASS if all(e["passed"] for e in entries) else EXIT_VERIFICATION
    rep = builders[args.which]()
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
        # the supremum norm is the reduced norm; sampled members of the
        # family must not exceed it
        excess = cstar.sigma_r_cross_check(f, trials=min(args.trials, 5), seed=args.seed)
        if not excess <= verify.TOL.norm:  # a NaN fails too
            raise VerificationFailure(
                f"a sampled restricted representation exceeded the norm by {excess:.3e}",
                witness=excess,
            )
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


def cmd_quotient_check(args):
    members = _members_for(args, include_restricted=False)
    failed = False
    for label, S in members:
        report = cstar.quotient_match_report(S, trials=args.trials, seed=args.seed)
        ok = report.max_deviation < verify.TOL.cstar and report.minimized_deviation < verify.TOL.cstar
        print(
            f"[{'PASS' if ok else 'FAIL'}] {label}: max |quotient - reduced| = "
            f"{report.max_deviation:.3e}, scalar-minimization deviation = "
            f"{report.minimized_deviation:.3e}"
        )
        failed = failed or not ok
    return EXIT_VERIFICATION if failed else EXIT_PASS


def cmd_witness_search(args):
    members = _members_for(args, not args.no_restricted)
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
    _add_family(p)
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
    _add_sampling(p)
    _add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rep", help="print representation matrices / run membership checks")
    p.add_argument("semigroup", nargs="?", default=None)
    _add_family(p, "symmetric-inverse", 2)
    p.add_argument(
        "--which",
        default="lambda_r",
        choices=["lambda_r", "rho_r", "lambda", "Lambda"],
    )
    p.add_argument("--element", type=int, default=0)
    p.add_argument("--check", action="store_true", help="run the membership suite")
    _add_format(p)
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("norm", help="norms of a coefficient function")
    p.add_argument("function", help="function JSON file")
    p.add_argument("--p", default="1", choices=["1", "2", "inf"])
    p.add_argument("--cstar", action="store_true", help="emit the full norm report")
    _add_sampling(p)
    _add_format(p)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("quotient-check", help="quotient-norm comparison")
    p.add_argument("semigroup", nargs="?", default=None)
    p.add_argument("--corpus", default=None)
    _add_sampling(p)
    p.set_defaults(fn=cmd_quotient_check)

    p = sub.add_parser("witness-search", help="associativity scan for the order-relaxed product")
    p.add_argument("semigroup", nargs="?", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--no-restricted", action="store_true", default=None)
    p.add_argument("--first", action="store_true", help="stop at the first witness")
    p.set_defaults(fn=cmd_witness_search)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
