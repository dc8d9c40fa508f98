"""JSON schemas for semigroups and coefficient functions.

Semigroup files: {"order": n, "mul": [[int]], "star": [int]?,
"identity": int?, "zero": int?, "labels": [str]?}; mul[i][j] is the
product of element i by element j.  Zero-adjoined semigroups carry their
"zero" index.  Function files: {"semigroup": <path or inline object>,
"coeffs": [[re, im], ...]}.

Emission is canonical: sorted keys, plain integers for indices, complex
numbers as [re, im] pairs, two-space indentation and a trailing newline,
so generate -> parse -> emit round-trips byte-identically.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .algebra import AlgebraElement
from .errors import ParseError
from .semigroups import build_from_table


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc


def semigroup_to_dict(S):
    out = {
        "order": S.n,
        "mul": [[int(v) for v in row] for row in S.mul],
        "star": [int(v) for v in S.star],
    }
    if S.identity is not None:
        out["identity"] = S.identity
    if S.zero is not None:
        out["zero"] = S.zero
    if S.labels is not None:
        out["labels"] = list(S.labels)
    return out


def semigroup_from_dict(obj):
    """Build a semigroup from its JSON object.

    The full axiom check runs (NotAssociative / NotInverse / StarMismatch
    and SizeLimit propagate); schema problems, a malformed star, non-integer
    entries and integers too large for an index among them, raise ParseError.
    """
    if not isinstance(obj, dict):
        raise ParseError("semigroup object must be a JSON object")
    try:
        mul = obj["mul"]
    except KeyError:
        raise ParseError('semigroup object lacks the "mul" table') from None
    if not isinstance(mul, list) or not all(isinstance(r, list) for r in mul):
        raise ParseError('"mul" must be a list of rows')
    star = obj.get("star")
    if star is not None and not isinstance(star, list):
        raise ParseError('"star" must be a list')
    values = [*(v for row in mul for v in row), *(star or [])]
    values += [obj[key] for key in ("order", "identity", "zero") if key in obj]
    # JSON integers only: floats such as 1.0, strings and booleans (whose
    # type is not int itself) are not
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ParseError(f"{json.dumps(bad)} is not an integer")
    n = len(mul)
    if "order" in obj and obj["order"] != n:
        raise ParseError(f'"order" is {obj["order"]} but the table has {n} rows')
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != n
        or not all(isinstance(label, str) for label in labels)
    ):
        raise ParseError('"labels" must list one string per element')
    try:
        S = build_from_table(mul, star, labels=labels)
    except (ValueError, TypeError, OverflowError) as exc:
        # OverflowError: an integer too large for an index array
        raise ParseError(str(exc)) from exc
    for key in ("identity", "zero"):
        if key in obj and obj[key] != getattr(S, key):
            raise ParseError(
                f'"{key}" is declared as {obj[key]} but the table says '
                f"{getattr(S, key)}"
            )
    return S


def load_semigroup(path):
    return semigroup_from_dict(_load_json(path))


def pairs_to_coeffs(pairs):
    try:
        coeffs = np.array(
            [complex(re, im) for re, im in pairs], dtype=np.complex128
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError('"coeffs" must be a list of [re, im] pairs of finite numbers') from exc
    # complex() takes JSON true and false as 1 and 0
    if any(isinstance(v, bool) for pair in pairs for v in pair):
        raise ParseError('"coeffs" must be numbers, not true or false')
    if not np.all(np.isfinite(coeffs.view(np.float64))):
        raise ParseError('"coeffs" must be finite numbers')
    return coeffs


def load_function(path):
    """Load a coefficient function; the semigroup may be inline or a path
    relative to the function file."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError('function file must carry "semigroup" and "coeffs"')
    sem = obj.get("semigroup")
    if isinstance(sem, str):
        sem_path = sem
        if not os.path.isabs(sem_path):
            sem_path = os.path.join(os.path.dirname(os.path.abspath(path)), sem_path)
        S = load_semigroup(sem_path)
    elif isinstance(sem, dict):
        S = semigroup_from_dict(sem)
    else:
        raise ParseError('"semigroup" must be a path or an inline object')
    coeffs = pairs_to_coeffs(obj["coeffs"])
    if coeffs.shape[0] != S.n:
        raise ParseError(
            f"function has {coeffs.shape[0]} coefficients for a semigroup "
            f"of order {S.n}"
        )
    return AlgebraElement(S, coeffs, copy=False)
