import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import restalg
import restalg.cli
from helpers import function_to_dict, same_table
from restalg.algebra import AlgebraElement
from restalg.cli import MAX_TRIALS, _check_args, build_parser, main
from restalg.errors import NotAssociative, NotInverse, ParseError, RestalgError, StarMismatch
from restalg.families import gen_group, gen_symmetric_inverse_monoid
from restalg.io_json import (
    canonical_dumps,
    load_function,
    load_semigroup,
    semigroup_from_dict,
    semigroup_to_dict,
)

I2 = gen_symmetric_inverse_monoid(2)
Z2 = gen_group("cyclic", 2)


def test_semigroup_roundtrip_byte_identical(tmp_path):
    payload = canonical_dumps(semigroup_to_dict(I2))
    path = tmp_path / "i2.json"
    path.write_text(payload)
    S = load_semigroup(str(path))
    assert canonical_dumps(semigroup_to_dict(S)) == payload
    assert same_table(S, I2)
    assert S.identity == I2.identity and S.zero == I2.zero


def test_semigroup_dict_validation():
    with pytest.raises(ParseError):
        semigroup_from_dict({"order": 2})
    with pytest.raises(ParseError):
        semigroup_from_dict({"order": 3, "mul": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError):
        semigroup_from_dict({"mul": [[0, 1], [1, 0]], "identity": 1})
    with pytest.raises(ParseError):
        semigroup_from_dict({"mul": [[0, 1], [1, 0]], "labels": ["a"]})


@pytest.mark.parametrize("bad", [1.4, 1.0, "1", True])
def test_semigroup_values_must_be_json_integers(bad, tmp_path, capsys):
    # the chain 0 < 1: 1 is the identity, 0 the zero, and every bad value
    # would read as 1 if it were coerced
    chain = {"mul": [[0, 0], [0, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mul": [[0, 0], [0, bad]]}))
    assert main(["verify", str(path), "--suite", "axioms"]) == 2
    assert "not an integer" in capsys.readouterr().err
    for extra in (
        {"mul": [[0, 0], [0, bad]]},
        {"star": [0, bad]},
        {"order": bad},
        {"identity": bad},
        {"zero": bad},
    ):
        with pytest.raises(ParseError, match="not an integer"):
            semigroup_from_dict({**chain, **extra})
    assert semigroup_from_dict({**chain, "star": [0, 1], "order": 2, "identity": 1, "zero": 0})


@pytest.mark.parametrize(
    "obj",
    [
        {"mul": [[100000000000000000000000000]]},
        {"mul": [[0, 1], [1, 0]], "star": [0, 100000000000000000000000000]},
    ],
)
def test_cli_rejects_indices_beyond_a_c_long(obj, tmp_path, capsys):
    # numpy cannot hold them in an index array; an input error, not a traceback
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path), "--suite", "axioms"]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize(
    "obj, err",
    [
        ({"mul": [[0]], "star": [0, 1]}, "input error: involution map must list one index"),
        ({"mul": [[0]], "star": [-1]}, "input error: involution map must list one index"),
        ({"mul": [[0]], "star": []}, "input error: involution map must list one index"),
        # the right shape, but star(g) = g is not the inverse of g in Z3
        ({"mul": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "star": [0, 1, 2]}, "verification failure:"),
    ],
)
def test_cli_malformed_star_is_an_input_error(obj, err, tmp_path, capsys):
    # a star of the wrong shape or range is a schema problem; one of the right
    # shape that breaks an axiom is a verification failure
    path = tmp_path / "star.json"
    path.write_text(json.dumps(obj))
    code = 2 if err.startswith("input error") else 1
    with pytest.raises(ParseError if code == 2 else StarMismatch):
        semigroup_from_dict(obj)
    assert main(["verify", str(path), "--suite", "axioms"]) == code
    assert capsys.readouterr().err.startswith(err)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_changed_entry_is_built_or_reported(full_corpus, tmp_path_factory, data):
    # a corpus member's JSON with one entry of "mul" or "star" set to a value
    # in -1..n: semigroup_from_dict builds it or raises a coded error, and
    # verify reports that error as one stderr line, never a traceback
    _label, S = data.draw(st.sampled_from(full_corpus))
    obj = semigroup_to_dict(S)
    value = data.draw(st.integers(-1, S.n))
    x = data.draw(st.integers(0, S.n - 1))
    if data.draw(st.booleans()):
        obj["mul"][x][data.draw(st.integers(0, S.n - 1))] = value
    else:
        obj["star"][x] = value
    try:
        semigroup_from_dict(obj)
        expected = None
    except RestalgError as exc:
        expected = exc
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(obj))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["verify", str(path), "--suite", "axioms"])
    if expected is None:
        assert code in (0, 1) and err.getvalue() == ""
        return
    if isinstance(expected, ParseError):
        prefix, want = "input error:", 2
    elif isinstance(expected, (NotAssociative, NotInverse, StarMismatch)):
        prefix, want = "verification failure:", 1
    else:
        prefix, want = "error:", 2
    assert code == want
    assert err.getvalue() == f"{prefix} {expected}\n"


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"order": 1,\n  "mul": [[0]],,}\n')
    with pytest.raises(ParseError) as info:
        load_semigroup(str(path))
    assert info.value.line == 2


def test_function_roundtrip(tmp_path):
    rng = np.random.default_rng(30)
    f = AlgebraElement.random(I2, rng)
    path = tmp_path / "f.json"
    path.write_text(canonical_dumps(function_to_dict(f)))
    g = load_function(str(path))
    assert np.array_equal(g.coeffs, f.coeffs)
    assert same_table(g.base, I2)


def test_function_with_semigroup_path(tmp_path):
    (tmp_path / "s.json").write_text(canonical_dumps(semigroup_to_dict(Z2)))
    (tmp_path / "f.json").write_text(
        json.dumps({"semigroup": "s.json", "coeffs": [[1, 0], [0, -1]]})
    )
    f = load_function(str(tmp_path / "f.json"))
    assert f.coeffs.tolist() == [1, -1j]


def test_function_length_mismatch(tmp_path):
    (tmp_path / "f.json").write_text(
        json.dumps({"semigroup": semigroup_to_dict(Z2), "coeffs": [[1, 0]]})
    )
    with pytest.raises(ParseError):
        load_function(str(tmp_path / "f.json"))


# -- CLI ------------------------------------------------------------------


def test_cli_gen_symmetric_inverse(tmp_path, capsys):
    assert main(["gen", "--family", "symmetric-inverse", "--n", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 7


def test_cli_gen_restricted_has_zero(capsys):
    assert main(["gen", "--family", "chain", "--n", "2", "--restricted"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 3
    assert obj["zero"] == 2


def test_cli_gen_roundtrip_file(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["gen", "--family", "brandt", "--n", "2", "--with-identity", "--out", str(out)]) == 0
    S = load_semigroup(str(out))
    assert S.n == 6
    assert canonical_dumps(semigroup_to_dict(S)) == out.read_text()


def test_cli_verify_single_file(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    code = main(["verify", str(path), "--suite", "axioms", "--trials", "5"])
    assert code == 0
    assert "axioms" in capsys.readouterr().out


def test_cli_verify_algebra_suite_on_i4(tmp_path, capsys):
    # order 209: the delta-level laws run on one coded row per element
    path = tmp_path / "i4.json"
    assert main(["gen", "--family", "symmetric-inverse", "--n", "4", "--out", str(path)]) == 0
    assert main(["verify", str(path), "--suite", "algebra"]) == 0
    assert "13/13 checks passed" in capsys.readouterr().out


def test_cli_verify_rejects_right_zero(tmp_path, capsys):
    path = tmp_path / "rz.json"
    path.write_text(json.dumps({"mul": [[0, 1], [0, 1]]}))
    code = main(["verify", str(path), "--suite", "axioms", "--trials", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "commute" in err


def test_cli_verify_json_output(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    code = main(["verify", str(path), "--suite", "axioms", "--json", "--trials", "5"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["passed"] is True
    ids = [c["id"] for c in reports[0]["checks"]]
    assert ids == sorted(ids)
    # every suite's verdicts and deviations are plain JSON values
    assert main(["verify", str(path), "--suite", "all", "--json", "--trials", "5"]) == 0
    assert all(c["passed"] is True for r in json.loads(capsys.readouterr().out) for c in r["checks"])


def test_cli_calls_in_one_process_share_the_parser(tmp_path, capsys):
    # the parser is built once per process, and no option value of one call
    # reaches the next: each call prints what it prints with a new parser
    path = tmp_path / "z4.json"
    path.write_text(canonical_dumps(semigroup_to_dict(gen_group("cyclic", 4))))
    calls = [
        ["verify", "--corpus", "default", "--no-restricted", "--trials", "3", "--json"],
        ["verify", str(path), "--json"],
        ["gen", "--family", "cyclic", "--n", "3"],
        ["gen", "--family", "cyclic"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        if argv[0] == "verify":
            out = json.loads(out)
            for report in out:
                del report["seconds"]
        return code, out

    restalg.cli._parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert restalg.cli._parser.cache_info().misses == 1
    for argv, got in zip(calls, shared):
        restalg.cli._parser.cache_clear()
        assert run(argv) == got, argv
    assert [code for code, _ in shared] == [0, 0, 0, 0]
    assert [json.loads(out)["order"] for _, out in shared[2:]] == [3, 1]


def test_cli_verify_missing_file_is_input_error(capsys):
    assert main(["verify", "/nonexistent/x.json"]) == 2


def test_cli_verify_directory_is_input_error(tmp_path, capsys):
    assert main(["verify", str(tmp_path), "--suite", "axioms"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_cli_verify_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"mul": [[0]], "labels": ["\u00e9"]}'.encode("latin-1"))
    assert main(["verify", str(path), "--suite", "axioms"]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_cli_verify_rejects_non_string_labels(tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"mul": [[0]], "labels": [[1, 2]]}))
    assert main(["verify", str(path), "--suite", "axioms"]) == 2
    assert "one string per element" in capsys.readouterr().err


def test_cli_rep_matrix(tmp_path, capsys):
    path = tmp_path / "z2.json"
    assert main(["gen", "--family", "cyclic", "--n", "2", "--out", str(path)]) == 0
    code = main(["rep", str(path), "--which", "lambda_r", "--element", "1"])
    assert code == 0
    assert "lambda_r" in capsys.readouterr().out


@pytest.mark.parametrize("which", ["lambda_r", "rho_r", "lambda", "Lambda"])
def test_cli_rep_element_does_not_build_the_stack(which, tmp_path, capsys):
    from dense_reference import dense_lambda, dense_lambda_r, dense_rho_r
    from restalg.restricted import build_restricted_semigroup

    S = gen_symmetric_inverse_monoid(3)
    want = {
        "lambda_r": dense_lambda_r,
        "rho_r": dense_rho_r,
        "lambda": dense_lambda,
    }.get(which, lambda S: dense_lambda(build_restricted_semigroup(S).sr))(S)[5]
    path = tmp_path / "i3.json"
    path.write_text(canonical_dumps(semigroup_to_dict(S)))
    argv = ["rep", str(path), "--which", which, "--element", "5"]
    assert main([*argv, "--json"]) == 0
    got = np.array(json.loads(capsys.readouterr().out))
    assert np.array_equal(got[..., 0] + 1j * got[..., 1], want)
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(f"{which}(")


REGULAR = [
    "reps.left-regular-adjoined",
    "reps.left-regular-full",
    "reps.left-regular-restricted",
    "reps.right-regular-restricted",
]


def _removed(argv):
    """An invocation that is gone: argparse rejects it and exits 2."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_cli_rep_check(tmp_path, capsys):
    # rep only prints a matrix: the membership laws of the four regular
    # representations are verify's reps checks
    path = tmp_path / "i2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(I2)))
    _removed(["rep", str(path), "--check"])
    assert "unrecognized arguments: --check" in capsys.readouterr().err
    assert main(["verify", str(path), "--suite", "reps"]) == 0
    out = capsys.readouterr().out
    assert all(f"[PASS] {cid} --" in out for cid in REGULAR)


def test_cli_rep_check_json(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(I2)))
    assert main(["verify", str(path), "--suite", "reps", "--json"]) == 0
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[0]["checks"]}
    assert [(cid, checks[cid]["passed"], checks[cid]["deviation"]) for cid in REGULAR] == [
        (cid, True, 0.0) for cid in REGULAR
    ]
    # a violated law fails the check with its witness, and exits 1
    from restalg.reps import MembershipReport, Violation

    broken = MembershipReport("full", [Violation("adjoint", "x=1", 1.0)])
    monkeypatch.setattr(restalg.verify, "representation_report", lambda rep: broken)
    assert main(["verify", str(path), "--suite", "reps", "--json"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)[0]["checks"]}
    assert all(not checks[cid]["passed"] and checks[cid]["witness"] == "x=1" for cid in REGULAR)


def _assert_report(report, want):
    """norm --cstar's report: the same keys and block sizes as want, and the
    same norms up to rounding (want is what the command printed when it
    also ran a sampled bound)."""
    assert report.pop("blocks") == want["blocks"]
    assert report == pytest.approx({k: v for k, v in want.items() if k != "blocks"}, rel=0, abs=1e-13)


def test_cli_norm(tmp_path, capsys):
    f = AlgebraElement(Z2, [1, 1])
    path = tmp_path / "f.json"
    path.write_text(canonical_dumps(function_to_dict(f)))
    assert main(["norm", str(path), "--p", "1"]) == 0
    assert float(capsys.readouterr().out) == 2.0
    assert main(["norm", str(path), "--cstar"]) == 0
    report = json.loads(capsys.readouterr().out)
    # Z2 is one D-class, one 2 x 2 block
    _assert_report(
        report, {"blocks": [2], "full": 2.0, "l1": 2.0, "reduced": 2.0, "unrestricted_reduced": 2.0}
    )


@pytest.mark.parametrize("value", ["NaN", "1e400", "-Infinity"])
def test_cli_norm_rejects_non_finite_coefficients(value, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(
        '{"semigroup": {"mul": [[0, 1], [1, 0]]}, "coeffs": [[%s, 0], [1, 0]]}' % value
    )
    with pytest.raises(ParseError, match="finite"):
        load_function(str(path))
    assert main(["norm", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_norm_rejects_boolean_coefficients(tmp_path, capsys):
    (tmp_path / "z2.json").write_text(canonical_dumps(semigroup_to_dict(Z2)))
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"semigroup": "z2.json", "coeffs": [[True, False], [False, True]]}))
    with pytest.raises(ParseError, match="true or false"):
        load_function(str(path))
    assert main(["norm", str(path)]) == 2
    assert "true or false" in capsys.readouterr().err


def test_cli_norm_rejects_integer_coefficients_beyond_float(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"semigroup": {"mul": [[0, 1], [1, 0]]}, "coeffs": [[1%s, 0], [1, 0]]}' % ("0" * 400))
    assert main(["norm", str(path)]) == 2
    assert "finite" in capsys.readouterr().err


def test_cli_norm_reports_blocks(tmp_path, capsys):
    f = AlgebraElement.random(I2, np.random.default_rng(3))
    path = tmp_path / "f.json"
    path.write_text(canonical_dumps(function_to_dict(f)))
    assert main(["norm", str(path), "--cstar"]) == 0
    report = json.loads(capsys.readouterr().out)
    # blocks: the empty map, the rank-one maps with domain {0}, the
    # permutations; I2 has a zero (the empty map), so the quotient is
    # reported too
    _assert_report(report, {
        "blocks": [1, 2, 2], "full": 1.4389295121919614, "l1": 4.21360922238876,
        "quotient": 1.3901333718720037, "reduced": 1.4389295121919614,
        "unrestricted_reduced": 1.9408027128247403,
    })


def test_cli_norm_quotient_field(tmp_path, capsys):
    code = main(["gen", "--family", "chain", "--n", "2", "--restricted", "--out",
                 str(tmp_path / "sr.json")])
    assert code == 0
    sr = load_semigroup(str(tmp_path / "sr.json"))
    f = AlgebraElement.delta(sr, 2)  # the adjoined zero
    (tmp_path / "f.json").write_text(canonical_dumps(function_to_dict(f)))
    assert main(["norm", str(tmp_path / "f.json"), "--cstar"]) == 0
    report = json.loads(capsys.readouterr().out)
    _assert_report(report, {
        "blocks": [1, 1, 1], "full": 1.0, "l1": 1.0, "quotient": 0.0, "reduced": 1.0,
        "unrestricted_reduced": 1.0,
    })


def test_cli_witness_search(capsys):
    assert main(["witness-search", "--no-restricted", "--first"]) == 0
    out = capsys.readouterr().out
    assert "chain2" in out
    assert "witness" in out


def test_cli_quotient_check_single(tmp_path, capsys):
    # the quotient comparison is verify's cstar.quotient-* checks
    path = tmp_path / "z2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    _removed(["quotient-check", str(path), "--trials", "10"])
    assert "invalid choice: 'quotient-check'" in capsys.readouterr().err
    assert main(["verify", str(path), "--suite", "cstar", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] cstar.quotient-match --" in out and "[PASS] cstar.quotient-minimized --" in out


def test_cli_quotient_check_reads_the_cstar_tolerance(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    # the minimized route is off by rounding, which 1e-30 does not allow
    monkeypatch.setattr(restalg.verify, "TOL", dataclasses.replace(restalg.verify.TOL, cstar=1e-30))
    assert main(["verify", str(path), "--suite", "cstar"]) == 1
    assert "[FAIL] cstar.quotient-minimized --" in capsys.readouterr().out


def test_cli_sigma_cross_check_reads_the_norm_tolerance(tmp_path, capsys, monkeypatch):
    z2 = tmp_path / "z2.json"
    z2.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    f = tmp_path / "f.json"
    f.write_text(canonical_dumps(function_to_dict(AlgebraElement(Z2, [1, 1]))))
    # a sampled representation 5e-10 above the norm: within the norm
    # tolerance 1e-9, beyond 1e-10
    monkeypatch.setattr(restalg.cstar, "sigma_r_cross_checks", lambda S, F, *, trials, seeds: np.full(len(F), 5e-10))
    assert main(["verify", str(z2), "--suite", "cstar"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(restalg.verify, "TOL", dataclasses.replace(restalg.verify.TOL, norm=1e-10))
    assert main(["verify", str(z2), "--suite", "cstar"]) == 1
    assert "[FAIL] cstar.sigma-cross-check -- " in capsys.readouterr().out
    # norm --cstar judges nothing: it prints the norms and exits 0
    assert main(["norm", str(f), "--cstar"]) == 0
    assert json.loads(capsys.readouterr().out)["full"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "trivial", "--seed", "3"],
        ["gen", "--family", "trivial", "--trials", "3"],
        ["gen", "--family", "trivial", "--tol", "norm=1"],
        ["gen", "--family", "trivial", "--json"],
        ["rep", "unread.json", "--seed", "3"],
        ["rep", "unread.json", "--trials", "3"],
        ["rep", "unread.json", "--tol", "norm=1"],
        ["witness-search", "--seed", "3"],
        ["witness-search", "--trials", "3"],
        ["witness-search", "--tol", "norm=1"],
        ["witness-search", "--json"],
        # rep only prints a matrix; norm --cstar samples nothing
        ["rep", "unread.json", "--check"],
        ["gen", "--family", "trivial", "--max-order", "300"],
        ["verify", "--max-order", "300"],
        ["rep", "unread.json", "--max-order", "300"],
        ["norm", "unread.json", "--max-order", "300"],
        ["norm", "unread.json", "--seed", "3"],
        ["witness-search", "--max-order", "300"],
        # the tolerances are fixed (restalg.verify.TOL)
        ["verify", "--tol", "entrywise=1e-6"],
        ["norm", "unread.json", "--cstar", "--tol", "norm=1"],
        ["norm", "unread.json", "--cstar", "--trials", "3"],
    ],
)
def test_cli_rejects_flags_a_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # quotient-check, rep's family flags and norm's sampling flags are
        # gone: argparse rejects them
        (["quotient-check", "{z2}", "--corpus", "bogus"], "invalid choice: 'quotient-check'"),
        (["rep", "{z2}", "--n", "3"], "unrecognized arguments: --n 3"),
        (["norm", "{f}", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["norm", "{f}", "--trials", "3"], "unrecognized arguments: --trials 3"),
        (["norm", "{f}", "--p", "2", "--seed", "0"], "unrecognized arguments: --seed 0"),
        (["verify", "{z2}", "--no-restricted"], "verify reads --no-restricted only without a FILE"),
        (["witness-search", "{z2}", "--no-restricted"],
         "witness-search reads --no-restricted only without a FILE"),
        (["verify", "{z2}", "--corpus", "default"], "verify reads --corpus only without a FILE"),
        (["quotient-check"], "invalid choice: 'quotient-check'"),
        (["witness-search", "{z2}", "--corpus", "default"],
         "witness-search reads --corpus only without a FILE"),
        (["rep", "{z2}", "--family", "brandt", "--n", "4"],
         "unrecognized arguments: --family brandt --n 4"),
        (["rep", "{z2}", "--with-identity"], "unrecognized arguments: --with-identity"),
        (["gen", "--family", "cyclic", "--n", "3", "--group-n", "5"], "gen --family cyclic reads no --group-n"),
        (["gen", "--family", "trivial", "--n", "7"], "gen --family trivial reads no --n"),
        # "cyclic" is read as the FILE
        (["rep", "--family", "cyclic"], "unrecognized arguments: --family"),
    ],
)
def test_cli_rejects_tolerances_and_flags_a_command_does_not_read(argv, message, tmp_path, capsys):
    # each used to run and exit 0, the flag silently unread; an input error
    # is one line, and argparse ends its usage text with the message
    z2 = tmp_path / "z2.json"
    z2.write_text(canonical_dumps(semigroup_to_dict(Z2)))
    f = tmp_path / "f.json"
    f.write_text(canonical_dumps(function_to_dict(AlgebraElement(Z2, [1, 1]))))
    argv = [a.format(z2=z2, f=f) for a in argv]
    if message.startswith(("invalid choice", "unrecognized")):
        _removed(argv)
        assert message in capsys.readouterr().err.splitlines()[-1]
    else:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.memory
def test_cli_gen_size_limit_exit_code(tmp_path, capsys):
    assert main(["gen", "--family", "symmetric-inverse", "--n", "5"]) == 2
    assert capsys.readouterr().err == "error: order 1546 exceeds MAX_ORDER = 256\n"
    assert main(["gen", "--family", "symmetric-inverse", "--n", "9"]) == 2
    # 13! permutations are never listed
    assert main(["gen", "--family", "symmetric", "--n", "13"]) == 2
    assert "13!" in capsys.readouterr().err
    # gen writes only tables verify reads: the zero-adjoined chain of 256
    # idempotents has 257 elements
    assert main(["gen", "--family", "chain", "--n", "256", "--restricted"]) == 2
    assert capsys.readouterr().err == "error: order 257 exceeds MAX_ORDER = 256\n"
    path = tmp_path / "chain.json"
    assert main(["gen", "--family", "chain", "--n", "255", "--restricted", "--out", str(path)]) == 0
    assert load_semigroup(str(path)).n == 256
    assert main(["verify", str(path), "--suite", "axioms"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--corpus", "bogus"],
        # the quotient-check and norm --cstar verdicts are verify --suite cstar's
        ["verify", "--no-restricted", "--suite", "cstar", "--corpus", "bogus"],
        ["witness-search", "--corpus", "bogus"],
        ["verify", "--suite", "cstar", "--trials", "0"],
        ["verify", "--suite", "axioms", "--trials", "-3"],
        ["verify", "--suite", "cstar", "--seed", "-1"],
        ["verify", "--suite", "algebra", "--no-restricted", "--trials", "1001"],
        ["verify", "--suite", "algebra", "--no-restricted", "--trials", str(10**15)],
        ["verify", "--no-restricted", "--suite", "cstar", "--trials", "1001"],
        ["verify", "--no-restricted", "--suite", "cstar", "--trials", str(10**15)],
        ["verify", "--suite", "cstar", "--trials", "1001"],
        ["verify", "--suite", "cstar", "--trials", str(10**15)],
    ],
)
def test_cli_rejects_unusable_common_values(argv, capsys):
    # each used to run anyway: the default corpus, vacuous random checks,
    # or a numpy traceback (of an allocation of trials x n values) read as
    # a verification failure
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_cli_trials_bound(tmp_path, capsys):
    path = tmp_path / "i2.json"
    path.write_text(canonical_dumps(semigroup_to_dict(I2)))
    assert main(["verify", str(path), "--suite", "axioms", "--trials", str(MAX_TRIALS)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--suite", "algebra", "--trials", str(10**15)]) == 2
    assert capsys.readouterr().err == f"input error: --trials must be at most 1000, got {10**15}\n"


def test_readme_cli_examples_parse():
    # every restalg line of README's CLI block, its comment and redirection
    # dropped, parses and passes the argument checks, so the docs list no
    # command or flag that is gone
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split(">", 1)[0].split() for line in block.splitlines()]
    lines = [words for words in lines if words[:1] == ["restalg"]]
    assert {words[1] for words in lines} == {"gen", "verify", "rep", "norm", "witness-search"}
    parser = build_parser()
    for words in lines:
        try:
            args = parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(words)}")
        _check_args(args)


def test_cli_closed_stdout_exits_quietly():
    # the reader stops after one line, as `restalg verify ... | head -1` does
    src = os.path.dirname(os.path.dirname(restalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "restalg.cli", "verify", "--corpus", "default",
         "--suite", "axioms"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert code not in (1, 2), err
    assert "Traceback" not in err


_REFAULT_CHILD = """
import contextlib, io, resource, sys
from restalg import cli
path = sys.argv[1]
assert cli.main(["gen", "--family", "brandt", "--n", "4", "--group-n", "5", "--with-identity", "--out", path]) == 0
argv = ["verify", path, "--suite", "reps", "--json"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the CLI sets heap thresholds through glibc's mallopt",
)
def test_cli_call_reuses_the_heap_of_the_previous_call(tmp_path):
    # the row blocks of the reps suite are about 1 MiB each; without the
    # thresholds glibc maps and zero-faults each one anew (about 3-5k faults
    # on this call), with them the second call finds its pages mapped
    src = os.path.dirname(os.path.dirname(restalg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _REFAULT_CHILD, str(tmp_path / "brandt.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000
