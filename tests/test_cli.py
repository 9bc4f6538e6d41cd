import argparse
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from endoclass import __version__, field_from_spec, iso_classes, verify_classification
from endoclass.classify import enumerate_type_ii1
from endoclass.cli import _PIECE, _emit_json, _parse, _UsageError, build_parser, main
from endoclass.equiv import MAX_DEGREE_BOUND
from endoclass.fields import MAX_DIGITS, MAX_EXPONENT

from common import forbid_scan


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_f2_json(capsys):
    code, out, err = run_cli(capsys, "verify", "--field", "F2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["counts"] == {"algebras": 3, "classes": 3, "predicted": 3}
    assert doc["version"]
    assert "verdict: pass" in err


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--field", "F3", "--format", "text")
    assert code == 0
    assert "10 isomorphism classes" in out


def test_verify_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--field", "F3")
    _, out2, _ = run_cli(capsys, "verify", "--field", "F3")
    assert out1 == out2


def test_verify_text_prints_each_failure_and_exits_1(capsys, monkeypatch):
    import endoclass.classify as classify
    families = classify.theorem_families
    monkeypatch.setattr(classify, "theorem_families", lambda field: families(field)[:-1])
    code, out, err = run_cli(capsys, "verify", "--field", "F3", "--format", "text")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1] == "verdict: fail"
    assert lines[-2:] == [
        "FAIL: 10 computed classes vs 9 predicted families",
        "FAIL: class 3 (representative S(0, 1, 2, 0, 1, 0)) matches no predicted family"]


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------

def test_iso_identity_witness(capsys):
    params = '{"p":"0","q":"1","a":"1","b":"0","c":"-1","d":"2"}'
    code, out, _ = run_cli(capsys, "iso", "--field", "F5",
                           "--lhs", params, "--rhs", params)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["witness"] == {"x": "1", "y": "0", "z": "0", "w": "1"}


def test_iso_negative_exit_code(capsys):
    code, out, _ = run_cli(capsys, "iso", "--field", "F5",
                           "--lhs", "0,1,1,0,-1,2", "--rhs", "0,4,-4,-4,4,0",
                           "--format", "text")
    assert code == 1
    assert out.strip() == "not isomorphic"


def test_iso_sparams_round_trip(capsys):
    _, out, _ = run_cli(capsys, "iso", "--field", "F5",
                        "--lhs", "0,4,4,0,-4,4", "--rhs", "0,1,1,0,-1,2")
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    # printed params re-parse to equal values
    code2, out2, _ = run_cli(capsys, "iso", "--field", "F5",
                             "--lhs", json.dumps(doc["lhs"]),
                             "--rhs", json.dumps(doc["rhs"]))
    assert code2 == 0 and json.loads(out2)["lhs"] == doc["lhs"]


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------

def test_equiv_reps_f7(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "F7",
                           "--relation", "sim1", "--reps")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == {"1": ["1", "2", "4"], "3": ["3", "5", "6"]}


def test_equiv_test_negative(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "Q",
                           "--relation", "sim1", "--test", "2", "3")
    assert code == 1
    assert json.loads(out)["related"] is False


def test_equiv_test_positive_with_witness(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "F7",
                           "--relation", "sim1", "--test", "1", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["related"] is True and doc["witness"] == "2"


def test_equiv_bounded_search(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "F2(X)",
                           "--relation", "sim2", "--test", "X^3", "X^5",
                           "--degree-bound", "6")
    assert code == 1
    assert json.loads(out)["witness"] is None


def test_equiv_sim3_tuple_witness(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "F2(X)",
                           "--relation", "sim3", "--test", "X^3+X^2", "X")
    assert code == 0
    doc = json.loads(out)
    assert doc["related"] is True and len(doc["witness"]) == 2


@pytest.mark.parametrize("relation", ["sim2", "sim4"])
def test_equiv_f2x_undecidable_names_the_degree_bound(capsys, relation):
    # the error points at the CLI option, not at a library function
    code, out, err = run_cli(capsys, "equiv", "--field", "F2(X)",
                             "--relation", relation, "--test", "X", "X^2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("endoclass: error: ")
    assert "--degree-bound" in err and "bounded_refutation_search" not in err


# ---------------------------------------------------------------------------
# enumerate / classes / table / fields
# ---------------------------------------------------------------------------

def test_enumerate_subclass3_tsv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--field", "F4",
                           "--type", "II1", "--subclass", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p\tq\ta\tb\tc\td"
    assert len(lines) == 1 + 9


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--field", "F2",
                           "--type", "II1", "--format", "json")
    doc = json.loads(out)
    assert len(doc["algebras"]) == 3


def test_classes_f5(capsys):
    code, out, _ = run_cli(capsys, "classes", "--field", "F5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 12
    assert sum(c["size"] for c in doc["classes"]) == 56


def test_table_text_layout(capsys):
    code, out, _ = run_cli(capsys, "table", "--field", "Q",
                           "--algebra", "0,1,1,0,-1,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("(") and lines[1].startswith("(")
    assert "-e+2f" in out
    assert "type II1" in out


@pytest.mark.parametrize("spec, algebra, table", [
    ("F9", "0,w+1,1,0,1,1", "( f    e      )\n( e+f  (w+1)f )"),
    ("Q", "0,0,1,0,-1/2,0", "( f        e )\n( (-1/2)e  0 )")])
def test_table_text_brackets_compound_coefficients_and_prints_a_zero_row(
        capsys, spec, algebra, table):
    code, out, err = run_cli(capsys, "table", "--field", spec, "--algebra", algebra)
    assert (code, err) == (0, "")
    assert out == table + "\nrank 2, endo-commutative: no\n"


def test_fields_listing(capsys):
    code, out, _ = run_cli(capsys, "fields", "--field", "F4")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == ["0", "1", "w", "w+1"]
    assert doc["characteristic"] == 2


@pytest.mark.parametrize("argv, code, out", [
    (["fields", "--field", "Q", "--format", "tsv"], 0, "Q\tinfinite\n"),
    (["fields", "--field", "Q", "--format", "text"], 0, "Q: characteristic 0, order infinite\n"),
    (["fields", "--field", "F4", "--format", "text"], 0,
     "F2^2/x^2+x+1: characteristic 2, order 4\nelements: 0, 1, w, w+1\n"),
    (["equiv", "--field", "F9", "--relation", "sim1", "--reps", "--format", "text"], 0,
     "1\nw+1\n"),
    (["equiv", "--field", "F2(X)", "--relation", "sim2", "--test", "X", "X^2",
      "--degree-bound", "2", "--format", "text"], 0, "witness found (X)\n"),
    (["equiv", "--field", "F2(X)", "--relation", "sim2", "--test", "X", "X+1",
      "--degree-bound", "2", "--format", "text"], 1, "no witness up to bound 2\n"),
    (["equiv", "--field", "F5", "--relation", "sim1", "--test", "1", "4", "--format", "text"], 0,
     "related, witness 2\n"),
    (["equiv", "--field", "Q", "--relation", "sim1", "--test", "2", "8", "--format", "text"], 0,
     "related, witness 1/2\n")])
def test_text_outputs(capsys, argv, code, out):
    assert run_cli(capsys, *argv) == (code, out, "")


# ---------------------------------------------------------------------------
# errors and exit codes
# ---------------------------------------------------------------------------

def test_bad_field_spec_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "fields", "--field", "F6")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("spec", [
    "F1000000000000000003",   # a prime: trial division would take hours
    "F100000000000000000000",  # 10^20: the prime-power search would too
    "F2^300000000",           # p**k alone would be a 37 MB integer
])
def test_huge_field_spec_is_refused_before_arithmetic(capsys, spec):
    code, out, err = run_cli(capsys, "fields", "--field", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("endoclass: error:")


def test_exponent_bound(capsys):
    # w^3 = 1 in F4 and MAX_EXPONENT = 4096 = 3*1365 + 1, so w^4096 = w
    _, expected, _ = run_cli(capsys, "table", "--field", "F4", "--algebra", "0,1,1,0,1,w")
    code, out, _ = run_cli(capsys, "table", "--field", "F4", "--algebra",
                           f"0,1,1,0,1,w^{MAX_EXPONENT}")
    assert code == 0 and out == expected
    code, out, err = run_cli(capsys, "table", "--field", "F4", "--algebra",
                             f"0,1,1,0,1,w^{MAX_EXPONENT + 1}")
    assert code == 2 and out == ""
    assert "exponent" in err


@pytest.mark.parametrize("argv", [
    ["fields", "--field", f"F2^2/x^{MAX_EXPONENT + 1}+1"],
    ["equiv", "--field", "F2(X)", "--relation", "sim3", "--test", f"X^{MAX_EXPONENT + 1}", "X"],
    ["equiv", "--field", "F2(X)", "--relation", "sim3", "--test", f"1/(X^{MAX_EXPONENT + 1})", "X"],
])
def test_exponent_bound_covers_moduli_and_f2x(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "exponent" in err


LONG = "1" * (MAX_DIGITS + 1)


@pytest.mark.parametrize("argv, what", [
    (["fields", "--field", f"F{LONG}"], "field order"),
    (["fields", "--field", f"F2^{LONG}"], "extension degree"),
    (["fields", "--field", f"F2^2/{LONG}x^2+x+1"], "coefficient"),
    (["table", "--field", "F4", "--algebra", f"0,1,1,0,1,{LONG}w"], "coefficient"),
    (["table", "--field", "F4", "--algebra", f"0,1,1,0,1,w^{LONG}"], "exponent"),
    (["equiv", "--field", "F2(X)", "--relation", "sim3", "--test", f"X^{LONG}", "X"], "exponent"),
])
def test_overlong_numbers_are_refused_with_a_bound_message(capsys, argv, what):
    # int() would raise its own error about sys.set_int_max_str_digits
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (f"endoclass: error: {what} with {MAX_DIGITS + 1} digits is too long "
                   f"to read (at most {MAX_DIGITS})\n")


def test_exponent_bound_f2x_just_below(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--field", "F2(X)", "--relation", "sim3",
                           "--test", f"X^{MAX_EXPONENT}", "1", "--format", "text")
    assert code == 0 and out.startswith("related")  # X^4096 is a square


def test_equiv_rational_square_of_large_prime(capsys):
    # 2^61 - 1 is prime: the decision is exact and immediate
    code, out, _ = run_cli(capsys, "equiv", "--field", "Q", "--relation", "sim1",
                           "--test", str(2**61 - 1), "1", "--format", "text")
    assert code == 1
    assert out == "not related\n"


def test_degree_bound_above_maximum_is_refused(capsys):
    # refused before the search starts; never run a search this large
    code, out, err = run_cli(capsys, "equiv", "--field", "F2(X)", "--relation", "sim2",
                             "--test", "X", "1", "--degree-bound", str(MAX_DEGREE_BOUND + 1))
    assert code == 2 and out == ""
    assert "degree bound" in err


@pytest.mark.parametrize("argv", [
    ["enumerate", "--field", "F256"],
    ["enumerate", "--field", "F27", "--type", "III"],
    ["classes", "--field", "F64"],
    ["verify", "--field", "F53"],
])
def test_oversized_scan_is_refused_at_once(capsys, monkeypatch, argv):
    # enumerate scans, and F256 would be a scan of about 10^12 tuples;
    # classes and verify read the closed form and admit every field
    forbid_scan(monkeypatch)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    if argv[0] != "enumerate":
        # C(64) = 64 + 3 and C(53) = 53 + 7 classes
        assert code == 0
        assert len(json.loads(out)["classes"]) == {"classes": 67, "verify": 60}[argv[0]]
        assert argv[0] == "classes" or err.splitlines()[1] == "verdict: pass"
        return
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("endoclass: error: ")
    assert "tuples" in err


@pytest.mark.parametrize("value", ["1e9999", "2E3", "1.5e-2"])
def test_rational_exponent_notation_is_refused(capsys, value):
    code, out, err = run_cli(capsys, "table", "--field", "Q", "--algebra",
                             f"0,1,{value},0,-1,2")
    assert code == 2 and out == ""
    assert "exponent" in err


@pytest.mark.parametrize("argv", [
    ["table", "--field", "F9", "--algebra", "0,1,1,0,1,--w"],
    ["table", "--field", "F9", "--algebra", "0,1,-+w,0,1,1"],
    ["table", "--field", "F2(X)", "--algebra", "0,1,1,0,1,(--X)/(X+1)"],
    ["fields", "--field", "F3^2/--x^2+1"],
])
def test_doubled_leading_sign_is_refused(capsys, argv):
    # "--w" used to read as -w, i.e. 2w over F9
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("endoclass: error: ")
    assert "malformed polynomial" in err


@pytest.mark.parametrize("argv, clipped", [
    (["equiv", "--field", "F7", "--relation", "sim1", "--test", "1" * 4400, "2"],
     "cannot parse '" + "1" * 40 + "'... (4,360 more characters) as an element of F7"),
    (["fields", "--field", "F" + "9" * 4000],
     "got 'F" + "9" * 39 + "'... (3,961 more characters)"),
    (["table", "--field", "Q", "--algebra", "0,1,1,0,1," + "1" * 4000 + "e"],
     "cannot parse '" + "1" * 40 + "'... (3,961 more characters) as a rational"),
])
def test_overlong_input_is_clipped_in_the_error(capsys, argv, clipped):
    # the error names the input by its first 40 characters, not whole
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and clipped in err
    assert len(err) < 200


@pytest.mark.parametrize("value, expected", [
    ("12", "12"), ("-3", "-3"), ("6/8", "3/4"), ("0.25", "1/4"), (" 7 ", "7"),
])
def test_rational_integers_fractions_and_decimals_parse(capsys, value, expected):
    code, out, _ = run_cli(capsys, "equiv", "--field", "Q", "--relation", "sim1",
                           "--test", value, value)
    assert code == 0
    assert json.loads(out)["t"] == expected


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_broken_pipe_exits_141_without_traceback(unbuffered):
    # the F16 partition (about 110 kB of JSON) and the F17 verify document
    # (about 130 kB) are more than a pipe holds.  An unbuffered stdout
    # silently drops the rest of a partial write, so a write that is not
    # repeated from where it stopped would exit 0 there; both modes must see
    # 141, and verify must not print its summary
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    for argv in (["classes", "--field", "F16"], ["verify", "--field", "F17", "--format", "json"]):
        proc = subprocess.Popen([sys.executable, "-m", "endoclass", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, argv
        assert err == b"", argv  # in particular, no traceback


def test_json_follows_what_was_printed_before_it():
    # stdout into a pipe is block-buffered, and the document goes to its
    # binary buffer: text printed before a JSON command comes out first
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    script = ("from endoclass.cli import main\n"
              "print('before')\nmain(['fields', '--field', 'F2'])\nprint('after')")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert proc.returncode == 0 and proc.stderr == b""
    out = proc.stdout.decode()
    assert out.startswith("before\n{\n") and out.endswith("\n}\nafter\n")
    assert json.loads(out[len("before\n"):-len("after\n")])["spec"] == "F2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_broken_pipe_in_process_leaves_no_descriptor(monkeypatch):
    before = len(os.listdir("/proc/self/fd"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["fields", "--field", "F2"]) == 141
        monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


def test_unknown_flag_rejected(capsys):
    assert main(["verify", "--field", "F2", "--nonsense"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("endoclass: error: unrecognized arguments: --nonsense\n")


@pytest.mark.parametrize("command", ["verify", "classes"])
def test_jobs_flag_is_an_unknown_argument(command, capsys):
    # --jobs never changed the output and has been removed
    assert main([command, "--field", "F2", "--jobs", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_missing_subcommand_rejected(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: endoclass ")
    assert "endoclass: error: the following arguments are required" in err


def test_bad_jobs_rejected(capsys):
    assert main(["verify", "--field", "F2", "--jobs", "0"]) == 2
    assert "unrecognized arguments: --jobs 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["iso", "--help"], ["--version"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    out, err = capsys.readouterr()
    assert out and err == ""


@pytest.mark.parametrize("command,option", [("iso", "--lhs"), ("table", "--algebra")])
@pytest.mark.parametrize("sparams", [
    '{"p":"0"}',                                          # missing keys
    '[1]',                                                # not an object
    '{"p":0,"q":1,"a":1,"b":0,"c":-1,"d":2}',             # numbers, not strings
    '{"p":null,"q":"1","a":"1","b":"0","c":"-1","d":"2"}',
])
def test_malformed_json_sparams_is_usage_error(capsys, command, option, sparams):
    argv = [command, "--field", "F5", option, sparams]
    if command == "iso":
        argv += ["--rhs", "0,1,1,0,-1,2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("endoclass: error:") and err.count("\n") == 1


def test_equiv_without_mode_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "equiv", "--field", "F7", "--relation", "sim1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--field", "F5", "--relation", "sim1", "--reps", "--test", "1", "2"],
    ["--field", "F5", "--relation", "sim1", "--reps", "--degree-bound", "3"],
    ["--field", "F2(X)", "--relation", "sim2", "--test", "X", "X^2", "--degree-bound", "3",
     "--reps"],
])
def test_equiv_conflicting_modes_are_usage_errors(capsys, argv):
    # a conflict between --reps and --test is argparse's; --degree-bound
    # without --test is refused by the command
    code = main(["equiv", *argv])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(("endoclass: error: ",
                                                      "endoclass equiv: error: "))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "endoclass", "verify", "--field", "F2", "--format", "text"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout


# ---------------------------------------------------------------------------
# parser reuse
# ---------------------------------------------------------------------------

def run_main(capsys, argv):
    """(exit code, stdout, stderr) of one call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# interleaved so that a value left behind by one call would show in the
# next: each command's own --format default, --subclass given then
# omitted (the json output names it), --reps then --test, a usage error
# and --version between valid calls
REUSE_SEQUENCE = [
    ["fields", "--field", "F4"],
    ["enumerate", "--field", "F3", "--subclass", "2"],
    ["enumerate", "--field", "F3", "--format", "json", "--subclass", "2"],
    ["enumerate", "--field", "F3", "--format", "json"],
    ["enumerate", "--field", "F3"],
    ["table", "--field", "F5", "--algebra", "0,1,1,0,-1,2"],
    ["equiv", "--field", "F7", "--relation", "sim1", "--reps"],
    ["equiv", "--field", "F7", "--relation", "sim1", "--test", "1", "3"],
    ["verify", "--field", "F2", "--jobs", "2"],
    ["iso", "--field", "F5", "--lhs", "0,1,1,0,-1,2", "--rhs", "0,4,4,0,-4,4"],
    ["--version"],
    ["classes", "--field", "F3", "--format", "text"],
    ["verify", "--field", "F3"],
    ["table", "--field", "F5", "--algebra", "0,1,1,0,-1,2", "--format", "json"],
    ["fields", "--field", "F4", "--format", "tsv"],
    ["equiv", "--help"],
]


def test_reused_parser_leaks_no_state(capsys):
    reused = [run_main(capsys, argv) for argv in REUSE_SEQUENCE]
    for argv, got in zip(REUSE_SEQUENCE, reused):
        build_parser.cache_clear()
        assert run_main(capsys, argv) == got, argv
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0]
    assert json.loads(reused[2][1])["subclass"] == 2
    assert json.loads(reused[3][1])["subclass"] is None


def test_main_builds_the_parser_once(capsys, monkeypatch):
    main(["fields", "--field", "F2"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["fields", "--field", "F3"]) == 0
    assert main(["equiv", "--field", "F5", "--relation", "sim1", "--reps"]) == 0
    assert built == []


def test_main_builds_field_tables_once(capsys, monkeypatch):
    from endoclass.fields import FieldTables
    built = []
    init = FieldTables.__init__

    def counting_init(self, field):
        built.append(field.spec_string())
        init(self, field)
    monkeypatch.setattr(FieldTables, "__init__", counting_init)
    for argv in (["equiv", "--field", "F243", "--relation", "sim1", "--reps"],
                 ["equiv", "--field", "F243", "--relation", "sim5", "--test", "w", "2"],
                 ["table", "--field", "F243", "--algebra", "0,w,1,0,1,1"],
                 ["iso", "--field", "F243", "--lhs", "0,w,1,0,2,0", "--rhs", "0,1,1,0,2,0"]):
        main(argv)
    capsys.readouterr()
    assert built in ([], ["F3^5/x^5+2x+1"])


# ---------------------------------------------------------------------------
# one parse per call: dispatch against the full parser
# ---------------------------------------------------------------------------

ISO_F5 = ["iso", "--field", "F5", "--lhs", "0,1,1,0,4,2", "--rhs", "0,1,1,0,4,2"]
DISPATCH_EDGE_CASES = [
    [], ["-h"], ["--version"], ["--ver"], ["--version", "iso"], ["bogus"], ["iso"],
    ["iso", "--version"], ISO_F5 + ["--bogus"], ISO_F5 + ["--bogus", "x", "y"],
    ISO_F5 + ["--", "x"], ISO_F5 + ["--"], ["--", "iso"],
    ["iso", "--fie", "F5", "--lhs", "0,1,1,0,4,2", "--rhs", "0,1,1,0,4,2"],
    ["verify", "--field", "F3", "--jobs", "2"],
    ["equiv", "--field", "F5", "--relation", "sim1", "--reps", "--test", "1", "2"],
    ["enumerate", "--field", "F3", "--subclass", "5"],
    ["fields", "-h"], ["fields", "--field", "F4", "extra"], ["fields", "--field=F4"],
    ["fields", "--field", "F4", "--version"], ["fields", "--field", "F4", "--fo", "tsv"],
    ["equiv", "--field", "Q", "--relation", "sim1", "--test", "-1", "-4"],
]


def argv_lists_in_this_file():
    """Every argv this file hands to `main` where it is written out: the
    strings of each `run_cli` call and each list literal of strings that
    is empty or starts with a command, -h, --help or --version."""
    tree = ast.parse(Path(__file__).read_text())
    names = vars(sys.modules[__name__])
    first = set(build_parser().commands) | {"-h", "--help", "--version"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            elts = node.args[1:]
        elif isinstance(node, ast.List):
            elts = node.elts
        else:
            continue
        if any(isinstance(e, ast.Starred) for e in elts):
            continue
        try:
            argv = [eval(compile(ast.Expression(e), __file__, "eval"), names) for e in elts]
        except NameError:
            continue  # built from a test's own parameters
        if all(isinstance(a, str) for a in argv) and (not argv or argv[0] in first):
            if argv not in found:
                found.append(argv)
    return found


def full_parser_main(argv):
    """The reference for `main`: the full parser parses the whole line,
    then the command runs, with `main`'s handling of command errors."""
    try:
        args = build_parser().parse_args(argv)
    except _UsageError:
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"endoclass: error: {exc}", file=sys.stderr)
        return 2


def outcome(capsys, run, argv):
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dispatch_matches_the_full_parser(capsys):
    cases = argv_lists_in_this_file()
    assert len(cases) > 60
    cases += [argv for argv in DISPATCH_EDGE_CASES if argv not in cases]
    for argv in cases:
        assert outcome(capsys, main, argv) == outcome(capsys, full_parser_main, argv), argv
        try:
            expected = vars(build_parser().parse_args(argv))
        except (_UsageError, SystemExit):
            capsys.readouterr()
            continue
        assert vars(_parse(argv)) == expected, argv  # the namespace the command gets


def test_leftovers_are_reported_with_the_top_level_usage(capsys):
    assert main(ISO_F5 + ["--bogus"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: endoclass [-h] [--version]")
    assert err.endswith("endoclass: error: unrecognized arguments: --bogus\n")


def test_table_checks_endo_commutativity_once(capsys, monkeypatch):
    from endoclass import algebra, cli
    calls = []
    check = algebra.is_endo_commutative_straight

    def counting(sp):
        calls.append(sp)
        return check(sp)
    monkeypatch.setattr(algebra, "is_endo_commutative_straight", counting)
    monkeypatch.setattr(cli, "is_endo_commutative_straight", counting)
    assert main(["table", "--field", "F5", "--algebra=0,1,1,0,-1,2"]) == 0
    assert capsys.readouterr().out.endswith("rank 2, endo-commutative: yes, type II1\n")
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the JSON writer
# ---------------------------------------------------------------------------

def dumped(obj):
    """The bytes every JSON command prints: json.dumps with a version."""
    return json.dumps({**obj, "version": __version__}, sort_keys=True, indent=2) + "\n"


def json_commands(spec):
    """One argv of each JSON command the field takes."""
    field = ["--field", spec]
    argvs = [["fields", *field], ["table", *field, "--algebra", "0,1,1,0,1,1", "--format", "json"]]
    if spec == "Q":
        argvs.append(["equiv", *field, "--relation", "sim1", "--test", "8", "2"])
    elif spec == "F2(X)":
        argvs += [["equiv", *field, "--relation", "sim3", "--test", "X", "X+1"],
                  ["equiv", *field, "--relation", "sim3", "--reps"],
                  ["equiv", *field, "--relation", "sim2", "--test", "X", "1",
                   "--degree-bound", "3"]]
    else:
        argvs += [["enumerate", *field, "--format", "json"],
                  ["enumerate", *field, "--format", "json", "--subclass", "3"],
                  ["iso", *field, "--lhs", "0,1,1,0,1,1", "--rhs", "0,1,1,0,1,0"],
                  ["equiv", *field, "--relation", "sim1", "--test", "1", "1"],
                  ["equiv", *field, "--relation", "sim1", "--reps"],
                  ["classes", *field], ["verify", *field]]
    return argvs


@pytest.mark.parametrize("spec", ["F2", "F3", "F4", "F16", "F17", "F5^1/x+2", "Q", "F2(X)"])
def test_every_json_command_prints_what_json_dumps_prints(capsys, monkeypatch, spec):
    from endoclass import cli
    docs = []

    def recording(obj):
        docs.append(obj)
        _emit_json(obj)
    monkeypatch.setattr(cli, "_emit_json", recording)
    field = field_from_spec(spec)
    for argv in json_commands(spec):
        docs.clear()
        main(argv)
        out = capsys.readouterr().out
        assert len(docs) == 1, argv
        # verify and classes pass the classes as text; the library gives the objects
        if argv[0] == "verify":
            expected = verify_classification(field).to_json_dict()
        elif argv[0] == "classes":
            partition = iso_classes(enumerate_type_ii1(field))
            expected = {"field": field.spec_string(),
                        "classes": [c.to_json(i) for i, c in enumerate(partition)]}
        else:
            expected = docs[0]
        assert out == dumped(expected), argv


def test_verify_json_is_the_report_dict(capsys, monkeypatch):
    # a failing report too: unmatched classes, failure lines, a null class
    import endoclass.classify as classify
    F3 = field_from_spec("F3")
    assert main(["verify", "--field", "F3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.pop("version") == __version__
    assert doc == verify_classification(F3).to_json_dict()
    families = classify.theorem_families
    monkeypatch.setattr(classify, "theorem_families",
                        lambda field: families(field)[:-1] + families(field)[:1])
    assert main(["verify", "--field", "F3"]) == 1
    out = capsys.readouterr().out
    report = verify_classification(F3)
    assert not report.verdict and out == dumped(report.to_json_dict())


def test_classes_json_of_an_empty_partition(capsys, monkeypatch):
    from endoclass import cli
    monkeypatch.setattr(cli, "iso_classes", lambda algebras: [])
    assert main(["classes", "--field", "F3"]) == 0
    assert capsys.readouterr().out == dumped({"field": "F3", "classes": []})


class ShortWrites:
    """A binary stdout whose write takes at most `limit` bytes a call."""

    def __init__(self, limit):
        self.limit, self.data, self.offered = limit, bytearray(), []

    def write(self, data):
        self.offered.append(len(data))
        taken = bytes(data[:self.limit])
        self.data += taken
        return len(taken)


class TextStdout:
    def __init__(self, binary):
        self.buffer = binary

    def flush(self):
        pass


@pytest.mark.parametrize("limit", [1, 4093, _PIECE, 3 * _PIECE])
def test_short_writes_are_written_again_from_where_they_stopped(capsys, monkeypatch, limit):
    field = field_from_spec("F17")
    verify_doc = verify_classification(field).to_json_dict()
    binary = ShortWrites(limit)
    monkeypatch.setattr(sys, "stdout", TextStdout(binary))
    assert main(["verify", "--field", "F17"]) == 0
    big = {"rows": [[str(i)] * 9 for i in range(8000)]}  # one value of about 0.5 MB
    _emit_json(big)
    monkeypatch.undo()
    assert binary.data.decode() == dumped(verify_doc) + dumped(big)
    assert max(binary.offered) <= _PIECE
    assert "verdict: pass" in capsys.readouterr().err
