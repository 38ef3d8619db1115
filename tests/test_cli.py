import json
import os
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace, _SubParsersAction
from pathlib import Path

import pytest

from sgring import cli
from sgring.cli import (
    EXIT_BOUND,
    EXIT_CONFLICT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PIPE,
    _resolve_semigroup,
    main,
    parse_input,
    parse_job,
    theorem_conflict,
)
import sgring
from sgring.errors import Deadline, DeadlineExceeded, InputError
from sgring.theorems import HypothesisCheck, TheoremReport

# stdout of `sgring fixtures`; an intended output change updates this file
FIXTURES_JSON = Path(__file__).parent / "data" / "fixtures.json"
# argv, exit code and stdout of the construction commands (glue, star-glue,
# extend, join) in both formats; an intended output change updates this file
CONSTRUCTIONS = json.loads(
    (Path(__file__).parent / "data" / "constructions.json").read_text())
# the same for `analyze --numerical ... --format json` on the closure
# regressions, the glued instances and <105,252,119,136>
ANALYZE = json.loads((Path(__file__).parent / "data" / "analyze.json").read_text())
# argv, exit code, stdout and stderr of analyze, betti, pf, sifr, hilbert,
# verify and fixtures reports and of every --help text; an intended output
# change updates this file
REPORTS = json.loads((Path(__file__).parent / "data" / "reports.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# -- input document validation ----------------------------------------------

def test_parse_job_accepts_valid_documents():
    job = parse_job({"schema_version": "1", "type": "numerical",
                     "generators": [["3"], ["5"], ["7"]], "params": {}})
    assert job.type == "numerical"
    assert job.generators == ((3,), (5,), (7,))
    job = parse_job({"schema_version": "1", "type": "affine",
                     "generators": [["3", "0"], ["0", "2"]], "params": {"k": True}})
    assert job.generators == ((3, 0), (0, 2))
    assert job.params == {"k": True}


def test_parse_job_error_paths_are_json_pointers():
    cases = [
        ([], "/: expected an object"),
        ({}, "/schema_version: required key missing"),
        ({"schema_version": "2", "type": "numerical",
          "generators": [["3"]], "params": {}},
         "/schema_version: unsupported version '2'"),
        ({"schema_version": "1", "type": "modular",
          "generators": [["3"]], "params": {}},
         "/type: must be 'numerical' or 'affine'"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [], "params": {}},
         "/generators: expected a nonempty array"),
        ({"schema_version": "1", "type": "numerical",
          "generators": "35", "params": {}},
         "/generators: expected a nonempty array"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], "5"], "params": {}},
         "/generators/1: expected a nonempty array"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], ["-5"]], "params": {}},
         "/generators/1/0: expected a decimal string of a nonnegative integer"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], [5]], "params": {}},
         "/generators/1/0: expected a decimal string of a nonnegative integer"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], ["\u00b2"]], "params": {}},
         "/generators/1/0: expected a decimal string of a nonnegative integer"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], ["\u0665"]], "params": {}},
         "/generators/1/0: expected a decimal string of a nonnegative integer"),
        ({"schema_version": "1", "type": "affine",
          "generators": [["3", "0"], ["5"]], "params": {}},
         "/generators/1: expected 2 entries, got 1"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3", "0"]], "params": {}},
         "/generators/0: numerical generators are single-entry rows"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"]], "params": []},
         "/params: expected an object"),
    ]
    for doc, message in cases:
        with pytest.raises(InputError) as exc:
            parse_job(doc)
        assert str(exc.value) == message


def test_parse_input_reads_files_and_rejects_bad_json(tmp_path):
    good = tmp_path / "job.json"
    good.write_text(json.dumps({"schema_version": "1", "type": "numerical",
                                "generators": [["3"], ["5"]], "params": {}}))
    assert parse_input(str(good)).generators == ((3,), (5,))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        parse_input(str(bad))
    with pytest.raises(InputError):
        parse_input(str(tmp_path / "missing.json"))


# -- catalogued command lines -----------------------------------------------

def test_analyze_numerical_tangent_cone(capsys):
    code, doc = run_json(capsys, "analyze", "--numerical", "3,5,7", "--tangent-cone")
    assert code == EXIT_OK
    assert doc["schema_version"] == "1"
    assert doc["type"] == "numerical"
    assert doc["generators"] == [["3"], ["5"], ["7"]]
    assert doc["result"]["ideal"] == ["x2^2 - x1*x3", "x1^3*x2 - x3^2", "x1^4 - x2*x3"]
    (verdict,) = doc["result"]["verdicts"]
    assert verdict["check"] == "cm-tangent-cone"
    assert verdict["result"] is True
    assert verdict["conflict"] is False


def test_glue_projective_closure_not_acm(capsys):
    code, doc = run_json(capsys, "glue", "--left", "3,5", "--right", "7,12",
                         "--b", "1,1", "--a", "1,1", "--projective")
    assert code == EXIT_OK  # a false verdict is an answer, not a conflict
    assert doc["result"]["glued_generators"] == ["57", "95", "56", "96"]
    assert doc["result"]["p"] == "8" and doc["result"]["q"] == "19"
    assert doc["result"]["star"] is False
    (verdict,) = doc["result"]["verdicts"]
    assert verdict["check"] == "acm-projective-closure"
    assert verdict["result"] is False
    assert verdict["conflict"] is False
    names = [c["name"] for c in verdict["cross_checks"]]
    assert names == ["homogenized-recompute", "closure-depth"]
    assert verdict["cross_checks"][1]["result"] is False


def test_analyze_affine_with_an_off_axis_ray(capsys):
    # its one relation x1^8*x3 - x2^6 lies at (12, 24): a hypersurface
    code, doc = run_json(capsys, "analyze", "--affine", "1 3;2 4;4 0")
    assert code == EXIT_OK
    assert doc["result"]["betti_totals"] == ["1", "1"]
    assert doc["result"]["resolution"]["cm"] is True
    assert doc["result"]["resolution"]["gorenstein"] is True


def test_betti_command(capsys):
    code, doc = run_json(capsys, "betti", "--numerical", "3,5,7")
    assert code == EXIT_OK
    assert doc["result"]["totals"] == ["1", "3", "2"]
    assert doc["result"]["pd"] == "2"
    assert doc["result"]["certified"] is True
    assert doc["result"]["rows"][1] == [["10"], ["12"], ["14"]]
    assert doc["result"]["top_degrees"] == [["17"], ["19"]]


def test_betti_takes_no_bound(capsys):
    # every scan box is the certified one: a bound is an unknown option
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--numerical", "3,5,7", "--bound", "19"])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_INPUT and captured.out == ""
    assert "unrecognized arguments: --bound 19" in captured.err


def test_pf_of_the_whole_numbers_agrees(capsys):
    # Ap(N, 1) = {0}, and 0 is maximal in it: PF(N) = {-1} by both reads
    code, doc = run_json(capsys, "pf", "--numerical", "1", "--direct")
    assert code == EXIT_OK
    assert doc["result"]["pf"] == doc["result"]["pf_direct"] == [["-1"]]
    assert doc["result"]["direct_agrees"] is True


def test_an_oversized_betti_box_is_refused_before_any_board(capsys):
    # <80021, 80023, 80051>: a scan box of 4.3e8 bits, just past the cap, so
    # one board of it is a 54 MB int; 218 MiB were traced when the grid's
    # mask was built before the check
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "betti", "--numerical", "80021,80023,80051")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (
        EXIT_BOUND, "", "resource bound: scan box too large for the scan boards\n")
    assert peak < 32 << 20
    code, out, err = run(capsys, "betti", "--numerical", ",".join(map(str, range(17, 34))))
    assert (code, out, err) == (
        EXIT_BOUND, "", "resource bound: 17 generators exceed the subset-enumeration limit\n")


def test_affine_rows_take_spaces_or_commas(capsys):
    plain = run(capsys, "betti", "--affine", "3 0;5 0;0 1;1 3;2 3")
    assert plain[0] == EXIT_OK
    for spelling in ("3 0; 5 0; 0 1; 1 3; 2 3", " 3,0 ;5, 0;0  1;1\t3;2 , 3 "):
        assert run(capsys, "betti", "--affine", spelling) == plain, spelling
    # an empty entry is not a separator
    code, out, err = run(capsys, "betti", "--affine", "3 0; 3,,0")
    assert (code, out, err) == (
        EXIT_INPUT, "",
        "input error: --affine: expected integers separated by spaces or commas, "
        "got ' 3,,0'\n")


def test_pf_command_with_direct_cross_check(capsys):
    code, doc = run_json(capsys, "pf", "--numerical", "3,5,7", "--direct")
    assert code == EXIT_OK
    assert doc["params"]["direct"] is True
    assert doc["result"]["pf"] == [["2"], ["4"]]
    assert doc["result"]["pf_direct"] == [["2"], ["4"]]
    assert doc["result"]["direct_agrees"] is True
    code, doc = run_json(capsys, "pf", "--affine", "2 0;3 0;0 2;0 3;1 1", "--direct")
    assert code == EXIT_OK
    assert doc["result"]["pf"] == [["1", "2"], ["2", "1"]]
    assert doc["result"]["direct_agrees"] is True
    # matrix A: the derived box (12, 3) holds every gap, so PF = {(7, 2)}
    code, doc = run_json(capsys, "pf", "--affine", "3 0;5 0;0 1;1 3;2 3", "--direct")
    assert code == EXIT_OK
    assert doc["result"]["pf_direct"] == [["7", "2"]]
    assert doc["result"]["direct_agrees"] is True


def test_pf_box_scan_honours_deadline(capsys):
    # the derived box of <1000, 1001> on one axis has about 10^6 points, and
    # its direct gap scan runs for seconds without a deadline
    start = time.monotonic()
    code, out, err = run(capsys, "pf", "--affine", "1000;1001",
                         "--direct", "--deadline", "0.5")
    assert code == EXIT_BOUND
    assert out == ""
    assert "deadline" in err
    assert time.monotonic() - start < 3


def test_pf_affine_unbounded_gaps_is_a_resource_bound(capsys):
    code, out, err = run(capsys, "pf", "--affine", "6 0;10 0;0 2;2 6;4 6;6 9",
                         "--direct")
    assert code == EXIT_BOUND
    assert out == ""
    assert err.startswith("resource bound: gap set is infinite")


def test_sifr_command(capsys):
    code, doc = run_json(capsys, "sifr", "--numerical", "4,6,9")
    assert code == EXIT_OK
    assert doc["result"]["holds"] is False
    assert doc["result"]["level"] == "1"
    assert doc["result"]["pair"] == [["12"], ["18"]]
    code, doc = run_json(capsys, "sifr", "--numerical", "3,5,7")
    assert doc["result"]["holds"] is True
    assert doc["result"]["pair"] is None


def test_hilbert_command(capsys):
    code, doc = run_json(capsys, "hilbert", "--numerical", "3,5,7", "--upto", "8")
    assert code == EXIT_OK
    assert doc["result"]["values"] == ["1"] + ["3"] * 8
    assert doc["result"]["nondecreasing"] is True
    assert doc["result"]["stabilization"] == "1"


def test_hilbert_nondecreasing_covers_the_whole_function(capsys):
    # Herzog-Waldi: H = 1, 10, 9, ..., so a window that stops at index 1
    # must still report the decrease that follows it
    code, doc = run_json(capsys, "hilbert", "--numerical",
                         "30,35,42,47,148,153,157,169,181,193", "--upto", "1")
    assert code == EXIT_OK
    assert doc["result"]["values"] == ["1", "10"]
    assert doc["result"]["nondecreasing"] is False


def test_hilbert_command_at_large_generators(capsys):
    # the Apery table of the powers of M has 205 rows here, whatever the
    # size of the integers
    code, doc = run_json(capsys, "hilbert", "--numerical", "1009,1013,1019",
                         "--deadline", "5")
    assert code == EXIT_OK
    assert doc["result"]["stabilization"] == "204"
    assert doc["result"]["values"][-1] == "1009"
    assert doc["result"]["values"][-2] != "1009"


HERZOG_WALDI = "30,35,42,47,148,153,157,169,181,193"


def test_betti_certifies_the_herzog_waldi_table(capsys):
    # ten generators: the scan is bound by the homology of its divisor
    # complexes (up to 1,023 faces each), not by its box
    code, doc = run_json(capsys, "betti", "--numerical", HERZOG_WALDI)
    assert code == EXIT_OK and doc["result"]["certified"] is True
    totals = [int(t) for t in doc["result"]["totals"]]
    assert totals == [1, 49, 272, 742, 1232, 1330, 944, 427, 112, 13]
    assert sum((-1) ** i * t for i, t in enumerate(totals)) == 0
    gens = [int(g) for g in HERZOG_WALDI.split(",")]
    assert ([int(d) - sum(gens) for d, in doc["result"]["top_degrees"]]
            == sgring.NumericalSemigroup(gens).pf_numeric())


def test_join_command_runs_the_sifr_statement(capsys):
    code, doc = run_json(capsys, "join", "--left", "2,3", "--right", "6,8,9")
    assert code == EXIT_OK
    assert doc["type"] == "affine"
    assert doc["generators"][0] == ["2", "0"]
    assert doc["result"]["check"] == "join-sifr"
    assert doc["result"]["computed"] is False
    assert doc["result"]["agree"] is True
    assert any("level-1 degrees" in n for n in doc["result"]["notes"])


def test_extend_command(capsys):
    code, doc = run_json(capsys, "extend", "--numerical", "3,5",
                         "--l", "2", "--u", "2,1")
    assert code == EXIT_OK
    assert doc["generators"] == [["6"], ["10"], ["11"]]
    assert doc["result"]["computed"]["pf"] == [["25"]]
    assert doc["result"]["computed"]["prec-symmetric"] is True
    assert doc["result"]["agree"] is True
    assert "box" not in doc["params"]  # the gap-scan box is derived, not given
    code, out, err = run(capsys, "extend", "--numerical", "3,5", "--affine",
                         "3 0;5 0;0 1;1 3;2 3", "--l", "2", "--u", "2,1")
    assert (code, out, err) == (
        EXIT_INPUT, "",
        "input error: extend: give the base via exactly one of --numerical, --affine\n")


def test_star_glue_requires_a_star_gluing(capsys):
    code, out, err = run(capsys, "star-glue", "--left", "3,5", "--right", "7,12",
                         "--b", "1,1", "--a", "1,1")
    assert code == EXIT_INPUT
    assert "not a star gluing" in err
    code, doc = run_json(capsys, "star-glue", "--left", "3,5,7", "--right", "9,11",
                         "--b", "0,0,4", "--a", "2,1")
    assert code == EXIT_OK
    assert doc["result"]["check"] == "glued-tangent-cone"
    assert doc["result"]["agree"] is True
    assert any("discrepancy" in n for n in doc["result"]["notes"])


def test_verify_and_fixtures_commands(capsys):
    code, doc = run_json(capsys, "verify", "extension-pf")
    assert code == EXIT_OK
    assert doc["result"]["conflicts"] == "0"
    labels = [r["label"] for r in doc["result"]["reports"]]
    assert "numerical-3-5-doubled" in labels
    code, doc = run_json(capsys, "fixtures")
    assert code == EXIT_OK
    assert doc["params"]["count"] == "21"
    assert doc["result"]["conflicts"] == "0"
    assert doc["result"]["agreements"] == "14"
    for rep in doc["result"]["reports"]:
        if not rep["agree"]:  # every disagreement must be excused
            assert rep["hypotheses_hold"] is False


def test_input_file_source(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "schema_version": "1", "type": "numerical",
        "generators": [["3"], ["5"], ["7"]], "params": {}}))
    code, doc = run_json(capsys, "betti", "--input", str(path))
    assert code == EXIT_OK
    assert doc["result"]["totals"] == ["1", "3", "2"]
    path.write_text(json.dumps({
        "schema_version": "1", "type": "affine",
        "generators": [["2", "0"], ["0", "2"], ["1", "1"]], "params": {}}))
    code, doc = run_json(capsys, "betti", "--input", str(path))
    assert code == EXIT_OK
    assert doc["type"] == "affine" and doc["result"]["totals"] == ["1", "1"]


# -- output contract ---------------------------------------------------------

def test_reports_reparse_under_the_input_schema(capsys):
    commands = [
        ("analyze", "--numerical", "3,5,7"),
        ("glue", "--left", "3,5", "--right", "7,12", "--b", "1,1", "--a", "1,1"),
        ("betti", "--affine", "3 0;5 0;0 2;1 1"),
        ("pf", "--numerical", "4,6,9"),
        ("sifr", "--numerical", "6,10,15"),
        ("hilbert", "--numerical", "4,6,9"),
        ("join", "--left", "2,3", "--right", "3,4"),
        ("extend", "--numerical", "4,5", "--l", "3", "--u", "1,2"),
        ("verify", "join-sifr"),
    ]
    for argv in commands:
        code, doc = run_json(capsys, *argv)
        assert code == EXIT_OK, argv
        job = parse_job(doc)  # report documents stay valid input documents
        assert job.type == doc["type"]


def test_json_output_bytes_are_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "fixtures")
        assert code == EXIT_OK
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0] == FIXTURES_JSON.read_text()
    assert runs[0].endswith("\n")
    assert json.dumps(json.loads(runs[0]), sort_keys=True,
                      separators=(",", ":")) + "\n" == runs[0]


@pytest.mark.parametrize("case", CONSTRUCTIONS,
                         ids=[c["name"] for c in CONSTRUCTIONS])
def test_construction_commands_match_pinned_output(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out == case["stdout"]


@pytest.mark.parametrize("case", ANALYZE, ids=[c["name"] for c in ANALYZE])
def test_analyze_matches_pinned_output(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out == case["stdout"]


@pytest.mark.parametrize("case", REPORTS, ids=[c["name"] for c in REPORTS])
def test_reports_and_help_match_pinned_output(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(case["argv"])
    except SystemExit as ex:  # --help exits from the parser
        code = ex.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def _commands(parser) -> dict:
    return next(a.choices for a in parser._actions if isinstance(a, _SubParsersAction))


def test_a_command_line_builds_only_its_own_arguments(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    full = cli.build_parser()
    for name in cli.COMMANDS:
        one = cli.build_parser(name)
        assert one.format_help() == full.format_help()
        assert _commands(one)[name].format_help() == _commands(full)[name].format_help()
        # the others keep their name and help line, and only -h
        assert all([a.dest for a in p._actions] == ["help"]
                   for other, p in _commands(one).items() if other != name)
    # a stray word is refused by the top level, whose usage lists every command
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--numerical", "3,5", "stray"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: sgring [-h]\n              {" + ",".join(cli.COMMANDS) + "}\n"
        "              ...\nsgring: error: unrecognized arguments: stray\n")


def test_thread_count_does_not_change_output(capsys):
    _, serial, _ = run(capsys, "fixtures", "--threads", "1")
    _, pooled, _ = run(capsys, "fixtures", "--threads", "4")
    assert serial == pooled


def test_text_format(capsys):
    code, out, err = run(capsys, "analyze", "--numerical", "3,5,7",
                         "--tangent-cone", "--format", "text")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "generators: (3, 5, 7)"
    assert "[cm-tangent-cone] verdict=true" in out
    assert "cross-check order-additivity" in out


# -- exit codes and environment ----------------------------------------------

def test_input_error_exit_code(capsys):
    code, out, err = run(capsys, "analyze", "--numerical", "4,6")
    assert code == EXIT_INPUT
    assert err == "input error: gcd of generators (4, 6) must be 1\n"
    code, out, err = run(capsys, "glue", "--left", "3,5", "--right", "9,11",
                         "--b", "3,0", "--a", "1,0")
    assert code == EXIT_INPUT
    assert "generator" in err
    code, out, err = run(capsys, "analyze", "--numerical", "3,x")
    assert (code, out, err) == (EXIT_INPUT, "", "input error: --numerical: expected "
                                "comma-separated integers, got '3,x'\n")
    code, out, err = run(capsys, "hilbert", "--affine", "2 0;0 2;1 1")
    assert (code, out, err) == (EXIT_INPUT, "", "input error: hilbert: tangent-cone "
                                "Hilbert functions are numerical-only\n")


def test_usage_errors_exit_two(capsys):
    ids = ("glued-basis-homogeneous", "glued-closure-acm", "glued-tangent-cone",
           "glued-closure-gorenstein", "extension-pf", "join-sifr")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-theorem"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("sgring verify: error: argument theorem: invalid choice: "
                        "'no-such-theorem' (choose from "
                        + ", ".join(f"'{i}'" for i in ids) + ")\n")
    assert "{" + ",".join(ids) + "}" in err  # the usage line
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.count("{" + ",".join(ids) + "}") == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_deadline_flag_and_env(capsys, monkeypatch):
    code, out, err = run(capsys, "analyze", "--numerical", "87,145,203,252,308",
                         "--deadline", "0.001")
    assert code == EXIT_BOUND
    assert err.startswith("resource bound:")
    monkeypatch.setenv("SGRING_DEADLINE", "0.001")
    code, out, err = run(capsys, "analyze", "--numerical", "87,145,203,252,308")
    assert code == EXIT_BOUND
    monkeypatch.setenv("SGRING_DEADLINE", "abc")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5")
    assert (code, out, err) == (EXIT_INPUT, "",
                                "input error: SGRING_DEADLINE: expected a number, got 'abc'\n")
    # an explicit flag overrides the environment
    code, doc = run_json(capsys, "analyze", "--numerical", "3,5,7",
                         "--tangent-cone", "--deadline", "60")
    assert code == EXIT_OK


def test_deadline_reaches_the_constructor(capsys, tmp_path):
    # Ap(S, 300007) is built under the command's deadline
    code, out, err = run(capsys, "hilbert", "--numerical", "300007,300011,300017",
                         "--deadline", "0.01")
    assert (code, out, err) == (EXIT_BOUND, "", "resource bound: cooperative deadline exceeded\n")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"schema_version": "1", "type": "numerical",
                               "generators": [["3"], ["5"]], "params": {}}))
    for source in ({"numerical": "3,5"}, {"input": str(job)}):
        args = Namespace(**{"numerical": None, "affine": None, "input": None, **source})
        assert _resolve_semigroup(args).generators == (3, 5)
        with pytest.raises(DeadlineExceeded), Deadline(-1.0):
            _resolve_semigroup(args)
    # an affine semigroup checks minimality under the deadline
    args = Namespace(numerical=None, affine="2 0;0 2;1 1", input=None)
    assert _resolve_semigroup(args).generators == ((2, 0), (0, 2), (1, 1))
    with Deadline(60):
        assert _resolve_semigroup(args).generators == ((2, 0), (0, 2), (1, 1))
    with pytest.raises(DeadlineExceeded), Deadline(-1.0):
        _resolve_semigroup(args)


@pytest.mark.parametrize("argv", [
    # glued multiplicity 600018: the build alone takes over a second
    ["glue", "--left", "3,5", "--right", "100003,100019", "--b", "3,0", "--a", "2,0"],
    # Ap(S, 300007) of the left factor is built before the gluing is rejected
    ["glue", "--left", "300007,300011,300017", "--right", "2,3", "--b", "1,0,0",
     "--a", "1,0"],
    # the affine minimality search
    ["sifr", "--affine", "2 0;0 2;1 1;2000001 0"],
    # the affine factors that embed_axis builds
    ["join", "--left", "3,10000001,10000003", "--right", "2,3"],
    # the affine base that ExtensionSpec converts from the numerical one
    ["extend", "--numerical", "3,10000001,10000003", "--l", "2", "--u", "1,0,0"],
])
def test_deadline_reaches_the_constructions(capsys, argv):
    start = time.monotonic()
    code, out, err = run(capsys, *argv, "--deadline", "0.05")
    assert (code, out, err) == (EXIT_BOUND, "", "resource bound: cooperative deadline exceeded\n")
    assert time.monotonic() - start < 2


def test_nan_deadline_is_an_input_error(capsys, monkeypatch):
    # NaN compares false with every time, so it would switch the budget off
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5", "--deadline", "nan")
    assert (code, out, err) == (EXIT_INPUT, "", "input error: --deadline: NaN is not a deadline\n")
    monkeypatch.setenv("SGRING_DEADLINE", "nan")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5")
    assert (code, out, err) == (EXIT_INPUT, "",
                                "input error: SGRING_DEADLINE: NaN is not a deadline\n")
    # the flag wins over the variable; inf never runs out, a negative budget already has
    _, plain, _ = run(capsys, "hilbert", "--numerical", "3,5", "--deadline", "60")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5", "--deadline", "inf")
    assert (code, out, err) == (EXIT_OK, plain, "")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5", "--deadline", "-1")
    assert (code, out, err) == (EXIT_BOUND, "", "resource bound: cooperative deadline exceeded\n")


def test_an_expired_command_leaves_no_deadline_behind(capsys):
    # the first command's scope closes with it: the second runs as in a new process
    src = str(Path(sgring.__file__).resolve().parent.parent)
    fresh = subprocess.run([sys.executable, "-m", "sgring.cli", "hilbert", "--numerical", "3,5"],
                           env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, timeout=60, check=True).stdout
    code, out, err = run(capsys, "hilbert", "--numerical", "300007,300011,300017",
                         "--deadline", "0.01")
    assert (code, out, err) == (EXIT_BOUND, "", "resource bound: cooperative deadline exceeded\n")
    assert run(capsys, "hilbert", "--numerical", "3,5") == (EXIT_OK, fresh, "")


def test_rendering_counts_against_the_deadline(capsys, monkeypatch):
    # a report rendered after its deadline is not written: exit 3, no stdout
    fast = cli.jsonable

    def slow(value):
        time.sleep(0.3)
        return fast(value)

    monkeypatch.setattr(cli, "jsonable", slow)
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5,7", "--upto", "8",
                         "--deadline", "0.2")
    assert (code, out, err) == (EXIT_BOUND, "", "resource bound: cooperative deadline exceeded\n")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5,7", "--upto", "8",
                         "--deadline", "60")
    assert code == EXIT_OK and out and err == ""


def test_jsonable_converts_runs_of_ints_and_keeps_bools():
    # a run of plain ints crosses a 4096-value chunk; bools and None stay
    values = list(range(5000)) + [True, None, 7, (8, False), {9: [10]}] + list(range(3))
    assert cli.jsonable(values) == (
        [str(v) for v in range(5000)]
        + [True, None, "7", ["8", False], {"9": ["10"]}, "0", "1", "2"])
    # each chunk checks the deadline, the first one included
    with pytest.raises(DeadlineExceeded), Deadline(-1):
        cli.jsonable(list(range(10)))


def test_a_long_report_is_cut_while_it_renders():
    # the handler takes about 0.1 s; turning 6 M values into JSON takes
    # seconds, and the deadline is checked every 4096 of them
    src = str(Path(sgring.__file__).resolve().parent.parent)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sgring.cli", "hilbert", "--numerical", "3,5,7",
                           "--upto", "6000000", "--deadline", "0.2"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60)
    wall = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (EXIT_BOUND, b"")
    assert wall < 1.5, wall


class ClosedStdout:
    """A stdout whose reader has gone away; its descriptor is /dev/null."""

    def __init__(self):
        self.fd = os.open(os.devnull, os.O_WRONLY)

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch):
    closed = ClosedStdout()
    monkeypatch.setattr(sys, "stdout", closed)
    try:
        for fmt in ("json", "text"):
            assert main(["hilbert", "--numerical", "3,5,7", "--format", fmt]) == EXIT_PIPE == 141
    finally:
        os.close(closed.fd)
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_exits_141_in_a_process():
    # the read end is closed before the command starts, so its first write fails
    src = str(Path(sgring.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "sgring.cli", "hilbert",
                               "--numerical", "3,5,7", "--format", "text"],
                              env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_PIPE, b"")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_reader_leaving_mid_report_exits_141_unbuffered(fmt):
    # about 400 KB, past the pipe's capacity: the write is under way when the
    # reader leaves, and an unbuffered stdout takes a part of it
    src = str(Path(sgring.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-m", "sgring.cli", "hilbert",
                           "--numerical", "3,5,7", "--upto", "100000", "--format", fmt],
                          env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED="1"),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(60)
    assert (len(head), code, err) == (10, EXIT_PIPE, b"")


def test_threads_env(capsys, monkeypatch):
    # SGRING_THREADS is not read: even a malformed value changes nothing
    _, plain, _ = run(capsys, "hilbert", "--numerical", "3,5")
    monkeypatch.setenv("SGRING_THREADS", "abc")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5")
    assert (code, out, err) == (EXIT_OK, plain, "")
    code, out, err = run(capsys, "hilbert", "--numerical", "3,5", "--threads", "0")
    assert code == EXIT_INPUT and err == "input error: --threads: must be at least 1\n"


def test_theorem_conflict_predicate():
    agreeing = TheoremReport(
        theorem="t", instance="i",
        hypotheses_checked=(HypothesisCheck("h", True),),
        predicted=True, computed=True)
    assert not theorem_conflict(agreeing)
    excused = TheoremReport(
        theorem="t", instance="i",
        hypotheses_checked=(HypothesisCheck("h", False),),
        predicted=True, computed=False)
    assert not theorem_conflict(excused)
    violated = TheoremReport(
        theorem="t", instance="i",
        hypotheses_checked=(HypothesisCheck("h", True),),
        predicted=True, computed=False)
    assert theorem_conflict(violated)
    flagged = TheoremReport(
        theorem="t", instance="i",
        hypotheses_checked=(HypothesisCheck("h", True),),
        predicted=True, computed=True,
        notes=("CONFLICT: engine disagreement",))
    assert theorem_conflict(flagged)
