import json
import time
from pathlib import Path

import pytest

from sgring.cli import (
    EXIT_BOUND,
    EXIT_CONFLICT,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_input,
    parse_job,
    theorem_conflict,
)
from sgring.errors import InputError
from sgring.theorems import HypothesisCheck, TheoremReport

# stdout of `sgring fixtures`; an intended output change updates this file
FIXTURES_JSON = Path(__file__).parent / "data" / "fixtures.json"


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
          "generators": [["3"], ["-5"]], "params": {}},
         "/generators/1/0: expected a decimal string of a nonnegative integer"),
        ({"schema_version": "1", "type": "numerical",
          "generators": [["3"], [5]], "params": {}},
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


def test_betti_command(capsys):
    code, doc = run_json(capsys, "betti", "--numerical", "3,5,7")
    assert code == EXIT_OK
    assert doc["result"]["totals"] == ["1", "3", "2"]
    assert doc["result"]["pd"] == "2"
    assert doc["result"]["certified"] is True
    assert doc["result"]["rows"][1] == [["10"], ["12"], ["14"]]
    assert doc["result"]["top_degrees"] == [["17"], ["19"]]


def test_betti_bound_is_checked_for_sign_and_dimension(capsys):
    # a negative bound, or more entries than the ambient dimension, is an
    # input error (exit 2), never a crash or a silently truncated box
    for bound in ("-5", "-1", "1,2,3"):
        code, out, err = run(capsys, "betti", "--numerical", "3,5,7", f"--bound={bound}")
        assert code == EXIT_INPUT, (bound, err)
        assert err.startswith("input error: degree bound"), (bound, err)
    code, out, err = run(capsys, "betti", "--affine", "3 0;5 0;0 1;1 3;2 3", "--bound=18")
    assert code == EXIT_INPUT, err
    code, doc = run_json(capsys, "betti", "--numerical", "3,5,7", "--bound", "19")
    assert code == EXIT_OK
    assert doc["params"]["bound"] == "19" and doc["result"]["certified"] is True


def test_betti_bound_below_the_certified_box_is_a_resource_bound(capsys):
    # <3, 5, 7> has its top Betti degree at 19, the edge of its certified box
    code, out, err = run(capsys, "betti", "--numerical", "3,5,7", "--bound", "18")
    assert code == EXIT_BOUND and out == ""
    assert "degree bound (18,) does not contain the certified box (19,)" in err


def test_pf_command_with_direct_cross_check(capsys):
    code, doc = run_json(capsys, "pf", "--numerical", "3,5,7", "--box", "20")
    assert code == EXIT_OK
    assert doc["result"]["pf"] == [["2"], ["4"]]
    assert doc["result"]["pf_direct"] == [["2"], ["4"]]
    assert doc["result"]["direct_agrees"] is True
    code, doc = run_json(capsys, "pf", "--affine", "2 0;3 0;0 2;0 3;1 1",
                         "--box", "8,8")
    assert code == EXIT_OK
    assert doc["result"]["pf"] == [["1", "2"], ["2", "1"]]
    assert doc["result"]["direct_agrees"] is True


def test_pf_box_scan_honours_deadline(capsys):
    # the direct gap scan of this box runs for seconds without a deadline
    start = time.monotonic()
    code, out, err = run(capsys, "pf", "--affine", "3 0;5 0;0 1;1 3;2 3",
                         "--box", "900,900", "--deadline", "0.5")
    assert code == EXIT_BOUND
    assert out == ""
    assert "deadline" in err
    assert time.monotonic() - start < 3


def test_pf_affine_unbounded_gaps_is_a_resource_bound(capsys):
    code, out, err = run(capsys, "pf", "--affine", "6 0;10 0;0 2;2 6;4 6;6 9",
                         "--box", "20,20")
    assert code == EXIT_BOUND
    assert out == ""
    assert err.startswith("resource bound: gap set not certifiably finite")


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


def test_hilbert_command_at_large_generators(capsys):
    # the Apery table of the powers of M has 205 rows here, whatever the
    # size of the integers
    code, doc = run_json(capsys, "hilbert", "--numerical", "1009,1013,1019",
                         "--deadline", "5")
    assert code == EXIT_OK
    assert doc["result"]["stabilization"] == "204"
    assert doc["result"]["values"][-1] == "1009"
    assert doc["result"]["values"][-2] != "1009"


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


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-theorem"])
    assert exc.value.code == 2
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
    # an explicit flag overrides the environment
    code, doc = run_json(capsys, "analyze", "--numerical", "3,5,7",
                         "--tangent-cone", "--deadline", "60")
    assert code == EXIT_OK


def test_threads_env(capsys, monkeypatch):
    _, serial, _ = run(capsys, "fixtures")
    monkeypatch.setenv("SGRING_THREADS", "3")
    _, pooled, _ = run(capsys, "fixtures")
    assert serial == pooled


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
