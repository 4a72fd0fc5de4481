import argparse
import dataclasses
import json

import pytest

from kmetric import cli, solver, verify
from kmetric.solver import DEFAULT_BUDGET_SECS
from kmetric.verify import SuiteResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestAnalyze:
    def test_petersen_k2(self, capsys):
        code, out = run(capsys, "analyze", "--family", "petersen", "--k", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["dim"] == 4
        assert data["max_k"] == 6
        assert data["certificate"]["valid"] is True
        assert len(data["basis"]) == 4

    def test_complete5_k3_infinite(self, capsys):
        code, out = run(capsys, "analyze", "--family", "complete:5", "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == "inf"

    def test_cycle7_k6(self, capsys):
        code, out = run(capsys, "analyze", "--family", "cycle:7", "--k", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 7

    def test_plain_format(self, capsys):
        code, out = run(capsys, "analyze", "--family", "cycle:7", "--k", "1")
        assert code == 0
        assert "max_k: 6" in out and "dim_1: 2" in out

    def test_truncated_analysis(self, capsys):
        code, out = run(capsys, "analyze", "--family", "path:6", "--t", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert "truncated" in data["source"]

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "triangle.txt"
        path.write_text("a b\nb c\nc a\n")
        code, out = run(capsys, "analyze", "--input", str(path), "--k", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    def test_budget_exhaustion_exit_code(self, capsys):
        # a microsecond deadline has passed by the search's first node
        code, out = run(capsys, "analyze", "--family", "grid-ball:2,3", "--k", "1",
                        "--budget-secs", "1e-6", "--format", "json")
        assert code == 3
        data = json.loads(out)
        assert data["status"] == "bounded"
        low, high = data["bounds"]
        assert low <= 3 <= high

    def test_json_space_input(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({
            "labels": ["a", "b", "c"],
            "distances": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
            "meta": {},
        }))
        code, out = run(capsys, "analyze", "--input", str(path), "--k", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["dim"] == 2

    @pytest.mark.parametrize("family, dim, nodes, trace, basis", [
        ("grid-ball:2,5", 3, 248, [["requirement", 1], ["packing", 2], ["clusters", 2]],
         ["(-5,0)", "(-4,-1)", "(5,0)"]),
        ("petersen", 3, 0, [["requirement", 1], ["packing", 1], ["clusters", 3]],
         ["u1", "u3", "v4"]),
        ("free-ball:2,3", 24, 0, [["requirement", 1], ["packing", 12], ["clusters", 24]], None),
    ])
    def test_bound_values_and_node_counts(self, capsys, family, dim, nodes, trace, basis):
        # The cluster bound decides these node counts: a weaker or different
        # bound changes them even when the optimum stays put.  petersen's
        # constraints form clusters that are all solved exactly at the root,
        # so it takes no search.
        code, out = run(capsys, "analyze", "--family", family, "--k", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["dim"], data["nodes"], data["lower_bound_trace"]) == (dim, nodes, trace)
        if basis is not None:
            assert data["basis"] == basis
        assert "basis_kind" not in data

    def test_lex_timeout_reports_witness(self, capsys, monkeypatch):
        # grid-ball:2,5 has root bound 2 below its optimum 3, so the lex phase runs.
        monkeypatch.setattr(solver, "_lex_min_cover",
                            lambda constraints, target, witness, deadline, cache: (witness, 0, False))
        code = cli.main(["analyze", "--family", "grid-ball:2,5", "--k", "1", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        data = json.loads(captured.out)
        assert data["status"] == "optimal"
        assert data["basis_kind"] == "witness"
        assert data["certificate"]["valid"] is True
        assert len(data["basis"]) == data["dim"] == 3
        note_lines = captured.err.splitlines()
        assert len(note_lines) == 1 and note_lines[0].startswith("note: ")


class TestSequence:
    def test_petersen_pass(self, capsys):
        code, out = run(capsys, "sequence", "--family", "petersen", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [3, 4, 7, 8, 9, 10]
        assert data["tail_start"] == 7
        assert data["verdicts"] == ["PASS"] * 6
        assert data["tail_verdict"] == "PASS"
        assert data["overall"] == "PASS"

    def test_cycle8_csv(self, capsys):
        code, out = run(capsys, "sequence", "--family", "cycle:8", "--format", "csv")
        assert code == 0
        assert out == "k,dim_k\n1,2\n2,3\n3,4\n4,6\n5,7\n6,8\n7,inf\n"

    def test_lollipop_partial_expectation(self, capsys):
        code, out = run(capsys, "sequence", "--family", "lollipop:5,4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [2, 3, 4, 5]
        assert data["verdicts"] == ["PASS"] * 4
        assert data["overall"] == "PASS"

    def test_k_max_cap(self, capsys):
        code, out = run(capsys, "sequence", "--family", "petersen", "--k-max", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [3, 4]

    def test_bounded_csv_has_the_exact_levels(self, capsys):
        # grid-ball:2,5 needs search at k=1, and a microsecond budget is gone
        # before its first node: no level is exact, so only the header prints.
        code, out = run(capsys, "sequence", "--family", "grid-ball:2,5", "--budget-secs", "1e-6",
                        "--format", "csv")
        assert (code, out) == (3, "k,dim_k\n")

    def test_unknown_expectation(self, capsys):
        code, out = run(capsys, "sequence", "--family", "ladder:3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["expected"] is None
        assert data["overall"] == "UNKNOWN"


class TestVerify:
    def test_monotonicity_pass(self, capsys):
        code, out = run(capsys, "verify", "--suite", "monotonicity",
                        "--random", "5", "--n", "6", "--seed", "0", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True and data["cases"] == 5

    def test_bipartite_family(self, capsys):
        code, out = run(capsys, "verify", "--suite", "bipartite",
                        "--family", "grid-ball:2,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_custom_truncation_pair(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "truncation", "--random", "2",
                      "--n", "5", "--s", "1", "--t", "3")
        assert code == 0

    def test_violation_exit_code(self, capsys, monkeypatch):
        def fake_run_suite(name, **kwargs):
            return SuiteResult(name, 1, ({"n": 3, "detail": "forced failure"},))

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        code, out = run(capsys, "verify", "--suite", "join", "--format", "json")
        assert code == 4
        assert json.loads(out)["passed"] is False

    def test_bad_st_pair(self, capsys):
        code, _ = run(capsys, "verify", "--suite", "truncation", "--s", "3", "--t", "1")
        assert code == 2

    def test_monotonicity_reports_a_broken_step(self, capsys, monkeypatch):
        # A solver that repeats dim_1 at k=2 breaks the floor dim_k >= k,
        # which DimensionSequence rejects as the sequence is built.
        real = solver.dim_exact

        def flat(space, k, **kwargs):
            report = real(space, k, **kwargs)
            if k == 2:
                report = dataclasses.replace(report, optimum=real(space, 1).optimum)
            return report

        monkeypatch.setattr(solver, "dim_exact", flat)
        code = cli.main(["verify", "--suite", "monotonicity", "--random", "2", "--n", "4",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (4, "")
        data = json.loads(captured.out)
        assert [f["detail"] for f in data["failures"]] == ["dim_2=1 below the floor k=2"] * 2

    @pytest.mark.parametrize("suite, smallest", [
        ("monotonicity", 3), ("truncation", 3), ("join", 2), ("join-trivial", 2), ("bipartite", 3),
    ])
    @pytest.mark.parametrize("flag, value", [("--random", 0), ("--random", -5), ("--n", None)],
                             ids=["random-0", "random-negative", "n-too-small"])
    def test_bad_sizes_rejected_before_any_work(self, capsys, monkeypatch, suite, smallest, flag, value):
        monkeypatch.setattr(verify, "random", None)  # any case drawn would crash
        value = smallest - 1 if value is None else value
        assert cli.main(["verify", "--suite", suite, flag, str(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: the {suite} suite")

    @pytest.mark.parametrize("suite, smallest", [("join", 2), ("monotonicity", 3)])
    def test_smallest_n_runs(self, capsys, suite, smallest):
        code, out = run(capsys, "verify", "--suite", suite, "--random", "2", "--n", str(smallest),
                        "--format", "json")
        assert code == 0 and json.loads(out)["cases"] == 2

    @pytest.mark.parametrize("argv, message", [
        (["--suite", "monotonicity", "--family", "petersen"],
         "error: only the bipartite suite checks given graphs, not the monotonicity suite"),
        (["--suite", "join", "--s", "1", "--t", "2"],
         "error: only the truncation suite reads an (s, t) pair, not the join suite"),
    ], ids=["family", "s-t"])
    def test_flag_of_another_suite_rejected_before_any_case(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(verify, "random", None)  # any case drawn would crash
        assert cli.main(["verify", *argv, "--random", "2"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [message])

    @pytest.mark.parametrize("argv", [[], ["--family", "grid-ball:2,3"]], ids=["random", "family"])
    def test_bipartite_takes_no_budget(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(verify, "random", None)  # any case drawn would crash
        assert cli.main(["verify", "--suite", "bipartite", *argv, "--budget-secs", "5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == (
            "", ["error: the bipartite suite solves nothing, so it takes no time budget"])

    @pytest.mark.parametrize("suite, argv, budget", [
        ("monotonicity", [], DEFAULT_BUDGET_SECS),
        ("join", ["--budget-secs", "5"], 5.0),
        ("bipartite", [], None),
    ])
    def test_budget_reaching_run_suite(self, capsys, monkeypatch, suite, argv, budget):
        seen = {}

        def fake_run_suite(name, **kwargs):
            seen.update(kwargs)
            return SuiteResult(name, 0, ())

        monkeypatch.setattr(cli, "run_suite", fake_run_suite)
        assert cli.main(["verify", "--suite", suite, *argv]) == 0
        assert seen["budget_secs"] == budget

    def test_family_graphs_skip_the_size_check(self, capsys):
        code, out = run(capsys, "verify", "--suite", "bipartite", "--family", "path:2", "--n", "1",
                        "--format", "json")
        assert code == 0 and json.loads(out)["cases"] == 1


class TestJoin:
    @pytest.fixture()
    def segments(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"labels": ["1", "3"],
                                 "distances": [["0", "2"], ["2", "0"]], "meta": {}}))
        b.write_text(json.dumps({"labels": ["2", "4"],
                                 "distances": [["0", "2"], ["2", "0"]], "meta": {}}))
        return str(a), str(b)

    def test_counterexample_inputs(self, segments, capsys):
        a, b = segments
        code, out = run(capsys, "join", "--input", a, "--input2", b, "--t", "1",
                        "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["t"] == "1"
        assert data["space"]["labels"] == ["1", "3", "2", "4"]
        [row] = data["table"]  # neither --k nor --k-max: k = 1 only
        assert row["sum"] == 2
        # the computed joined space is the 4-cycle, resolved by two points
        assert row["dim_join"] == 2
        assert row["relation"] == "="

    def test_equality_when_t_dominates(self, capsys):
        # label sets are disjoint: lattice coordinates vs path names
        code, out = run(capsys, "join", "--family", "grid-ball:2,1", "--family2", "path:3",
                        "--t", "5", "--k-max", "2", "--format", "json")
        assert code == 0
        for row in json.loads(out)["table"]:
            assert row["relation"] == "="

    def test_identical_labels_error(self, segments, capsys):
        a, _ = segments
        code, _ = run(capsys, "join", "--input", a, "--input2", a, "--t", "1")
        assert code == 2

    def test_csv(self, capsys):
        code, out = run(capsys, "join", "--family", "path:3", "--family2", "sqrt-primes:3",
                        "--t", "1", "--k-max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,dim_a,dim_b,sum,dim_a_trunc,dim_b_trunc,dim_join,relation"
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2"]

    def test_missing_t(self, segments, capsys):
        a, b = segments
        with pytest.raises(SystemExit) as err:
            cli.main(["join", "--input", a, "--input2", b])
        assert err.value.code == 2

    @pytest.mark.parametrize("order", [("--k", "2", "--k-max", "3"), ("--k-max", "3", "--k", "2")])
    def test_k_and_k_max_exclude_each_other(self, capsys, monkeypatch, order):
        monkeypatch.setattr(verify, "dim_exact", None)  # any solve would crash
        with pytest.raises(SystemExit) as err:
            cli.main(["join", "--family", "path:3", "--family2", "sqrt-primes:3", "--t", "1", *order,
                      "--format", "csv"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err


class TestSequenceAgainstBruteForce:
    # the PASS/FAIL verdicts rest on dim_exact; cross-check the printed
    # values against the independent oracle on every small stock family
    @pytest.mark.parametrize("token", [
        "complete:4", "path:6", "cycle:8", "petersen", "lollipop:5,4", "sqrt-primes:5",
    ])
    def test_entries_match_oracle(self, token, capsys):
        from kmetric.families import make_space, parse_family
        from kmetric.solver import dim_bruteforce

        code, out = run(capsys, "sequence", "--family", token, "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        space = make_space(parse_family(token))
        for k, value in enumerate(entries, start=1):
            assert dim_bruteforce(space, k) == value


class TestErrors:
    def test_unknown_family(self, capsys):
        code, _ = run(capsys, "analyze", "--family", "dodecahedron")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "analyze", "--input", "/nonexistent/file.json")
        assert code == 2

    def test_no_source(self, capsys):
        code, _ = run(capsys, "analyze", "--k", "1")
        assert code == 2

    @pytest.mark.parametrize("entry", ["NaN", "1e308"])
    def test_unquantizable_float_in_space_json(self, capsys, tmp_path, entry):
        path = tmp_path / "space.json"
        path.write_text('{"labels": ["a", "b", "c"], '
                        f'"distances": [[0, 1, 1], [1, 0, {entry}], [1, {entry}, 0]]}}')
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: distance entry")

    @pytest.mark.parametrize("fields", [
        '"labels": 5, "distances": [[0, 1], [1, 0]]',
        '"labels": ["a", "b"], "distances": 5',
        '"labels": ["a", "b"], "distances": [5, 6]',
        '"labels": ["a", "b"], "distances": [[0, 1], [1, 0]], "meta": [1]',
    ], ids=["labels", "distances", "row", "meta"])
    def test_malformed_space_json(self, capsys, tmp_path, fields):
        path = tmp_path / "space.json"
        path.write_text("{" + fields + "}")
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: space JSON")

    @pytest.mark.parametrize("text", ['{"labels": [' + "1" * 5000 + "]}", "{" + '"a": {' * 100_000],
                             ids=["long-int", "deep"])
    def test_json_the_decoder_cannot_take(self, capsys, tmp_path, text):
        # An integer past the interpreter's digit limit; nesting past its stack.
        path = tmp_path / "space.json"
        path.write_text(text)
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON")

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"a b\n\xff\xfe c\n")
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_input_is_a_directory(self, capsys, tmp_path):
        assert cli.main(["analyze", "--input", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_distance_too_long_to_print(self, capsys, tmp_path):
        # d(a,c) = 10**20000 breaks the triangle inequality; its numerator
        # has more digits than the interpreter converts to str.
        path = tmp_path / "space.json"
        path.write_text('{"labels": ["a", "b", "c"], "distances": '
                        '[[0, 1, "1e20000"], [1, 0, 1], ["1e20000", 1, 0]]}')
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: d[0][2]=<fraction with 20001-digit numerator> > d[0][1]+d[1][2]=2"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "path:6", "--t", "1e20001", "--k", "1"],
        ["sequence", "--family", "path:4", "--t", "1e20001"],
        ["join", "--family", "path:3", "--family2", "sqrt-primes:3", "--t", "1e20001", "--k", "1"],
        ["verify", "--suite", "truncation", "--s", "1", "--t", "1e20001"],
    ], ids=["analyze", "sequence", "join", "verify"])
    def test_parameter_too_long_to_print(self, capsys, argv):
        # 10**20001 parses, but has more digits than the interpreter
        # converts to str for the "source" and "t" fields.
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --t <fraction with 20002-digit numerator> has too many digits to print"]

    def test_s_too_long_to_print(self, capsys):
        assert cli.main(["verify", "--suite", "truncation", "--s", "1e-20001", "--t", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: --s <fraction with 1-digit numerator and 20002-digit denominator>"
            " has too many digits to print"]

    @pytest.mark.parametrize("argv, value", [
        (["sequence", "--family", "petersen"], "0"),
        (["sequence", "--family", "petersen"], "-2"),
        (["join", "--family", "path:3", "--family2", "sqrt-primes:3", "--t", "1"], "0"),
    ], ids=["sequence-0", "sequence-negative", "join-0"])
    def test_k_max_below_1_rejected_before_any_solve(self, capsys, monkeypatch, argv, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a level")

        monkeypatch.setattr(solver, "dim_exact", no_solve)
        monkeypatch.setattr(verify, "dim_exact", no_solve)
        assert cli.main([*argv, "--k-max", value]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", [f"error: --k-max must be at least 1, got {value}"])

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "-inf"])
    def test_budget_not_positive(self, capsys, value):
        # NaN would never expire; zero or less would end the run at once
        assert cli.main(["analyze", "--family", "petersen", "--k", "1", f"--budget-secs={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --budget-secs must be > 0 (inf for no limit), got {float(value)}"]

    def test_infinite_budget_is_no_limit(self, capsys):
        code, out = run(capsys, "analyze", "--family", "petersen", "--k", "1", "--budget-secs", "inf",
                        "--format", "json")
        assert code == 0 and json.loads(out)["status"] == "optimal"

    def test_both_sources_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--family", "petersen", "--input", "x.json"])
        assert err.value.code == 2


class TestExitCodes:
    """One run per documented exit code, with no traceback on stderr."""

    def test_0_success(self, capsys):
        assert cli.main(["analyze", "--family", "petersen", "--k", "1"]) == 0
        assert capsys.readouterr().err == ""

    def test_2_input_error(self, capsys):
        assert cli.main(["analyze", "--family", "cycle:2"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: parameters (2,) out of range for cycle"]

    def test_3_budget_exhausted(self, capsys):
        # grid-ball:2,5 has root bound 2 below its optimum 3, so it needs
        # search, and a microsecond budget is gone before the first node.
        code = cli.main(["analyze", "--family", "grid-ball:2,5", "--k", "1",
                         "--budget-secs", "1e-6", "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (3, "")
        data = json.loads(captured.out)
        assert data["status"] == "bounded" and data["bounds"] == [2, data["dim"]]

    def test_4_property_violation(self, capsys, monkeypatch):
        # A solver that overcounts on joined spaces (parts of 2 or 3
        # points, so a join has at least 4) breaks exact additivity.
        real = verify.dim_exact

        def overcounting(space, k, **kwargs):
            report = real(space, k, **kwargs)
            return dataclasses.replace(report, optimum=report.optimum + (space.n >= 4))

        monkeypatch.setattr(verify, "dim_exact", overcounting)
        code = cli.main(["verify", "--suite", "join-trivial", "--random", "2", "--n", "3",
                         "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (4, "")
        data = json.loads(captured.out)
        assert data["passed"] is False and len(data["failures"]) == 4


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        first = run(capsys, "sequence", "--family", "cycle:8", "--format", "json")
        second = run(capsys, "sequence", "--family", "cycle:8", "--format", "json")
        assert first == second



class TestParserSurface:
    """Each subcommand declares exactly the options it reads."""

    OPTIONS = {
        "analyze": {"--family", "--input", "--format", "--budget-secs", "--k", "--t"},
        "sequence": {"--family", "--input", "--format", "--budget-secs", "--k-max", "--t"},
        "verify": {"--family", "--format", "--budget-secs", "--seed", "--suite", "--random", "--n",
                   "--s", "--t"},
        "join": {"--family", "--input", "--family2", "--input2", "--format", "--budget-secs", "--k",
                 "--k-max", "--t"},
    }

    def test_options_per_subcommand(self):
        [commands] = [action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        declared = {
            name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        assert declared == self.OPTIONS

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "petersen", "--seed", "1"],
        ["sequence", "--family", "petersen", "--seed", "1"],
        ["join", "--family", "path:3", "--family2", "sqrt-primes:3", "--t", "1", "--seed", "1"],
        ["verify", "--suite", "monotonicity", "--input", "f.json"],
        ["verify", "--suite", "monotonicity", "--format", "csv"],
    ], ids=["analyze-seed", "sequence-seed", "join-seed", "verify-input", "verify-csv"])
    def test_undeclared_option_exits_before_any_work(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "_COMMANDS", {})  # no command can run
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
