import json
import shlex
from pathlib import Path

import pytest

from lipfilter import InvalidParam, Seed
from lipfilter.cli import main, run_bench
from helpers import seed_of

SEED = seed_of(1).hex
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


@pytest.fixture
def spike(tmp_path):
    doc = {
        "domain": {"kind": "explicit", "vertices": 3, "edges": [[0, 1], [1, 2]]},
        "r": "3",
        "values": {"0": "0", "1": "3", "2": "0"},
    }
    path = tmp_path / "spike.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFilter:
    def test_l0_all(self, capsys, spike):
        code, out = run(capsys, [
            "filter", "--mode", "l0", "--function", spike,
            "--all", "--seed", SEED,
        ])
        assert code == 0
        assert out["values"] == {"0": "0", "1": "0", "2": "0"}
        assert out["seed"] == SEED

    def test_l1_reports_rounds(self, capsys, spike):
        code, out = run(capsys, [
            "filter", "--function", spike, "--all",
            "--slack", "1", "--seed", SEED,
        ])
        assert code == 0
        assert out["mode"] == "l1" and out["rounds"] == 4

    def test_point_queries(self, capsys, spike):
        code, out = run(capsys, [
            "filter", "--mode", "l0", "--function", spike,
            "--query", "1", "--seed", SEED,
        ])
        assert code == 0
        assert set(out["values"]) == {"1"}

    def test_expr_source(self, capsys):
        code, out = run(capsys, [
            "filter", "--mode", "l0", "--expr", "min(x1 + x2, 3)",
            "--domain", "3,2", "--range", "3", "--all", "--seed", SEED,
        ])
        assert code == 0
        assert out["values"]["11"] == "2"

    def test_random_seed_echoed(self, capsys, spike):
        code, out = run(capsys, [
            "filter", "--mode", "l0", "--function", spike, "--all",
        ])
        assert code == 0
        Seed.from_hex(out["seed"])  # echoed seed reproduces the run


class TestOracle:
    def test_spike_distances(self, capsys, spike):
        code, out = run(capsys, ["oracle", "--function", spike, "--witness"])
        assert code == 1  # not Lipschitz
        assert out["lipschitz"] is False
        assert out["l0"] == "1/3"
        assert out["cover"] == ["1"]
        assert out["l1"] == "2/3"
        assert out["witness"] == {"0": "0", "1": "1", "2": "0"}

    def test_lipschitz_input_exits_zero(self, capsys):
        code, out = run(capsys, [
            "oracle", "--expr", "x1", "--domain", "4,1", "--range", "4",
        ])
        assert code == 0
        assert out["lipschitz"] is True and out["l0"] == "0"

    @pytest.mark.parametrize("middle, lipschitz", [("1", True), ("3", False)])
    def test_partial_function_is_checked_pairwise(self, capsys, tmp_path,
                                                   middle, lipschitz):
        doc = {
            "domain": {"kind": "explicit", "vertices": 3, "edges": [[0, 1], [1, 2]]},
            "r": "3",
            "values": {"0": "0", "1": middle, "2": "?"},
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["oracle", "--function", str(path), "--no-l1"])
        assert out["lipschitz"] is lipschitz
        assert code == (0 if lipschitz else 1)


PATH3 = {"vertices": 3, "edges": [[0, 1], [1, 2]]}


class TestGraphDomain:
    """--domain takes a graph as JSON text or as a path, commas and all."""

    EXPECTED = {"cover": [], "l0": "0", "l1": "0", "lipschitz": True}

    def test_json_text(self, capsys):
        code, out = run(capsys, [
            "oracle", "--expr", "x1", "--range", "2",
            "--domain", json.dumps(PATH3),
        ])
        assert code == 0
        assert out == self.EXPECTED

    def test_path_with_comma(self, capsys, tmp_path):
        path = tmp_path / "path,3.json"
        path.write_text(json.dumps(PATH3))
        code, out = run(capsys, [
            "oracle", "--expr", "x1", "--range", "2", "--domain", str(path),
        ])
        assert code == 0
        assert out == self.EXPECTED


class TestTester:
    def test_accept(self, capsys):
        code, out = run(capsys, [
            "test", "--expr", "min(sum(), 2)",
            "--domain", "cube:6", "--range", "2",
            "--eps", "0.25", "--m", "50", "--seed", SEED,
        ])
        assert code == 0
        assert out["accept"] is True
        assert out["m"] == 50

    def test_reject(self, capsys):
        code, out = run(capsys, [
            "test",
            "--expr", "2 * (sum() - 2 * floor(sum() * 1/2))",
            "--domain", "cube:6", "--range", "2",
            "--eps", "0.25", "--m", "80", "--seed", SEED,
        ])
        assert code == 1
        assert out["accept"] is False


class TestMechanism:
    def test_filter_mode_no_noise(self, capsys):
        code, out = run(capsys, [
            "mechanism", "--expr", "min(x1 + x2, 4)", "--domain", "5,2",
            "--range", "4", "--eps", "1", "--query", "23",
            "--no-noise", "--seed", SEED,
        ])
        assert code == 0
        assert out["value"] == "4"  # Lipschitz input passes through
        assert out["noise_seed"] is None
        # the released answer and the run's inputs, no work counts
        assert set(out) == {"noise_seed", "query", "seed", "value"}

    def test_binary_search_no_noise(self, capsys):
        code, out = run(capsys, [
            "mechanism", "--binary-search", "--expr", "min(x1 + x2, 4)",
            "--domain", "5,2", "--range", "4", "--eps", "1",
            "--query", "32", "--no-noise", "--seed", SEED,
        ])
        assert code == 0
        assert out["value"] == "4"
        assert out["iterations"] >= 1
        assert set(out) == {"iterations", "noise_seed", "query", "seed", "value"}

    def test_binary_search_offset_client(self, capsys):
        # every value sits far above 0; the search window is anchored at
        # f(00000000) = 50, so f(10101010) = 54 is found
        code, out = run(capsys, [
            "mechanism", "--binary-search", "--expr", "sum() + 50",
            "--domain", "cube:8", "--range", "100", "--eps", "1",
            "--query", "10101010", "--no-noise", "--seed", SEED,
        ])
        assert code == 0
        assert out["value"] == "54"

    @pytest.mark.parametrize("argv, value", [
        (["--domain", "cube:4", "--range", "2", "--query", "1111"], "2"),
        (["--binary-search", "--domain", "cube:6", "--range", "3",
          "--query", "111111"], "3"),
    ], ids=["filter", "binary_search"])
    def test_out_of_range_values_clipped(self, capsys, argv, value):
        # sum() leaves the claimed range at the query; the answer is clipped
        code = main(["mechanism", "--expr", "sum()", "--eps", "1",
                     "--no-noise", "--seed", SEED, *argv])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["value"] == value

    def test_noisy_output_differs(self, capsys):
        code, out = run(capsys, [
            "mechanism", "--expr", "min(x1 + x2, 4)", "--domain", "5,2",
            "--range", "4", "--eps", "1", "--query", "23",
            "--seed", SEED, "--noise-seed", seed_of(9).hex,
        ])
        assert code == 0
        assert out["noise_seed"] == seed_of(9).hex
        assert isinstance(out["value"], float)
        assert out["value"] != 4.0


class TestGenHard:
    def test_emits_instance(self, capsys):
        code, out = run(capsys, [
            "gen-hard", "--domain", "cube:10", "--r", "4", "--b", "1",
            "--pairs", "2", "--seed", SEED,
        ])
        assert code == 0
        assert out["r"] == 4 and out["b"] == 1
        assert len(out["anchors"]) == 2

    def test_values_pipeline(self, capsys, tmp_path):
        code, out = run(capsys, [
            "gen-hard", "--domain", "cube:8", "--r", "2", "--b", "1",
            "--pairs", "1", "--seed", SEED, "--values",
        ])
        assert code == 0
        fn_path = tmp_path / "hard.json"
        fn_path.write_text(json.dumps(out["function"]))
        code2, out2 = run(capsys, [
            "oracle", "--function", str(fn_path), "--no-l1",
        ])
        assert code2 == 1  # planted instances are non-Lipschitz at b=1
        assert out2["l0"] != "0"


class TestBench:
    def test_rows(self, capsys):
        code, out = run(capsys, [
            "bench", "--dims", "6,8", "--r", "2", "--queries", "5",
            "--pairs", "1", "--seed", SEED,
        ])
        assert code == 0
        assert [row["d"] for row in out["rows"]] == [6, 8]
        assert all(row["lookups_max"] >= 1 for row in out["rows"])

    @pytest.mark.parametrize("queries", [2.5, True], ids=repr)
    def test_queries_must_be_an_int(self, queries):
        # a float used to raise TypeError, and True to report "queries": true
        with pytest.raises(InvalidParam, match="queries must be an int >= 1"):
            run_bench([6], 2, seed_of(1), queries=queries, pairs=1)


class TestErrors:
    def test_bad_function_path(self, capsys):
        code = main(["oracle", "--function", "/nonexistent.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_bad_seed(self, capsys, spike):
        code = main([
            "filter", "--function", spike, "--all", "--seed", "nothex",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["oracle", "--expr", "(" * 1000 + "1" + ")" * 1000, "--domain", "cube:2",
         "--range", "2"],
        ["filter", "--mode", "l0", "--query", "01", "--expr", "+".join(["x1"] * 3000),
         "--domain", "cube:2", "--range", "3000"],
    ], ids=["deep brackets", "long sum"])
    def test_too_deep_expression_exits_2(self, capsys, argv):
        # both used to end in a RecursionError traceback
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: expression nested deeper than 200 levels")
        assert captured.out == ""

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["filter", "--all"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--expr", "sum()", "--range", "3"],
         "--expr needs --domain and --range"),
        (["oracle", "--expr", "sum()", "--domain", "cube:3"],
         "--expr needs --domain and --range"),
        (["filter", "--expr", "sum()", "--domain", "cube:3", "--range", "3"],
         "provide --query CANON (repeatable) or --all"),
        (["gen-hard", "--domain", "cube:17", "--r", "2", "--b", "1", "--seed", SEED,
          "--values"], "--values only for domains with at most 2^16 vertices"),
    ], ids=["expr without domain", "expr without range", "filter without query",
            "gen-hard values past 2^16"])
    def test_usage_errors_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.rstrip().endswith(f"error: {message}")
        assert captured.out == ""

    # the budgets are constants of the layers that spend them, so no budget
    # value, positive or not, is taken from the command line
    @pytest.mark.parametrize("flag", ["--scan-budget", "--match-budget"])
    @pytest.mark.parametrize("value", ["0", "-1", "x", "5"])
    def test_budget_must_be_positive(self, capsys, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["filter", "--mode", "l0", "--query", "000", "--expr", "sum()",
                  "--domain", "cube:3", "--range", "3", flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    # a search cap below 1 is rejected when the flags are parsed, on input
    # that would not reach the cap (a Lipschitz function) as on input that
    # would (parity), with a message naming the flag; so is a pair count
    # below 1, which the library would reject naming its own parameter
    @pytest.mark.parametrize("argv", [
        ["oracle", "--expr", "sum()", "--domain", "cube:3", "--range", "3",
         "--l0-cap"],
        ["oracle", "--expr", "2*(sum() - 2*floor(1/2*sum()))", "--domain",
         "cube:3", "--range", "2", "--l0-cap"],
        ["gen-hard", "--domain", "cube:6", "--r", "2", "--b", "1", "--seed", SEED,
         "--retry-cap"],
        ["gen-hard", "--domain", "cube:6", "--r", "2", "--b", "1", "--seed", SEED,
         "--pairs"],
        ["bench", "--dims", "6", "--queries", "1", "--seed", SEED, "--pairs"],
    ], ids=["oracle lipschitz", "oracle parity", "gen-hard", "gen-hard pairs",
            "bench pairs"])
    @pytest.mark.parametrize("value", ["0", "-1", "-5", "x"])
    def test_cap_must_be_positive(self, capsys, argv, value):
        with pytest.raises(SystemExit) as info:
            main(argv + [value])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[-1]}: " in captured.err
        assert captured.out == ""

    # malformed inputs exit 2 with an error line, never 1 (reject) with a
    # traceback; "NOVERTICES" stands for a graph JSON file without "vertices"
    MALFORMED = {
        "domain path": ["oracle", "--expr", "sum()", "--range", "1",
                        "--domain", "/nonexistent.json"],
        "domain cube:x": ["oracle", "--expr", "sum()", "--range", "1",
                          "--domain", "cube:x"],
        "domain 3,x": ["oracle", "--expr", "sum()", "--range", "1",
                       "--domain", "3,x"],
        "graph without vertices": ["oracle", "--expr", "sum()", "--range", "1",
                                   "--domain", "NOVERTICES"],
        "range abc": ["oracle", "--expr", "sum()", "--domain", "cube:3",
                      "--range", "abc"],
        "range 1/0": ["oracle", "--expr", "sum()", "--domain", "cube:3",
                      "--range", "1/0"],
        "eps abc": ["test", "--expr", "sum()", "--domain", "cube:3",
                    "--range", "3", "--eps", "abc", "--seed", SEED],
        "slack zz": ["filter", "--expr", "sum()", "--domain", "cube:3",
                     "--range", "3", "--slack", "zz", "--all", "--seed", SEED],
        "query 1a11": ["filter", "--expr", "sum()", "--domain", "cube:4",
                       "--range", "4", "--query", "1a11", "--seed", SEED],
        "dims 6,x": ["bench", "--dims", "6,x", "--seed", SEED],
        "queries 0": ["bench", "--dims", "6", "--queries", "0", "--seed", SEED],
        "test on explicit graph": ["test", "--expr", "x1", "--range", "2",
                                   "--domain", '{"vertices":6,"edges":[[0,1]]}',
                                   "--eps", "1/4", "--seed", SEED],
        "test on grid": ["test", "--expr", "sum()", "--range", "80",
                         "--domain", "20,4", "--eps", "1/4", "--seed", SEED],
    }

    @pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_input_exits_2(self, capsys, tmp_path, argv):
        novertices = tmp_path / "novertices.json"
        novertices.write_text(json.dumps({"edges": [[0, 1]]}))
        argv = [str(novertices) if a == "NOVERTICES" else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("spec, message", [
        ("3,x", "bad domain"),
        ("/nonexistent,dir/graph.json", "bad domain"),
        ('{"vertices": 3, "edges": [[0, "a"]]}', "edges must be"),
    ], ids=["3,x", "missing path with comma", "json text, bad edge"])
    def test_domain_with_comma(self, capsys, spec, message):
        code = main(["oracle", "--expr", "x1", "--range", "2", "--domain", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""

    # function documents (read by --function) and graph documents (read by
    # --domain) whose structure is wrong
    BAD_DOCUMENTS = {
        "hypercube without d": ("function", {"kind": "hypercube"}),
        "hypergrid n x": ("function", {"kind": "hypergrid", "n": "x", "d": 2}),
        "domain cube": ("function", "cube"),
        "edge [0]": ("graph", {"vertices": 3, "edges": [[0]]}),
        "edge [0, a]": ("graph", {"vertices": 3, "edges": [[0, "a"]]}),
        "edges 5": ("graph", {"vertices": 3, "edges": 5}),
        "edge 12": ("graph", {"vertices": 3, "edges": ["12"]}),
        "edge [0, 1.5]": ("graph", {"vertices": 3, "edges": [[0, 1.5]]}),
        "vertices 2.7": ("graph", {"vertices": 2.7, "edges": [[0, 1]]}),
        "vertices '3'": ("graph", {"vertices": "3", "edges": [[0, 1]]}),
        "hypercube d true": ("function", {"kind": "hypercube", "d": True}),
        "hypergrid d 2.0": ("function", {"kind": "hypergrid", "n": 3, "d": 2.0}),
    }

    @pytest.mark.parametrize("kind, doc", BAD_DOCUMENTS.values(),
                             ids=BAD_DOCUMENTS.keys())
    def test_malformed_document_exits_2(self, capsys, tmp_path, kind, doc):
        path = tmp_path / "doc.json"
        if kind == "function":
            path.write_text(json.dumps({"domain": doc, "r": "1", "values": {}}))
            argv = ["oracle", "--function", str(path)]
        else:
            path.write_text(json.dumps(doc))
            argv = ["oracle", "--expr", "x1", "--range", "2", "--domain", str(path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("values", [[1, 2], "0:1", 3], ids=["list", "string", "int"])
    def test_function_values_not_object_exits_2(self, capsys, tmp_path, values):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"domain": {"kind": "hypercube", "d": 2},
                                    "r": "1", "values": values}))
        code = main(["oracle", "--function", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "values" in captured.err
        assert captured.out == ""

    def test_non_canonical_value_key_exits_2(self, capsys, tmp_path):
        # "١" is ARABIC-INDIC DIGIT ONE, which int() reads as 1: a second
        # key for the vertex (1,) that must not replace its value
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"domain": {"kind": "hypercube", "d": 1}, "r": "2",
                                    "values": {"0": "0", "1": "1", "١": "2"}}))
        code = main(["filter", "--function", str(path), "--all", "--seed", SEED])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "١" in captured.err
        assert captured.out == ""

    def test_partial_function_l1_exits_2(self, capsys, tmp_path):
        # the l1 LP needs every value; a ? is an input error, not a reject
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({
            "domain": {"kind": "explicit", "vertices": 3, "edges": [[0, 1], [1, 2]]},
            "r": "3", "values": {"0": "0", "1": "3", "2": "?"}}))
        code = main(["oracle", "--function", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "f(2) = ?" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_binary_search_at_undefined_point_exits_2(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({
            "domain": {"kind": "hypercube", "d": 4}, "r": "4",
            "values": {"0000": "?"}, "default": "2"}))
        code = main(["mechanism", "--binary-search", "--function", str(path),
                     "--eps", "1", "--query", "0000", "--no-noise"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:") and "f(0000) = ?" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


def readme_commands():
    """The ``lipfilter`` commands in README's "Command line" block, as
    argument lists, continuation lines joined."""
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "lipfilter", line
            commands.append(argv[1:])
    return commands


# README: exit 0 for success or accept; the tester's example function,
# min(sum(), 2), is Lipschitz, so the tester accepts it
README_EXIT = {"filter": 0, "test": 0, "mechanism": 0, "gen-hard": 0, "bench": 0}


def test_readme_lists_commands():
    assert {argv[0] for argv in readme_commands()} == set(README_EXIT) | {"oracle"}


@pytest.mark.parametrize("argv", [
    argv for argv in readme_commands() if "--function" not in argv
], ids=lambda argv: argv[0])
def test_readme_command_runs(capsys, argv):
    # a fixed seed only pins the run; each command draws one when omitted
    code, out = run(capsys, argv + ["--seed", SEED])
    assert code == README_EXIT[argv[0]]
    assert out["seed"] == SEED
