import json

import pytest

from lipfilter import Seed
from lipfilter.cli import main
from helpers import seed_of

SEED = seed_of(1).hex


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

    def test_binary_search_no_noise(self, capsys):
        code, out = run(capsys, [
            "mechanism", "--binary-search", "--expr", "min(x1 + x2, 4)",
            "--domain", "5,2", "--range", "4", "--eps", "1",
            "--query", "32", "--no-noise", "--seed", SEED,
        ])
        assert code == 0
        assert out["value"] == "4"
        assert out["iterations"] >= 1

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

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["filter", "--all"])
        assert info.value.code == 2
