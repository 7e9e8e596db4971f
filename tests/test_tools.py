"""The comparison tools under `tools/`: the artifact differ's key paths and
the A/B benchmark's verdict, seed ranges and workload names. A change's
byte-identity and benchmark claims rest on them. The modules are loaded by
path, and nothing here starts a subprocess."""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


compare = _load("compare_artifacts")
ab_bench = _load("ab_bench")


class TestDifferingKeys:
    def test_equal_values_differ_nowhere(self):
        tree = {"a": {"b": [1, {"c": 2.5}]}, "d": "x"}
        assert compare.differing_keys(tree, json.loads(json.dumps(tree))) == []

    def test_nested_dicts_give_dotted_paths(self):
        old = {"extras": {"checksum": "aa", "auc": 0.5}, "seed": 1}
        new = {"extras": {"checksum": "bb", "auc": 0.5}, "seed": 2}
        assert compare.differing_keys(old, new) == ["extras.checksum", "seed"]

    def test_a_key_on_one_side_differs_at_its_own_path(self):
        old = {"rows": {"kept": 1, "gone": 2}}
        new = {"rows": {"kept": 1, "added": {"deep": 3}}}
        assert compare.differing_keys(old, new) == ["rows.added", "rows.gone"]

    def test_equal_length_lists_number_their_items(self):
        old = {"epochs": [{"err": 0.1}, {"err": 0.2}, 3]}
        new = {"epochs": [{"err": 0.1}, {"err": 0.3}, 4]}
        assert compare.differing_keys(old, new) == ["epochs.1.err", "epochs.2"]

    def test_lists_of_unequal_length_differ_whole(self):
        assert compare.differing_keys({"rows": [1, 2]}, {"rows": [1, 2, 3]}) == ["rows"]

    def test_a_scalar_file_differs_as_a_whole(self):
        assert compare.differing_keys(1, 2) == ["(whole file)"]
        assert compare.differing_keys([1], [1, 2]) == ["(whole file)"]
        assert compare.differing_keys({"a": 1}, [1]) == ["(whole file)"]
        assert compare.differing_keys(1.0, 1.0) == []


class TestJsonKeys:
    def _runs(self, tmp_path, name, old, new):
        outs = tmp_path / "old", tmp_path / "new"
        for out, tree in zip(outs, (old, new)):
            (out / Path(name).parent).mkdir(parents=True, exist_ok=True)
            (out / name).write_text(json.dumps(tree))
        return outs

    @pytest.mark.parametrize("name", ["config.json", "baseline/config.json"])
    def test_config_json_is_compared_without_out_dir(self, tmp_path, name):
        outs = self._runs(tmp_path, name, {"out_dir": "a", "seed": 1, "train": {"epochs": 3}},
                          {"out_dir": "b", "seed": 1, "train": {"epochs": 4}})
        assert compare.json_keys(name, *outs) == ["train.epochs"]

    def test_another_file_keeps_its_out_dir(self, tmp_path):
        outs = self._runs(tmp_path, "report.json", {"out_dir": "a"}, {"out_dir": "b"})
        assert compare.json_keys("report.json", *outs) == ["out_dir"]


def _scaled(base_median, q1, q3, change_median, wins):
    return {"base": {"median": base_median, "q1": q1, "q3": q3},
            "change": {"median": change_median, "q1": change_median, "q3": change_median},
            "wins": wins}


class TestVerdict:
    # the parent's runs: median 10, interquartile range 1
    @pytest.mark.parametrize("pairs, wins", [(10, 9), (10, 10), (20, 18)])
    def test_gain(self, pairs, wins):
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 8.9, wins), pairs, True, 0.25) == "gain"
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 11.1, wins), pairs, False, 0.25) == "gain"

    def test_a_gain_needs_ten_pairs(self):
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 8.0, 9), 9, True, 0.25) == "unresolved"

    @pytest.mark.parametrize("pairs, wins", [(10, 8), (20, 17)])
    def test_a_gain_needs_nine_wins_in_ten(self, pairs, wins):
        scaled = _scaled(10, 9.5, 10.5, 8.0, wins)
        assert ab_bench.verdict(scaled, pairs, True, 0.25) == "unresolved"

    def test_a_gain_needs_a_gap_beyond_the_parents_interquartile_range(self):
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 9.0, 10), 10, True, 0.25) == "unresolved"
        assert ab_bench.verdict(_scaled(10, 9.0, 11.0, 8.5, 10), 10, True, 0.25) == "unresolved"

    def test_regression_is_the_median_beyond_the_bound(self):
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 12.6, 0), 10, True, 0.25) == "regression"
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 7.4, 0), 10, False, 0.25) == "regression"
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 12.5, 0), 10, True, 0.25) == "unresolved"
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 12.6, 0), 3, True, 0.5) == "unresolved"

    def test_a_flat_change_is_unresolved(self):
        assert ab_bench.verdict(_scaled(10, 9.5, 10.5, 10, 5), 10, True, 0.25) == "unresolved"


class TestWorkloadChoice:
    def test_all_is_refused_before_any_run(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("nothing may run before the arguments are checked")

        for name in ("git", "export", "copy_worktree", "bench"):
            monkeypatch.setattr(ab_bench, name, refuse)
        with pytest.raises(SystemExit) as exited:
            ab_bench.main(["HEAD", "--workload", "all", "--pairs", "1", "--seeds", "5"])
        assert exited.value.code == 2
        assert "invalid choice: 'all'" in capsys.readouterr().err


class TestSeedRange:
    @pytest.mark.parametrize("text, seeds", [("3-5", [3, 4, 5]), ("7", [7]), ("4-4", [4])])
    def test_range(self, text, seeds):
        assert ab_bench.seed_range(text) == seeds

    def test_an_empty_range_is_refused(self):
        with pytest.raises(argparse.ArgumentTypeError, match="empty seed range '5-3'"):
            ab_bench.seed_range("5-3")
