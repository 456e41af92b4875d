import json
import os
import subprocess
import sys

import pytest

from hafcp import cli
from hafcp.gbdt import load_model

from conftest import TINY_CSV

EXTERNAL_IMPORTANCE = "feature,score\nShop Location,0.2\nAge,0.5\nSpending,0.3\n"


def make_project(tmp_path, config_extra=None, csv_text=TINY_CSV,
                 importance_text=EXTERNAL_IMPORTANCE):
    """Write the input CSV, an external importance file, and a config."""
    csv_path = tmp_path / "input.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    imp_path = tmp_path / "ext_importance.csv"
    imp_path.write_text(importance_text, encoding="utf-8")
    out_dir = tmp_path / "out"
    config = {
        "input": str(csv_path),
        "label_column": "Churn",
        "positive_label": "1",
        "output_dir": str(out_dir),
        "drop_columns": ["ID"],
        "boost": {"n_estimators": 5},
        "importance": {"method": "external", "path": str(imp_path)},
        "mining": {"k": 5},
    }
    if config_extra:
        for key, value in config_extra.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    return str(cfg_path), str(out_dir)


def artifact(out_dir, name):
    return os.path.join(out_dir, cli.ARTIFACTS[name])


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        assert cli.main(["train", "--config", str(p)]) == 2

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path, {"surprise": True})
        rc = cli.main(["train", "--config", cfg_path])
        assert rc == 2
        assert "surprise" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path, {"mining": {"depth": 3}})
        assert cli.main(["train", "--config", cfg_path]) == 2

    def test_zero_k_rejected(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        rc = cli.main(["train", "--config", cfg_path, "--mining.k", "0"])
        assert rc == 2
        assert "k" in capsys.readouterr().err

    def test_missing_input_csv(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        rc = cli.main(["train", "--config", cfg_path,
                       "--input", str(tmp_path / "ghost.csv")])
        assert rc == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_bad_label_column(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path, {"label_column": "Exited"})
        rc = cli.main(["train", "--config", cfg_path])
        assert rc == 2
        assert "MissingLabelColumn" in capsys.readouterr().err

    def test_override_space_syntax(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path,
                         "--split.seed", "7"]) == 0
        doc = json.load(open(artifact(out, "config")))
        assert doc["split"]["seed"] == 7

    def test_override_equals_syntax(self, tmp_path):
        cfg_path, _ = make_project(tmp_path)
        out2 = str(tmp_path / "out2")
        for cmd in ("train", "fuzzify", "mine"):
            assert cli.main([cmd, "--config", cfg_path, "--mining.k=3",
                             "--output_dir", out2]) == 0
        lines = open(os.path.join(out2, "patterns.jsonl")).read() \
            .strip().splitlines()
        assert len(lines) == 3

    def test_value_missing_for_override(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path, "--split.seed"]) == 2


class TestTrain:
    def test_writes_model_importance_baseline(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        model = load_model(artifact(out, "model"))
        assert model.feature_names == ["Shop Location", "Age", "Spending"]
        imp = open(artifact(out, "importance")).read()
        assert imp.startswith("feature,score\n")
        assert "# lineage" in imp
        baseline = json.load(open(artifact(out, "baseline")))
        assert set(baseline["metrics"]) == {"auc", "accuracy", "recall",
                                            "precision", "f1"}
        assert "config" in baseline["lineage"]

    def test_effective_config_records_everything(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        doc = json.load(open(artifact(out, "config")))
        assert doc["config_version"] == 1
        assert "splitmix64" in doc["shuffle_algorithm"]
        assert doc["boost"]["n_estimators"] == 5
        assert doc["mining"]["k"] == 5
        assert len(doc["fingerprint"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        first = {n: open(artifact(out, n), "rb").read()
                 for n in ("model", "importance", "baseline", "config")}
        assert cli.main(["train", "--config", cfg_path]) == 0
        for name, blob in first.items():
            assert open(artifact(out, name), "rb").read() == blob, name

    def test_missing_external_importance(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        rc = cli.main(["train", "--config", cfg_path,
                       "--importance.path", str(tmp_path / "none.csv")])
        assert rc == 3
        assert "none.csv" in capsys.readouterr().err

    def test_gain_importance_needs_splits(self, tmp_path, capsys):
        # 8 train rows with min_child_weight=1 cannot split; the model is
        # all stumps and gain importance is empty
        cfg_path, _ = make_project(
            tmp_path, {"importance": {"method": "gain", "path": None}})
        rc = cli.main(["train", "--config", cfg_path])
        assert rc == 2
        assert "EmptyModel" in capsys.readouterr().err

    def test_gain_importance_with_relaxed_leaf_weight(self, tmp_path):
        cfg_path, out = make_project(
            tmp_path, {"importance": {"method": "gain", "path": None},
                       "boost": {"min_child_weight": 0.0}})
        assert cli.main(["train", "--config", cfg_path]) == 0
        body = open(artifact(out, "importance")).read()
        assert body.startswith("feature,score\n")


class TestFuzzify:
    def test_writes_specs_and_frame(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        assert cli.main(["fuzzify", "--config", cfg_path]) == 0
        specs_doc = json.load(open(artifact(out, "specs")))
        assert [s["column"] for s in specs_doc["specs"]] == ["Age", "Spending"]
        assert [e["column"] for e in specs_doc["normality_log"]] == \
            ["Age", "Spending"]
        frame = json.load(open(artifact(out, "frame")))
        assert "Shop Location=N" in frame["item_names"]
        assert "Age_L" in frame["item_names"]
        assert len(frame["rows"]) == 8  # train split only
        assert len(frame["labels"]) == 8

    def test_requires_importance_artifact(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        rc = cli.main(["fuzzify", "--config", cfg_path])
        assert rc == 3
        assert "importance" in capsys.readouterr().err

    def test_zero_importance_numerics_skipped(self, tmp_path, capsys):
        cfg_path, out = make_project(
            tmp_path,
            importance_text="feature,score\nShop Location,1.0\nAge,0\nSpending,0\n")
        assert cli.main(["train", "--config", cfg_path]) == 0
        assert cli.main(["fuzzify", "--config", cfg_path]) == 0
        err = capsys.readouterr().err
        assert "warning" in err
        specs_doc = json.load(open(artifact(out, "specs")))
        assert specs_doc["specs"] == []
        assert sorted(specs_doc["skipped_zero_importance"]) == \
            ["Age", "Spending"]
        frame = json.load(open(artifact(out, "frame")))
        assert all("=" in name for name in frame["item_names"])

    def test_constant_numeric_column_fails_loudly(self, tmp_path, capsys):
        rows = "\n".join(f"r{i},{i},5.0,{i % 2}" for i in range(10))
        csv_text = "ID,x,flat,Churn\n" + rows + "\n"
        cfg_path, _ = make_project(
            tmp_path, csv_text=csv_text,
            importance_text="feature,score\nx,1.0\nflat,0.5\n")
        assert cli.main(["train", "--config", cfg_path]) == 0
        rc = cli.main(["fuzzify", "--config", cfg_path])
        assert rc == 2
        assert "flat" in capsys.readouterr().err


class TestMineAndReport:
    def run_through(self, cfg_path, *cmds):
        for cmd in cmds:
            rc = cli.main([cmd, "--config", cfg_path])
            assert rc == 0, cmd
        return 0

    def test_mine_writes_patterns(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        lines = open(artifact(out, "patterns")).read().strip().splitlines()
        meta = json.load(open(artifact(out, "patterns_meta")))
        assert len(lines) == meta["n_patterns"] == 5
        first = json.loads(lines[0])
        assert set(first) == {"items", "utility", "support"}
        txt = open(artifact(out, "patterns_txt")).read()
        assert txt.startswith("Top-5 patterns by utility")
        assert "config: " in txt

    def test_patterns_sorted_by_utility(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        utilities = [json.loads(l)["utility"] for l in
                     open(artifact(out, "patterns")).read().strip().splitlines()]
        assert utilities == sorted(utilities, reverse=True)

    def test_meta_counters_byte_identical_on_rerun(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        first = open(artifact(out, "patterns_meta"), "rb").read()
        self.run_through(cfg_path, "mine")
        assert open(artifact(out, "patterns_meta"), "rb").read() == first
        meta = json.loads(first)
        assert meta["nodes_expanded"] > 0
        assert meta["pool_offers"] >= meta["n_patterns"]
        assert meta["bound_prunes"] >= 0

    def test_artifacts_follow_the_umask(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        old = os.umask(0o022)
        try:
            self.run_through(cfg_path, "train", "fuzzify", "mine")
        finally:
            os.umask(old)
        for name in ("model", "patterns", "patterns_meta"):
            assert os.stat(artifact(out, name)).st_mode & 0o777 == 0o644, name

    def test_membership_mode(self, tmp_path):
        cfg_path, out = make_project(tmp_path,
                                     {"mining": {"mode": "membership"}})
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        meta = json.load(open(artifact(out, "patterns_meta")))
        assert meta["mode"] == "membership"

    def test_report_artifacts(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine", "report")
        doc = json.load(open(artifact(out, "report")))
        assert set(doc) >= {"baseline", "per_pattern", "average", "flags",
                            "average_flags", "lineage"}
        assert sorted(doc["per_pattern"]) == ["1", "2", "3", "4", "5"]
        md = open(artifact(out, "report_md")).read()
        assert "| Metric | Baseline | Top-1 | Top-2 | Top-3 | Top-4 | Top-5 | AVG |" in md
        for metric in ("AUC", "Accuracy", "Recall", "Precision", "F1"):
            assert f"| {metric} |" in md

    def test_report_without_patterns_exits_3(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify")
        rc = cli.main(["report", "--config", cfg_path])
        assert rc == 3
        assert "patterns" in capsys.readouterr().err

    def test_mine_without_frame_exits_3(self, tmp_path):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train")
        assert cli.main(["mine", "--config", cfg_path]) == 3

    def test_stale_lineage_rejected(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify")
        # re-run mine under a different split seed: every artifact in the
        # output dir was produced by a different effective config
        rc = cli.main(["mine", "--config", cfg_path, "--split.seed", "3"])
        assert rc == 2
        assert "lineage" in capsys.readouterr().err.lower()

    def test_cumulative_report(self, tmp_path):
        cfg_path, out = make_project(tmp_path,
                                     {"report": {"cumulative": True}})
        self.run_through(cfg_path, "train", "fuzzify", "mine", "report")
        doc = json.load(open(artifact(out, "report")))
        assert len(doc["per_pattern"]) == 5


class TestPipelineCommand:
    def test_duplicate_item_names_exit_2(self, tmp_path, capsys):
        rows = [f"{i},{'b=c' if i % 2 else 'x'},{'c' if i % 3 else 'y'},"
                f"{i % 2}" for i in range(10)]
        cfg_path, _ = make_project(
            tmp_path, csv_text="ID,a,a=b,Churn\n" + "\n".join(rows) + "\n",
            importance_text="feature,score\na,0.5\na=b,0.5\n")
        assert cli.main(["pipeline", "--config", cfg_path]) == 2
        assert "DuplicateItemName" in capsys.readouterr().err

    def test_baseline_carries_training_counters(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        with open(artifact(out, "baseline"), encoding="utf-8") as f:
            doc = json.load(f)
        model = load_model(artifact(out, "model"))
        assert doc["trees"] == len(model.trees) == 5
        assert doc["nodes"] == sum(t.n_nodes for t in model.trees)
        assert doc["split_candidates"] > 0

    def test_single_invocation_produces_all_artifacts(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["pipeline", "--config", cfg_path]) == 0
        for name in cli.ARTIFACTS:
            assert os.path.exists(artifact(out, name)), name

    def test_matches_stepwise_run(self, tmp_path):
        import shutil
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["pipeline", "--config", cfg_path]) == 0
        combined = {n: open(artifact(out, n), "rb").read()
                    for n in cli.ARTIFACTS}
        shutil.rmtree(out)
        for cmd in ("train", "fuzzify", "mine", "report"):
            assert cli.main([cmd, "--config", cfg_path]) == 0
        for name, blob in combined.items():
            assert open(artifact(out, name), "rb").read() == blob, name


def test_module_entry_point(tmp_path):
    cfg_path, out = make_project(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "hafcp.cli", "train", "--config", cfg_path],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(artifact(out, "model"))
    assert "wrote" in proc.stdout
