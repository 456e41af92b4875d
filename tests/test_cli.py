import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hafcp
from hafcp import augment, cli, fuzzify, rng
from hafcp.errors import SingleClassTraining
from hafcp.gbdt import BoostedModel

from conftest import TINY_CSV

EXTERNAL_IMPORTANCE = "feature,score\nShop Location,0.2\nAge,0.5\nSpending,0.3\n"

# categorical "a" with value "b=c" and categorical "a=b" with value "c" both
# give the item name "a=b=c"
DUPLICATE_ITEMS_CSV = "ID,a,a=b,Churn\n" + "\n".join(
    f"{i},{'b=c' if i % 2 else 'x'},{'c' if i % 3 else 'y'},{i % 2}"
    for i in range(10)) + "\n"
DUPLICATE_ITEMS_IMPORTANCE = "feature,score\na,0.5\na=b,0.5\n"


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


def read_text(out_dir, name):
    return Path(artifact(out_dir, name)).read_text(encoding="utf-8")


def read_json(out_dir, name):
    return json.loads(read_text(out_dir, name))


def read_model(out_dir):
    return BoostedModel.from_dict(read_json(out_dir, "model"))


def sha256_of(out_dir, name):
    return hashlib.sha256(Path(artifact(out_dir, name)).read_bytes()
                          ).hexdigest()


def without_digest(name):
    """A text edit of effective_config.json that drops the sha256 it
    records for artifact `name`."""
    def edit(text):
        doc = json.loads(text)
        del doc["artifacts"][cli.ARTIFACTS[name]]
        return json.dumps(doc)
    return edit


def without_key(dotted):
    """An edit that deletes one dotted key from a JSON artifact."""
    def edit(text):
        doc = json.loads(text)
        *parents, last = dotted.split(".")
        node = doc
        for part in parents:
            node = node[part]
        del node[last]
        return json.dumps(doc)
    return edit


# (artifact, the step that reads it, the key deleted from its body, the
# message that names it)
ARTIFACTS_MISSING_A_KEY = [
    pytest.param("specs", "mine", "specs", "its body has no key 'specs'",
                 id="specs-no-specs"),
    pytest.param("specs", "mine", "skipped_zero_importance",
                 "its body has no key 'skipped_zero_importance'",
                 id="specs-no-skipped"),
    pytest.param("specs", "report", "specs", "its body has no key 'specs'",
                 id="report-specs-no-specs"),
    pytest.param("baseline", "report", "metrics",
                 "its body has no key 'metrics'", id="baseline-no-metrics"),
    pytest.param("baseline", "report", "metrics.f1",
                 "metrics has no key 'f1'", id="baseline-no-f1"),
]


def edit_json(path, edit):
    """Apply edit(doc) to a JSON artifact in place."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(doc)
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def set_key(dotted, value):
    """An edit that sets (or, for value ..., deletes) one dotted key; a
    numeric part indexes a list."""
    def edit(doc):
        *parents, last = [int(p) if p.isdigit() else p
                          for p in dotted.split(".")]
        node = doc
        for part in parents:
            node = node[part]
        if value is ...:
            del node[last]
        else:
            node[last] = value
    return edit


def record_sha256(out_dir, name):
    """Record an edited artifact's sha256 in effective_config.json, as the
    step that writes it does, so that the step that reads it parses the
    edit."""
    digest = sha256_of(out_dir, name)
    edit_json(artifact(out_dir, "config"), lambda doc: doc["artifacts"]
              .update({cli.ARTIFACTS[name]: digest}))


def with_key(dotted, value):
    """A text edit of a JSON artifact that applies set_key(dotted, value)."""
    def edit(text):
        doc = json.loads(text)
        set_key(dotted, value)(doc)
        return json.dumps(doc)
    return edit


def with_spec(**fields):
    """A text edit of membership_specs.json that sets fields of its first
    spec, Age's."""
    def edit(text):
        doc = json.loads(text)
        doc["specs"][0].update(fields)
        return json.dumps(doc)
    return edit


def with_extra_spec(column):
    """A text edit of membership_specs.json that appends a copy of its first
    spec for `column`."""
    def edit(text):
        doc = json.loads(text)
        doc["specs"].append({**doc["specs"][0], "column": column})
        return json.dumps(doc)
    return edit


# (artifact, the step that reads it, the edit that leaves it without this
# run's lineage, the artifact the error names besides effective_config.json):
# an edit whose sha256 the run manifest does not record, or a manifest that
# names another train or test split
FOREIGN_ARTIFACTS = [
    pytest.param("config", "mine", without_digest("specs"), "specs",
                 id="specs-no-lineage"),
    pytest.param("specs", "mine", lambda text: "[]", "specs",
                 id="specs-list-root"),
    pytest.param("config", "mine", with_key("train_split", "0" * 64),
                 "importance", id="manifest-other-train-split"),
    pytest.param("config", "report", with_key("test_split", "0" * 64),
                 "patterns", id="manifest-other-test-split"),
]


def corrupt(name, cmd, edit, detail, id, error="ParseError"):
    return pytest.param(name, cmd, edit, error, detail, id=id)


# (artifact, the step that reads it, the edit of its text, the error's class,
# text the error must hold besides the file): corrupt bodies whose sha256
# the run manifest records
CORRUPT_BODIES = [
    corrupt("specs", "mine", with_key("specs.0.alpha", ...), "",
            id="spec-no-alpha"),
    corrupt("specs", "mine", with_key("specs.0.low", [1.0]),
            "column 'Age' term 'low': must hold",
            id="spec-short-low"),
    corrupt("specs", "mine", with_key("specs.0.family", "cubic"),
            "column 'Age': family must be one of",
            id="spec-unknown-family"),
    corrupt("specs", "report", with_key("specs", {"a": 1}), "",
            id="specs-not-a-list"),
    corrupt("specs", "mine",
            with_spec(family="triangular", low=[0.0, 0.0, 5.0],
                      medium=[5.0, 0.0, 10.0], high=[5.0, 10.0, 10.0]),
            "column 'Age' term 'medium': need a <= b <= c",
            id="spec-unordered-vertices"),
    corrupt("specs", "mine",
            with_spec(family="gaussian", low=[0.0, 1.0],
                      medium=[1.0, 0.0], high=[2.0, 1.0]),
            "column 'Age' term 'medium': width must be positive",
            id="spec-zero-width"),
    corrupt("specs", "mine", with_extra_spec("Shop Location"),
            "column 'Shop Location' is not a numeric column",
            id="spec-for-categorical"),
    corrupt("specs", "mine",
            with_key("skipped_zero_importance", ["Shop Location"]),
            "column 'Shop Location' is not a numeric column",
            id="skipped-categorical"),
    corrupt("specs", "report",
            with_key("skipped_zero_importance", ["Region"]),
            "column 'Region' is not a numeric column",
            id="skipped-unknown"),
    corrupt("specs", "mine", with_extra_spec("Age"),
            "column 'Age' has 2 entries", id="spec-twice"),
    corrupt("specs", "report",
            with_key("skipped_zero_importance", ["Age"]),
            "column 'Age' has 2 entries", id="spec-and-skipped"),
    corrupt("specs", "mine", with_key("specs.0", ...),
            "column 'Age' has 0 entries", id="spec-missing"),
    corrupt("baseline", "report", with_key("metrics.auc", "x"), "",
            id="auc-text"),
    corrupt("baseline", "report", with_key("metrics.f1", None), "",
            id="f1-null"),
    corrupt("baseline", "report", with_key("metrics", ...), "",
            id="baseline-no-metrics"),
    corrupt("baseline", "report", with_key("metrics.auc", ...), "",
            id="baseline-no-auc"),
    corrupt("baseline", "report", lambda text: text[:40], "",
            id="baseline-cut"),
    corrupt("baseline", "report", lambda text: "[1]", "",
            id="baseline-list-root"),
    corrupt("model", "report", with_key("trees", ...), "",
            id="model-no-trees"),
    corrupt("model", "report", with_key("params", ...), "",
            id="model-no-params"),
    corrupt("model", "report", with_key("trees.0.weight", []), "",
            id="tree-lengths"),
    corrupt("model", "report", with_key("trees.0.cover", ["8"]), "",
            id="tree-cover-text"),
    corrupt("model", "report", with_key("params.max_depth", 0),
            "max_depth must be >= 1", id="model-max-depth-0"),
    corrupt("model", "report", with_key("trees.0.weight.0", math.nan),
            "tree array 'weight' must hold only finite numbers",
            id="tree-weight-nan"),
    corrupt("specs", "mine", with_spec(source_fingerprint="0" * 64),
            "column 'Age'", error="LineageError", id="spec-foreign-source"),
]

# (the key of model.json edited, its new value): a model that is not this
# run's baseline fit, whose sha256 the run manifest records
FOREIGN_MODELS = [
    pytest.param("trees.0.weight.0", 0.125, id="leaf-weight"),
    pytest.param("trees.0.cover.0", 7, id="cover"),
    pytest.param("params.lambda_l2", 2.0, id="params"),
    pytest.param("params.n_estimators", 4, id="tree-count"),
    pytest.param("feature_names.0", "Region", id="feature-names"),
    pytest.param("base_score", 0.5, id="base-score"),
]


# how a file that a step reads is spoiled: replaced by a directory, or
# given one byte that no UTF-8 text holds
UNREADABLE = ["directory", "not-utf8"]


def spoil(path, how):
    if how == "directory":
        os.remove(path)
        os.mkdir(path)
    else:
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:len(data) // 2] + b"\xff"
                               + data[len(data) // 2:])


def assert_exits_2_naming(argv, path, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[") and str(path) in err, err


def encoded_train_split(cfg_path):
    """The frame mine encodes: membership_specs.json over the train split."""
    cfg = cli.load_config(cfg_path)
    splits = cli._load_splits(cfg)
    train_ds = splits[0]
    specs, skipped = cli._read_specs(cfg, cli._start(cfg, splits), train_ds)
    return cli._encode(train_ds, specs, skipped)


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("{not json")
        assert cli.main(["train", "--config", str(p)]) == 2

    @pytest.mark.parametrize("how", UNREADABLE)
    def test_unreadable_config_exits_2(self, tmp_path, capsys, how):
        cfg_path, _ = make_project(tmp_path)
        spoil(cfg_path, how)
        assert_exits_2_naming(["train", "--config", cfg_path], cfg_path,
                              capsys)

    @pytest.mark.parametrize("how", UNREADABLE)
    def test_unreadable_input_csv_exits_2(self, tmp_path, capsys, how):
        cfg_path, _ = make_project(tmp_path)
        spoil(tmp_path / "input.csv", how)
        assert_exits_2_naming(["train", "--config", cfg_path],
                              tmp_path / "input.csv", capsys)

    @pytest.mark.parametrize("cmd", ["train", "fuzzify", "mine", "report"])
    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, capsys, cmd):
        cfg_path, out = make_project(tmp_path)
        Path(out).write_text("not a directory\n", encoding="utf-8")
        assert_exits_2_naming([cmd, "--config", cfg_path], out, capsys)

    def test_output_dir_below_a_file_exits_2(self, tmp_path, capsys):
        cfg_path, out = make_project(tmp_path)
        Path(out).write_text("not a directory\n", encoding="utf-8")
        below = os.path.join(out, "run")
        assert_exits_2_naming(["train", "--config", cfg_path,
                               "--output_dir", below], below, capsys)

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
        assert read_json(out, "config")["split"]["seed"] == 7

    def test_override_equals_syntax(self, tmp_path):
        cfg_path, _ = make_project(tmp_path)
        out2 = str(tmp_path / "out2")
        for cmd in ("train", "fuzzify", "mine"):
            assert cli.main([cmd, "--config", cfg_path, "--mining.k=3",
                             "--output_dir", out2]) == 0
        lines = read_text(out2, "patterns").strip().splitlines()
        assert len(lines) == 3

    def test_value_missing_for_override(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path, "--split.seed"]) == 2

    @pytest.mark.parametrize("key, value", [
        ("report.cumulative", '"false"'),
        ("mining.k", "2.9"),
        ("boost.max_depth", "3.7"),
        ("mining.k", "true"),
        ("boost.n_estimators", '"5"'),
        ("boost.seed", "3"),  # not a config key
        ("boost.lambda_l2", "NaN"),
        ("boost.min_child_weight", "Infinity"),
    ])
    def test_value_is_never_reinterpreted(self, tmp_path, capsys, key, value):
        cfg_path, _ = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path, f"--{key}", value]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_readme_config_block_holds_the_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1]
        block = block.split("```json\n", 1)[1].split("```", 1)[0]
        documented = json.loads(block)
        got = cli.PipelineConfig.from_dict(documented).effective_dict()
        del got["config_version"], got["shuffle_algorithm"]
        assert got == documented


class TestTrain:
    def test_writes_model_importance_baseline(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        model = read_model(out)
        assert model.feature_names == ["Shop Location", "Age", "Spending"]
        imp = read_text(out, "importance")
        assert imp.startswith("feature,score\n") and "#" not in imp
        baseline = read_json(out, "baseline")
        assert set(baseline["metrics"]) == {"auc", "accuracy", "recall",
                                            "precision", "f1"}
        assert "lineage" not in baseline
        assert read_json(out, "config")["artifacts"] == {
            cli.ARTIFACTS[n]: sha256_of(out, n)
            for n in ("model", "importance", "baseline")}

    def test_effective_config_records_everything(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        doc = read_json(out, "config")
        assert doc["config_version"] == 1
        assert "splitmix64" in doc["shuffle_algorithm"]
        assert doc["boost"]["n_estimators"] == 5
        assert doc["mining"]["k"] == 5
        cfg = cli.load_config(cfg_path)
        train_ds, test_ds = cli._load_splits(cfg)
        assert doc["fingerprint"] == cfg.fingerprint()
        assert doc["train_split"] == train_ds.fingerprint()
        assert doc["test_split"] == test_ds.fingerprint()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        first = {n: Path(artifact(out, n)).read_bytes()
                 for n in ("model", "importance", "baseline", "config")}
        assert cli.main(["train", "--config", cfg_path]) == 0
        for name, blob in first.items():
            assert Path(artifact(out, name)).read_bytes() == blob, name

    def test_missing_external_importance(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        rc = cli.main(["train", "--config", cfg_path,
                       "--importance.path", str(tmp_path / "none.csv")])
        assert rc == 3
        assert "none.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("how", UNREADABLE)
    def test_unreadable_external_importance_exits_2(self, tmp_path, capsys,
                                                    how):
        cfg_path, _ = make_project(tmp_path)
        spoil(tmp_path / "ext_importance.csv", how)
        assert_exits_2_naming(["train", "--config", cfg_path],
                              tmp_path / "ext_importance.csv", capsys)

    @pytest.mark.parametrize("column", ["Age", "Shop Location"])
    def test_external_importance_without_a_feature_exits_2(
            self, tmp_path, capsys, monkeypatch, column):
        # a missing numeric column must not pass as unimportant, nor a
        # missing categorical one fail only in mine, after two steps wrote
        text = "".join(line for line in EXTERNAL_IMPORTANCE.splitlines(True)
                       if not line.startswith(column + ","))
        cfg_path, out = make_project(tmp_path, importance_text=text)
        fits = []
        monkeypatch.setattr(cli.gbdt, "train", lambda *a: fits.append(a))
        assert cli.main(["train", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "MissingImportance" in err and repr(column) in err
        assert not fits  # the table is checked before the fit
        assert not os.path.exists(artifact(out, "model"))

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
        assert read_text(out, "importance").startswith("feature,score\n")

    def test_non_finite_fit_writes_nothing(self, tmp_path, capsys):
        # with lambda_l2 0, pure-leaf rounds saturate p to 0 or 1 and some
        # hessian sums to 0; tree 71 is the first whose gains are infinite
        cfg_path, out = make_project(
            tmp_path, {"importance": {"method": "gain", "path": None},
                       "boost": {"n_estimators": 100, "lambda_l2": 0.0,
                                 "min_child_weight": 0.0,
                                 "learning_rate": 1.0}})
        assert cli.main(["train", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]"), err
        assert "tree 71 node 0" in err and "boost.lambda_l2" in err
        assert os.listdir(out) == []


class TestFuzzify:
    def test_writes_specs_that_encode_the_train_split(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        assert cli.main(["fuzzify", "--config", cfg_path]) == 0
        specs_doc = read_json(out, "specs")
        assert [s["column"] for s in specs_doc["specs"]] == ["Age", "Spending"]
        assert [e["column"] for e in specs_doc["normality_log"]] == \
            ["Age", "Spending"]
        frame = encoded_train_split(cfg_path)
        assert "Shop Location=N" in frame.item_names
        assert "Age_L" in frame.item_names
        assert frame.n_rows == 8  # train split only

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
        specs_doc = read_json(out, "specs")
        assert specs_doc["specs"] == []
        assert sorted(specs_doc["skipped_zero_importance"]) == \
            ["Age", "Spending"]
        frame = encoded_train_split(cfg_path)
        assert frame.item_names
        assert all("=" in name for name in frame.item_names)

    def test_importance_artifact_without_a_feature_exits_2(self, tmp_path,
                                                           capsys):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        path = Path(artifact(out, "importance"))
        path.write_text("".join(
            line for line in path.read_text().splitlines(True)
            if not line.startswith("Age,")))
        record_sha256(out, "importance")
        capsys.readouterr()
        assert cli.main(["fuzzify", "--config", cfg_path]) == 2
        assert "MissingImportance" in capsys.readouterr().err
        assert not os.path.exists(artifact(out, "specs"))

    def test_duplicate_item_names_write_no_specs(self, tmp_path, capsys):
        cfg_path, out = make_project(
            tmp_path, csv_text=DUPLICATE_ITEMS_CSV,
            importance_text=DUPLICATE_ITEMS_IMPORTANCE)
        assert cli.main(["train", "--config", cfg_path]) == 0
        assert cli.main(["fuzzify", "--config", cfg_path]) == 2
        assert "DuplicateItemName" in capsys.readouterr().err
        assert not os.path.exists(artifact(out, "specs"))

    def test_id_like_categorical_column_writes_no_specs(self, tmp_path,
                                                        capsys):
        # a text identifier left out of drop_columns: one value per row;
        # every step refuses it before it fits or writes anything
        rows = "\n".join(f"acct{i},{i % 7},{i % 2}"
                         for i in range(fuzzify.MAX_CATEGORIES + 1))
        cfg_path, out = make_project(
            tmp_path, config_extra={"drop_columns": []},
            csv_text="Account,x,Churn\n" + rows + "\n",
            importance_text="feature,score\nAccount,0.5\nx,1.0\n")
        for cmd in cli._COMMANDS:
            capsys.readouterr()
            assert cli.main([cmd, "--config", cfg_path]) == 2, cmd
            err = capsys.readouterr().err
            assert err.startswith("error[TooManyCategories]"), err
            assert "'Account' has 1001 distinct values" in err
            assert "drop_columns" in err
        assert not os.path.exists(out)

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
        lines = read_text(out, "patterns").strip().splitlines()
        meta = read_json(out, "patterns_meta")
        assert len(lines) == meta["n_patterns"] == 5
        first = json.loads(lines[0])
        assert set(first) == {"items", "utility", "support"}
        txt = read_text(out, "patterns_txt")
        assert txt.startswith("Top-5 patterns by utility")
        assert "config: " in txt

    def test_patterns_sorted_by_utility(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        utilities = [json.loads(l)["utility"] for l in
                     read_text(out, "patterns").strip().splitlines()]
        assert utilities == sorted(utilities, reverse=True)

    def test_meta_counters_byte_identical_on_rerun(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        first = Path(artifact(out, "patterns_meta")).read_bytes()
        self.run_through(cfg_path, "mine")
        assert Path(artifact(out, "patterns_meta")).read_bytes() == first
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
        assert read_json(out, "patterns_meta")["mode"] == "membership"

    def test_report_artifacts(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine", "report")
        doc = read_json(out, "report")
        assert set(doc) >= {"baseline", "per_pattern", "average", "flags",
                            "average_flags", "config_fingerprint"}
        assert "lineage" not in doc
        assert sorted(doc["per_pattern"]) == ["1", "2", "3", "4", "5"]
        md = read_text(out, "report_md")
        assert "| Metric | Baseline | Top-1 | Top-2 | Top-3 | Top-4 | Top-5 | AVG |" in md
        for metric in ("AUC", "Accuracy", "Recall", "Precision", "F1"):
            assert f"| {metric} |" in md

    def test_report_without_patterns_exits_3(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify")
        rc = cli.main(["report", "--config", cfg_path])
        assert rc == 3
        assert "patterns" in capsys.readouterr().err

    def test_mine_without_specs_exits_3(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train")
        assert cli.main(["mine", "--config", cfg_path]) == 3
        assert "membership specs" in capsys.readouterr().err

    def copy_from_another_config(self, tmp_path, out, name, config_extra,
                                 *cmds):
        """Replace artifact `name` in out by that of a run of another
        config."""
        (tmp_path / "other").mkdir()
        other_cfg, other_out = make_project(tmp_path / "other", config_extra)
        self.run_through(other_cfg, *cmds)
        Path(artifact(out, name)).write_bytes(
            Path(artifact(other_out, name)).read_bytes())

    def assert_lineage_error(self, cmd, cfg_path, out, name, capsys):
        capsys.readouterr()
        assert cli.main([cmd, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[LineageError]"), err
        assert artifact(out, name) in err and artifact(out, "config") in err
        assert not os.path.exists(artifact(out, "report"))

    def test_mine_rejects_specs_of_another_config(self, tmp_path, capsys):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify")
        self.copy_from_another_config(tmp_path, out, "specs",
                                      {"split": {"seed": 3}},
                                      "train", "fuzzify")
        self.assert_lineage_error("mine", cfg_path, out, "specs", capsys)

    @pytest.mark.parametrize("name, cmd, edit, named", FOREIGN_ARTIFACTS)
    def test_artifact_without_this_runs_lineage_exits_2(self, tmp_path, capsys,
                                                         name, cmd, edit,
                                                         named):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        path = Path(artifact(out, name))
        path.write_text(edit(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        self.assert_lineage_error(cmd, cfg_path, out, named, capsys)

    @pytest.mark.parametrize("name, cmd", [
        ("importance", "fuzzify"), ("model", "report"),
        ("baseline", "report"), ("specs", "mine")])
    def test_one_byte_edit_of_an_artifact_exits_2(self, tmp_path, capsys,
                                                  name, cmd):
        # a digit after the first decimal point changes: the file still
        # parses, with another number
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        path = Path(artifact(out, name))
        data = bytearray(path.read_bytes())
        at = data.index(b".") + 1
        data[at] = ord(str((int(chr(data[at])) + 1) % 10))
        path.write_bytes(bytes(data))
        self.assert_lineage_error(cmd, cfg_path, out, name, capsys)

    def test_changed_test_split_exits_2(self, tmp_path, capsys):
        # the labels of the test rows flip and the train rows stay: the
        # baseline metrics and the manifest were taken on another test split.
        # Split seed 3 keeps rows A and B, whose labels give the order of the
        # label's values, in the train split.
        cfg_path, out = make_project(tmp_path, {"split": {"seed": 3}})
        self.run_through(cfg_path, "pipeline")
        cfg = cli.load_config(cfg_path)
        header, *rows = Path(cfg.input).read_text().splitlines(True)
        perm = rng.shuffled_indices(len(rows), cfg.split.seed)
        for i in perm[int(cfg.split.fraction * len(rows)):]:
            rows[i] = rows[i][:-2] + str(1 - int(rows[i][-2])) + "\n"
        Path(cfg.input).write_text(header + "".join(rows))
        os.remove(artifact(out, "report"))
        self.assert_lineage_error("report", cfg_path, out, "patterns", capsys)

    @pytest.mark.parametrize("name, cmd, key, message",
                             ARTIFACTS_MISSING_A_KEY)
    def test_artifact_missing_a_key_exits_2(self, tmp_path, capsys, name, cmd,
                                            key, message):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        path = Path(artifact(out, name))
        path.write_text(without_key(key)(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        record_sha256(out, name)
        capsys.readouterr()
        assert cli.main([cmd, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert cli.ARTIFACTS[name] in err and message in err

    @pytest.mark.parametrize("name, cmd, edit, error, detail", CORRUPT_BODIES)
    def test_corrupt_artifact_body_exits_2(self, tmp_path, capsys, name, cmd,
                                           edit, error, detail):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        path = Path(artifact(out, name))
        path.write_text(edit(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        record_sha256(out, name)
        capsys.readouterr()
        assert cli.main([cmd, "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert f"error[{error}]" in err and cli.ARTIFACTS[name] in err
        assert detail in err, err
        assert not os.path.exists(artifact(out, "report"))

    @pytest.mark.parametrize("how", UNREADABLE)
    @pytest.mark.parametrize("name, cmd", [
        ("importance", "fuzzify"), ("specs", "mine"), ("patterns", "report"),
        ("config", "report"), ("baseline", "report"), ("model", "report")])
    def test_unreadable_artifact_exits_2(self, tmp_path, capsys, name, cmd,
                                         how):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        spoil(artifact(out, name), how)
        assert_exits_2_naming([cmd, "--config", cfg_path],
                              artifact(out, name), capsys)
        assert not os.path.exists(artifact(out, "report"))

    @pytest.mark.parametrize("key, value", FOREIGN_MODELS)
    def test_model_that_is_not_the_baseline_fit_exits_2(self, tmp_path,
                                                         capsys, key, value):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        edit_json(artifact(out, "model"), set_key(key, value))
        record_sha256(out, "model")
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "PrefixMismatch" in err and cli.ARTIFACTS["model"] in err
        assert not os.path.exists(artifact(out, "report"))

    def test_model_of_another_config_exits_2(self, tmp_path, capsys):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        self.copy_from_another_config(tmp_path, out, "model",
                                      {"boost": {"lambda_l2": 2.0}}, "train")
        self.assert_lineage_error("report", cfg_path, out, "model", capsys)

    def test_report_without_model_exits_3(self, tmp_path, capsys):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        os.remove(artifact(out, "model"))
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path]) == 3
        assert cli.ARTIFACTS["model"] in capsys.readouterr().err

    def test_report_prints_the_reused_trees_only(self, tmp_path, capsys):
        # no tree of the tiny table splits, so every retrain reuses all five
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        capsys.readouterr()
        self.run_through(cfg_path, "report")
        assert ("baseline trees reused: top-1 5/5, top-2 5/5, top-3 5/5, "
                "top-4 5/5, top-5 5/5\n") in capsys.readouterr().out
        for name in ("report", "report_md"):
            assert "reused" not in read_text(out, name)

    def test_mine_with_no_specs(self, tmp_path):
        # every numeric column has zero importance: the frame is one-hot only
        cfg_path, out = make_project(
            tmp_path,
            importance_text="feature,score\nShop Location,1.0\nAge,0\nSpending,0\n")
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        assert read_json(out, "config")["artifacts"] == {
            cli.ARTIFACTS[n]: sha256_of(out, n)
            for n in ("model", "importance", "baseline", "specs", "patterns",
                      "patterns_txt", "patterns_meta")}
        assert read_json(out, "patterns_meta")["n_items"] > 0

    def test_stale_frame_json_ignored(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        first = Path(artifact(out, "patterns")).read_bytes()
        Path(out, "frame.json").write_text("not json")
        self.run_through(cfg_path, "mine")
        assert Path(artifact(out, "patterns")).read_bytes() == first

    def test_stale_lineage_rejected(self, tmp_path, capsys):
        cfg_path, _ = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify")
        # re-run mine under a different split seed: every artifact in the
        # output dir was produced by a different effective config
        rc = cli.main(["mine", "--config", cfg_path, "--split.seed", "3"])
        assert rc == 2
        assert "lineage" in capsys.readouterr().err.lower()

    def test_report_item_missing_from_frame_exits_2(self, tmp_path, capsys):
        # Age has zero importance, so fuzzify skips it and no frame has Age_L
        cfg_path, out = make_project(
            tmp_path,
            importance_text="feature,score\nShop Location,1.0\nAge,0\n"
                            "Spending,0.5\n")
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        Path(artifact(out, "patterns")).write_text(
            json.dumps({"items": ["Age_L", "Spending_M"], "utility": 1.0,
                        "support": 2}) + "\n", encoding="utf-8")
        record_sha256(out, "patterns")
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "UnresolvableItem" in err and "'Age_L'" in err
        assert not os.path.exists(artifact(out, "report"))

    @pytest.mark.parametrize("line", [
        {"items": ["Age_L", "Spending_M"], "utility": "x", "support": 2},
        {"items": "Age_L", "utility": 1.0, "support": 2},
        {"items": ["Age_L"], "utility": 1.0, "support": 0},
    ])
    def test_report_malformed_pattern_line_exits_2(self, tmp_path, capsys,
                                                   line):
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        with open(artifact(out, "patterns"), "a", encoding="utf-8") as f:
            f.write(json.dumps(line) + "\n")
        record_sha256(out, "patterns")
        n_lines = len(read_text(out, "patterns").splitlines())
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err
        assert f"patterns.jsonl:{n_lines}:" in err
        assert not os.path.exists(artifact(out, "report"))

    def test_patterns_of_another_config_exit_2(self, tmp_path, capsys):
        # a k=3 run's patterns copied over this run's: this run's
        # effective_config.json records other bytes
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        self.copy_from_another_config(tmp_path, out, "patterns",
                                      {"mining": {"k": 3}},
                                      "train", "fuzzify", "mine")
        self.assert_lineage_error("report", cfg_path, out, "patterns", capsys)

    def test_one_byte_edit_of_patterns_exits_2(self, tmp_path, capsys):
        # a first support of s becomes s+1 (or 0): still valid patterns
        cfg_path, out = make_project(tmp_path)
        self.run_through(cfg_path, "train", "fuzzify", "mine")
        path = Path(artifact(out, "patterns"))
        data = bytearray(path.read_bytes())
        at = data.index(b'"support": ') + len(b'"support": ')
        data[at] = ord(str((int(chr(data[at])) + 1) % 10))
        path.write_bytes(bytes(data))
        self.assert_lineage_error("report", cfg_path, out, "patterns", capsys)

    def test_cumulative_report(self, tmp_path):
        cfg_path, out = make_project(tmp_path,
                                     {"report": {"cumulative": True}})
        self.run_through(cfg_path, "train", "fuzzify", "mine", "report")
        assert len(read_json(out, "report")["per_pattern"]) == 5


class TestPipelineCommand:
    def test_duplicate_item_names_exit_2(self, tmp_path, capsys):
        cfg_path, _ = make_project(
            tmp_path, csv_text=DUPLICATE_ITEMS_CSV,
            importance_text=DUPLICATE_ITEMS_IMPORTANCE)
        assert cli.main(["pipeline", "--config", cfg_path]) == 2
        assert "DuplicateItemName" in capsys.readouterr().err

    def test_csv_parsed_once_and_no_frame_written(self, tmp_path,
                                                  monkeypatch):
        calls = []
        real_load_csv = cli.load_csv

        def counting_load_csv(*args, **kwargs):
            calls.append(args)
            return real_load_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting_load_csv)
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["pipeline", "--config", cfg_path]) == 0
        assert len(calls) == 1
        assert not os.path.exists(os.path.join(out, "frame.json"))

    def test_one_encoder_for_train_and_test_rows(self, tmp_path,
                                                 monkeypatch):
        calls = []
        real_to_binary_frame = fuzzify.to_binary_frame

        def counting_to_binary_frame(ds, specs):
            calls.append(ds.n_rows)
            return real_to_binary_frame(ds, specs)

        monkeypatch.setattr(fuzzify, "to_binary_frame",
                            counting_to_binary_frame)
        cfg_path, _ = make_project(tmp_path)
        assert cli.main(["pipeline", "--config", cfg_path]) == 0
        # mine: train split; report: train split, then test split
        assert calls == [8, 8, 2]
        assert not hasattr(augment, "assign_term")

    def test_baseline_carries_training_counters(self, tmp_path):
        cfg_path, out = make_project(tmp_path)
        assert cli.main(["train", "--config", cfg_path]) == 0
        doc = read_json(out, "baseline")
        model = read_model(out)
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
        combined = {n: Path(artifact(out, n)).read_bytes()
                    for n in cli.ARTIFACTS}
        shutil.rmtree(out)
        for cmd in ("train", "fuzzify", "mine", "report"):
            assert cli.main([cmd, "--config", cfg_path]) == 0
        for name, blob in combined.items():
            assert Path(artifact(out, name)).read_bytes() == blob, name

    def test_failed_retrain_exits_2_and_leaves_no_worker(self, tmp_path,
                                                         monkeypatch, capsys):
        cfg_path, _ = make_project(tmp_path)
        assert cli.main(["pipeline", "--config", cfg_path]) == 0
        assert multiprocessing.active_children() == []

        def failing_train(ds, params, stats=None, prefix=None):
            raise SingleClassTraining("every retrain fails here")

        monkeypatch.setattr(augment, "train", failing_train)
        capsys.readouterr()
        assert cli.main(["report", "--config", cfg_path]) == 2
        assert "SingleClassTraining" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


def _src_env():
    """The environment of a child that imports the package this process did."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_point(tmp_path):
    cfg_path, out = make_project(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "hafcp.cli", "train", "--config", cfg_path],
        capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(artifact(out, "model"))
    assert "wrote" in proc.stdout


def test_import_loads_no_pool_or_ctypes():
    # set-up time is the import of hafcp.cli; the pool imports its modules
    # when it runs. numpy imports ctypes itself, so each module is checked
    # against a bare numpy import.
    code = ("import json, sys; import numpy; before = set(sys.modules); "
            "import hafcp.cli; print(json.dumps({m: [m in before, "
            "m in sys.modules] for m in sys.argv[1:]}))")
    names = ["multiprocessing", "concurrent.futures", "ctypes"]
    proc = subprocess.run([sys.executable, "-c", code, *names],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    for name, (by_numpy, after) in loaded.items():
        assert after == by_numpy, name
    assert not any(loaded["multiprocessing"] + loaded["concurrent.futures"])


def run_fresh(code, *args, env=None):
    """The JSON that `code` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env=env or _src_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# the number of threads of this process, from /proc
THREADS = ("import re\n"
           "def threads():\n"
           "    with open('/proc/self/status') as f:\n"
           "        return int(re.search(r'Threads:\\s*(\\d+)', "
           "f.read()).group(1))\n")


class TestLazyImport:
    def test_package_import_loads_no_numpy(self):
        assert run_fresh("import json, sys, hafcp; "
                         "print(json.dumps('numpy' in sys.modules))") is False

    def test_every_exported_name_is_its_modules_object(self):
        code = ("import json, sys, hafcp\n"
                "out = {}\n"
                "for name in hafcp.__all__:\n"
                "    obj = getattr(hafcp, name)\n"
                "    home = getattr(obj, '__module__', 'hafcp')\n"
                "    out[name] = [home, getattr(sys.modules[home], name) is obj]\n"
                "print(json.dumps(out))")
        found = run_fresh(code)
        assert sorted(found) == sorted(hafcp.__all__)
        for name, (home, same) in found.items():
            assert home.startswith("hafcp") and same, name
        assert found["__version__"] == ["hafcp", True]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hafcp.no_such_name
        assert set(hafcp.__all__) <= set(dir(hafcp))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="thread counts are read from /proc")
class TestOneBlasThread:
    def test_cli_import_loads_numpy_on_one_thread(self):
        code = THREADS + "import json, hafcp.cli; print(json.dumps(threads()))"
        assert run_fresh(code) == 1

    def test_numpy_imported_first_keeps_its_threads(self):
        code = (THREADS + "import json, numpy; bare = threads(); "
                "import hafcp.cli; print(json.dumps([bare, threads()]))")
        bare, after = run_fresh(code)
        assert after == bare

    def test_library_import_keeps_numpys_threads(self):
        code = (THREADS + "import json, hafcp.miner, hafcp.augment; "
                "print(json.dumps(threads()))")
        bare = run_fresh(THREADS + "import json, numpy; "
                                   "print(json.dumps(threads()))")
        assert run_fresh(code) == bare


@pytest.mark.parametrize("preset", [None, "3"])
def test_cli_import_leaves_the_environment_as_it_was(preset):
    env = _src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import json, os; before = dict(os.environ); import hafcp.cli; "
            "print(json.dumps([before == dict(os.environ), "
            "os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert run_fresh(code, env=env) == [True, preset]
