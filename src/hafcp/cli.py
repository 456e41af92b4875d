"""Pipeline CLI: train -> fuzzify -> mine -> report over durable artifacts.

Each subcommand reads one JSON config (plus --dotted.key value overrides),
re-derives its inputs deterministically, and writes artifacts into the
config's output directory. Every artifact embeds the config fingerprint and
the content fingerprints of its inputs; downstream subcommands refuse to
combine artifacts whose lineage does not match the current config. All
writes are atomic and all randomness flows from config seeds, so rerunning
any subcommand with unchanged inputs reproduces byte-identical files.

Exit codes: 0 success, 1 internal error, 2 input/config error (including
lineage mismatches), 3 missing artifact file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import augment, fuzzify, gbdt, miner, rng
from ._util import atomic_write_text, fingerprint_of, jsonable
from .dataset import ColumnarDataset, SplitSpec, drop_columns, load_csv, split
from .errors import ConfigError, HafcpError, LineageError, MissingArtifact

CONFIG_VERSION = 1

ARTIFACTS = {
    "config": "effective_config.json",
    "model": "model.json",
    "importance": "importance.csv",
    "baseline": "metrics_baseline.json",
    "specs": "membership_specs.json",
    "frame": "frame.json",
    "patterns": "patterns.jsonl",
    "patterns_txt": "patterns.txt",
    "patterns_meta": "patterns.meta.json",
    "report": "report.json",
    "report_md": "report.md",
}


@dataclass
class PipelineConfig:
    input: str
    label_column: str
    positive_label: str
    output_dir: str
    drop_columns: list[str] = field(default_factory=list)
    split: SplitSpec = field(default_factory=SplitSpec)
    boost: gbdt.BoostParams = field(default_factory=gbdt.BoostParams)
    importance_method: str = "gain"
    importance_path: str | None = None
    normality_alpha: float = 0.05
    mining: miner.MiningConfig = field(
        default_factory=lambda: miner.MiningConfig(k=5))
    cumulative: bool = False
    threshold: float = 0.5

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {"input", "label_column", "positive_label", "output_dir",
                 "drop_columns", "split", "boost", "importance",
                 "normality_alpha", "mining", "report"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("input", "label_column", "positive_label", "output_dir"):
            if key not in raw or not isinstance(raw[key], str) or not raw[key]:
                raise ConfigError(f"config key {key!r} must be a non-empty string")

        def section(name: str, defaults: dict) -> dict:
            got = raw.get(name, {})
            if not isinstance(got, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            bad = set(got) - set(defaults)
            if bad:
                raise ConfigError(f"unknown keys in {name!r}: {sorted(bad)}")
            merged = dict(defaults)
            merged.update(got)
            return merged

        split_d = section("split", {"fraction": 0.8, "seed": 0})
        boost_d = section("boost", {"max_depth": 6, "learning_rate": 0.3,
                                    "n_estimators": 100,
                                    "min_child_weight": 1.0,
                                    "lambda_l2": 1.0, "seed": 0})
        imp_d = section("importance", {"method": "gain", "path": None})
        mine_d = section("mining", {"k": 5, "min_length": 2,
                                    "max_length": None, "mode": "binary",
                                    "algorithm": "exact"})
        report_d = section("report", {"cumulative": False, "threshold": 0.5})

        drops = raw.get("drop_columns", [])
        if not isinstance(drops, list) or not all(isinstance(d, str) for d in drops):
            raise ConfigError("drop_columns must be a list of column names")
        alpha = raw.get("normality_alpha", 0.05)
        if not isinstance(alpha, (int, float)) or not 0.0 < alpha < 1.0:
            raise ConfigError(f"normality_alpha must be in (0,1), got {alpha}")
        method = imp_d["method"]
        if method not in ("gain", "path_attribution", "external"):
            raise ConfigError(f"unknown importance method {method!r}")
        if method == "external" and not imp_d["path"]:
            raise ConfigError("importance.path is required for method external")
        try:
            fraction = float(split_d["fraction"])
            seed = int(split_d["seed"])
            if seed < 0:
                raise ConfigError("split.seed must be >= 0")
            boost = gbdt.BoostParams(
                max_depth=int(boost_d["max_depth"]),
                learning_rate=float(boost_d["learning_rate"]),
                n_estimators=int(boost_d["n_estimators"]),
                min_child_weight=float(boost_d["min_child_weight"]),
                lambda_l2=float(boost_d["lambda_l2"]),
                seed=int(boost_d["seed"])).validate()
            mining = miner.MiningConfig(
                k=int(mine_d["k"]),
                min_length=int(mine_d["min_length"]),
                max_length=(None if mine_d["max_length"] is None
                            else int(mine_d["max_length"])),
                mode=str(mine_d["mode"]),
                algorithm=str(mine_d["algorithm"])).validate()
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed config value: {e}") from None
        if not 0.0 < fraction < 1.0:
            raise ConfigError(f"split.fraction must be in (0,1), got {fraction}")
        threshold = report_d["threshold"]
        if not isinstance(threshold, (int, float)) or not 0.0 <= threshold <= 1.0:
            raise ConfigError("report.threshold must be in [0,1]")

        return cls(input=raw["input"], label_column=raw["label_column"],
                   positive_label=raw["positive_label"],
                   output_dir=raw["output_dir"], drop_columns=list(drops),
                   split=SplitSpec(train_fraction=fraction, seed=seed),
                   boost=boost, importance_method=method,
                   importance_path=imp_d["path"],
                   normality_alpha=float(alpha), mining=mining,
                   cumulative=bool(report_d["cumulative"]),
                   threshold=float(threshold))

    def effective_dict(self) -> dict:
        return {
            "config_version": CONFIG_VERSION,
            "shuffle_algorithm": rng.ALGORITHM,
            "input": self.input,
            "label_column": self.label_column,
            "positive_label": self.positive_label,
            "output_dir": self.output_dir,
            "drop_columns": list(self.drop_columns),
            "split": {"fraction": self.split.train_fraction,
                      "seed": self.split.seed},
            "boost": {"max_depth": self.boost.max_depth,
                      "learning_rate": self.boost.learning_rate,
                      "n_estimators": self.boost.n_estimators,
                      "min_child_weight": self.boost.min_child_weight,
                      "lambda_l2": self.boost.lambda_l2,
                      "seed": self.boost.seed},
            "importance": {"method": self.importance_method,
                           "path": self.importance_path},
            "normality_alpha": self.normality_alpha,
            "mining": {"k": self.mining.k,
                       "min_length": self.mining.min_length,
                       "max_length": self.mining.max_length,
                       "mode": self.mining.mode,
                       "algorithm": self.mining.algorithm},
            "report": {"cumulative": self.cumulative,
                       "threshold": self.threshold},
        }

    def fingerprint(self) -> str:
        return fingerprint_of(self.effective_dict())

    def artifact(self, name: str) -> str:
        return os.path.join(self.output_dir, ARTIFACTS[name])


def _apply_overrides(doc: dict, overrides: dict[str, str]) -> dict:
    for dotted, raw_value in overrides.items():
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return doc


def load_config(path: str, overrides: dict[str, str] | None = None) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    if overrides:
        doc = _apply_overrides(doc, overrides)
    return PipelineConfig.from_dict(doc)


def _load_splits(cfg: PipelineConfig):
    try:
        ds = load_csv(cfg.input, cfg.label_column, cfg.positive_label)
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {cfg.input}") from None
    if cfg.drop_columns:
        ds = drop_columns(ds, cfg.drop_columns)
    train_ds, test_ds = split(ds, cfg.split)
    return ds, train_ds, test_ds


def _write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(jsonable(doc), indent=1,
                                       sort_keys=True) + "\n")


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise MissingArtifact(f"{what} artifact not found: {path}") from None
    except json.JSONDecodeError as e:
        raise HafcpError(f"{what} artifact {path} is corrupt: {e}") from None


def _require_lineage(found: str, expected: str, what: str) -> None:
    if found != expected:
        raise LineageError(
            f"{what} lineage mismatch: artifact carries {found[:12]}..., "
            f"current run expects {expected[:12]}...")


def _write_effective_config(cfg: PipelineConfig) -> None:
    doc = cfg.effective_dict()
    doc["fingerprint"] = cfg.fingerprint()
    _write_json(cfg.artifact("config"), doc)


def _read_importance_lineage(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("# lineage "):
                    return json.loads(line[len("# lineage "):])
    except FileNotFoundError:
        raise MissingArtifact(f"importance artifact not found: {path}") from None
    return None


def cmd_train(cfg: PipelineConfig) -> None:
    """Split, train the baseline model, evaluate it, export importance."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg_fp = cfg.fingerprint()
    ds, train_ds, test_ds = _load_splits(cfg)
    stats = gbdt.TrainStats()
    model = gbdt.train(train_ds, cfg.boost, stats)
    probs = gbdt.predict_proba(model, test_ds)
    metrics = gbdt.evaluate(test_ds.label, probs, threshold=cfg.threshold)

    if cfg.importance_method == "external":
        try:
            table = gbdt.load_importance(cfg.importance_path)
        except FileNotFoundError:
            raise MissingArtifact(
                f"external importance file not found: {cfg.importance_path}"
            ) from None
    else:
        table = gbdt.importance(model, train_ds, cfg.importance_method)

    lineage = {"config": cfg_fp, "dataset": ds.fingerprint(),
               "train_split": train_ds.fingerprint(),
               "test_split": test_ds.fingerprint()}
    gbdt.save_model(model, cfg.artifact("model"), lineage=lineage)
    gbdt.write_importance(table, cfg.artifact("importance"),
                          lineage=dict(lineage, method=table.method))
    _write_json(cfg.artifact("baseline"),
                {"metrics": metrics.as_dict(), "threshold": cfg.threshold,
                 **stats.to_dict(), "lineage": lineage})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('model')}")
    print(f"wrote {cfg.artifact('importance')}")
    print(f"wrote {cfg.artifact('baseline')}")


def _fuzzify_inputs(cfg: PipelineConfig):
    """Shared by fuzzify/mine/report: splits, importance, skip set, frame dataset."""
    ds, train_ds, test_ds = _load_splits(cfg)
    imp_path = cfg.artifact("importance")
    try:
        table = gbdt.load_importance(imp_path)
    except FileNotFoundError:
        raise MissingArtifact(f"importance artifact not found: {imp_path}") from None
    lineage = _read_importance_lineage(imp_path)
    if lineage is not None:
        _require_lineage(lineage.get("config", ""), cfg.fingerprint(),
                         "importance file")
        _require_lineage(lineage.get("train_split", ""),
                         train_ds.fingerprint(), "importance train split")
    skipped = [name for name in train_ds.numeric_columns()
               if table.scores.get(name, 0.0) == 0.0]
    frame_train = drop_columns(train_ds, skipped) if skipped else train_ds
    return ds, train_ds, test_ds, table, skipped, frame_train


def cmd_fuzzify(cfg: PipelineConfig) -> None:
    """Fit membership specs on the train split and one-hot encode it."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg_fp = cfg.fingerprint()
    ds, train_ds, test_ds, table, skipped, frame_train = _fuzzify_inputs(cfg)

    specs, normality_log = fuzzify.fit_all_memberships(
        train_ds, alpha=cfg.normality_alpha, seed=cfg.split.seed,
        skip=set(skipped))
    if not specs:
        print("warning: no numeric columns to fuzzify; frame is one-hot only",
              file=sys.stderr)
    frame = fuzzify.to_binary_frame(frame_train, specs)

    lineage = {"config": cfg_fp, "dataset": ds.fingerprint(),
               "train_split": train_ds.fingerprint()}
    _write_json(cfg.artifact("specs"),
                {"specs": [s.to_dict() for s in specs],
                 "normality_log": normality_log,
                 "skipped_zero_importance": skipped,
                 "lineage": lineage})
    sparse_rows = []
    for r in range(frame.n_rows):
        hits = np.nonzero(frame.rows[r])[0]
        sparse_rows.append([[int(j), float(frame.memberships[r, j])]
                            for j in hits])
    _write_json(cfg.artifact("frame"),
                {"item_names": frame.item_names,
                 "item_sources": frame.item_sources,
                 "rows": sparse_rows,
                 "labels": train_ds.label.tolist(),
                 "dataset_fingerprint": frame.dataset_fingerprint,
                 "specs_source": frame.specs_source,
                 "lineage": lineage})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('specs')} ({len(specs)} specs)")
    print(f"wrote {cfg.artifact('frame')}")


def _read_frame(cfg: PipelineConfig) -> tuple[fuzzify.BinaryFrame, np.ndarray, dict]:
    doc = _read_json(cfg.artifact("frame"), "frame")
    names = list(doc["item_names"])
    n_rows = len(doc["rows"])
    rows = np.zeros((n_rows, len(names)), dtype=np.uint8)
    mems = np.zeros((n_rows, len(names)), dtype=np.float64)
    for r, pairs in enumerate(doc["rows"]):
        for j, m in pairs:
            rows[r, int(j)] = 1
            mems[r, int(j)] = float(m)
    frame = fuzzify.BinaryFrame(
        item_names=names, item_sources=list(doc["item_sources"]),
        rows=rows, memberships=mems,
        dataset_fingerprint=doc["dataset_fingerprint"],
        specs_source=doc["specs_source"])
    labels = np.asarray(doc["labels"], dtype=np.int64)
    return frame, labels, doc["lineage"]


def cmd_mine(cfg: PipelineConfig) -> None:
    """Mine top-k patterns from the fuzzified train split."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg_fp = cfg.fingerprint()
    _, train_ds, _, table, _, frame_train = _fuzzify_inputs(cfg)
    frame, labels, frame_lineage = _read_frame(cfg)
    _require_lineage(frame_lineage.get("config", ""), cfg_fp, "frame")
    _require_lineage(frame.dataset_fingerprint, frame_train.fingerprint(),
                     "frame dataset")
    _require_lineage(frame.specs_source, train_ds.fingerprint(),
                     "membership spec source")

    db, profits = miner.build_transactions(frame, labels, table,
                                           mode=cfg.mining.mode)
    stats = miner.SearchStats()
    patterns = miner.mine_topk(db, profits, cfg.mining, stats)

    miner.write_patterns(patterns, cfg.artifact("patterns"))
    table_txt = miner.render_patterns_table(patterns)
    atomic_write_text(cfg.artifact("patterns_txt"),
                      table_txt + f"\nconfig: {cfg_fp}\n")
    _write_json(cfg.artifact("patterns_meta"),
                {"k": cfg.mining.k, "mode": cfg.mining.mode,
                 "algorithm": cfg.mining.algorithm,
                 "min_length": cfg.mining.min_length,
                 "max_length": cfg.mining.max_length,
                 "n_patterns": len(patterns),
                 "n_items": len(db.items),
                 "n_transactions": len(db.transactions),
                 **stats.to_dict(),
                 "lineage": {"config": cfg_fp,
                             "train_split": train_ds.fingerprint(),
                             "frame_dataset": frame.dataset_fingerprint,
                             "specs_source": frame.specs_source}})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('patterns')} ({len(patterns)} patterns)")
    print(f"wrote {cfg.artifact('patterns_txt')}")


def cmd_report(cfg: PipelineConfig) -> None:
    """Retrain with top-1..top-k pattern features and write the comparison."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    cfg_fp = cfg.fingerprint()
    _, train_ds, test_ds, _, _, _ = _fuzzify_inputs(cfg)

    patterns_path = cfg.artifact("patterns")
    if not os.path.exists(patterns_path):
        raise MissingArtifact(f"patterns artifact not found: {patterns_path}")
    patterns = miner.read_patterns(patterns_path)
    meta = _read_json(cfg.artifact("patterns_meta"), "patterns metadata")
    _require_lineage(meta["lineage"].get("config", ""), cfg_fp, "patterns")
    _require_lineage(meta["lineage"].get("train_split", ""),
                     train_ds.fingerprint(), "patterns train split")

    specs_doc = _read_json(cfg.artifact("specs"), "membership specs")
    _require_lineage(specs_doc["lineage"].get("config", ""), cfg_fp,
                     "membership specs")
    specs = [fuzzify.MembershipSpec.from_dict(d) for d in specs_doc["specs"]]

    baseline_doc = _read_json(cfg.artifact("baseline"), "baseline metrics")
    _require_lineage(baseline_doc["lineage"].get("config", ""), cfg_fp,
                     "baseline metrics")
    baseline = gbdt.Metrics.from_dict(baseline_doc["metrics"])

    if not patterns:
        raise HafcpError("patterns file contains no patterns to evaluate")

    report = augment.run_comparison(
        train_ds, test_ds, specs, patterns, cfg.boost, baseline,
        cumulative=cfg.cumulative, threshold=cfg.threshold,
        config_fingerprint=cfg_fp)

    doc = report.to_dict()
    doc["lineage"] = {"config": cfg_fp,
                      "train_split": train_ds.fingerprint(),
                      "test_split": test_ds.fingerprint(),
                      "patterns": meta["lineage"]}
    _write_json(cfg.artifact("report"), doc)
    atomic_write_text(cfg.artifact("report_md"),
                      augment.report_to_markdown(report))
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('report')}")
    print(f"wrote {cfg.artifact('report_md')}")


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """train -> fuzzify -> mine -> report, identical to running them separately."""
    cmd_train(cfg)
    cmd_fuzzify(cfg)
    cmd_mine(cfg)
    cmd_report(cfg)


def _parse_overrides(tokens: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if not tok.startswith("--"):
            raise ConfigError(f"unexpected argument {tok!r}")
        key = tok[2:]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            if i + 1 >= len(tokens):
                raise ConfigError(f"override --{key} is missing a value")
            value = tokens[i + 1]
            i += 2
        if not key:
            raise ConfigError(f"malformed override {tok!r}")
        out[key] = value
    return out


_COMMANDS = {
    "train": cmd_train,
    "fuzzify": cmd_fuzzify,
    "mine": cmd_mine,
    "report": cmd_report,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hafcp",
        description="Mine highly associated fuzzy churn patterns and "
                    "evaluate them as engineered features.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True,
                       help="path to the pipeline JSON config")
    args, extra = parser.parse_known_args(argv)

    try:
        overrides = _parse_overrides(extra)
        cfg = load_config(args.config, overrides)
        _COMMANDS[args.command](cfg)
    except MissingArtifact as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 3
    except HafcpError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - internal failure path
        print(f"internal error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
