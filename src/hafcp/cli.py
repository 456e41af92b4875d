"""Pipeline CLI: train -> fuzzify -> mine -> report over durable artifacts.

Each invocation reads one JSON config (plus --dotted.key value overrides),
then loads and splits the input CSV once; every subcommand takes those
splits, so ``pipeline`` parses the CSV once for all four stages. Each stage
writes artifacts into the config's output directory. ``fuzzify`` writes the
fitted membership specs and the numeric columns it skipped for zero
importance; ``mine`` (train split) and ``report`` (train and test splits)
encode rows through one helper, ``_encode``, with those specs and that skip
set from ``membership_specs.json``. ``report`` warm-starts its retrains
from ``model.json`` and prints how many baseline trees each one reused. No
encoded frame is written: a ``frame.json`` left in the output directory by
an older version is ignored and can be deleted.

Every artifact embeds the config fingerprint and the content fingerprints of
its inputs; a subcommand refuses every artifact it reads whose lineage does
not name the current config and train split (``_check_lineage``), whose
specs were fitted on another split (``_read_specs``), or, for
``patterns.jsonl``, whose bytes lack the sha256 that ``patterns.meta.json``
records (``_read_patterns``). All writes are atomic
and all randomness flows from config seeds, so rerunning any subcommand with
unchanged inputs reproduces byte-identical files.

When this module is the first of its process to load numpy, numpy's
OpenBLAS runs on one thread (see the comment above the numpy import); a
process that loaded numpy before keeps numpy's own thread count.

Exit codes: 0 success, 1 internal error, 2 input/config error (including
lineage mismatches, and a file read that is a directory or not UTF-8),
3 missing artifact file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from types import UnionType

# One OpenBLAS thread for the CLI. The search's matrix products are small
# (at most 60 x 478 x 60 on the bench's widest table), so a second thread
# buys no wall time and spins through the report's fork workers. OpenBLAS
# sizes its pool once, from OPENBLAS_NUM_THREADS, when numpy loads; so when
# this module is the first to load numpy, it sets that variable for the load
# alone and then puts os.environ back as it was. A process that loaded numpy
# before keeps numpy's threads, as does a numpy built on another BLAS.
if "numpy" not in sys.modules:
    _blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if _blas_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _blas_threads

from . import augment, fuzzify, gbdt, miner, rng
from ._util import atomic_write_text, fingerprint_of, json_field, text_file
from .dataset import ColumnarDataset, SplitSpec, drop_columns, load_csv, split
from .errors import (ConfigError, HafcpError, LineageError, MissingArtifact,
                     MissingImportance, ParseError, PrefixMismatch)

CONFIG_VERSION = 1

# (whole dataset, train split, test split), loaded once per invocation
Splits = tuple[ColumnarDataset, ColumnarDataset, ColumnarDataset]

ARTIFACTS = {
    "config": "effective_config.json",
    "model": "model.json",
    "importance": "importance.csv",
    "baseline": "metrics_baseline.json",
    "specs": "membership_specs.json",
    "patterns": "patterns.jsonl",
    "patterns_txt": "patterns.txt",
    "patterns_meta": "patterns.meta.json",
    "report": "report.json",
    "report_md": "report.md",
}


# Every config key with its default; a nested object is a section, and the
# split, boost and mining sections are the fields of the library classes
# that check their ranges. A key whose entry is a type has no default: it is
# required, or null when the type admits None. Values are typed strictly: a
# bool is no int, an int is taken for a float key and stored as a float,
# strings are non-empty and a list holds strings. A float key takes no NaN
# or infinity, which the override parser reads from JSON and strict JSON
# readers reject.
DEFAULTS = {
    "input": str,
    "label_column": str,
    "positive_label": str,
    "output_dir": str,
    "drop_columns": [],
    "split": asdict(SplitSpec()),
    "boost": asdict(gbdt.BoostParams()),
    "importance": {"method": "gain", "path": str | None},
    "normality_alpha": 0.05,
    "mining": {**asdict(miner.MiningConfig()), "max_length": int | None},
    "report": {"cumulative": False, "threshold": 0.5},
}

_KIND_NAMES = {str: "a non-empty string", int: "an integer",
               float: "a finite number",
               bool: "true or false", list: "a list of strings"}


def _checked(table: dict, raw, prefix: str = "") -> dict:
    """raw with table's defaults filled in; unknown keys and bad types fail."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {prefix[:-1]!r} must be an object")
    unknown = sorted(prefix + key for key in set(raw) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    out = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            out[key] = _checked(entry, raw.get(key, {}), f"{prefix}{key}.")
            continue
        kind = entry if isinstance(entry, (type, UnionType)) else type(entry)
        value = raw.get(key, None if kind is entry else entry)
        if kind is float and type(value) is int:
            value = float(value)
        if (not isinstance(value, kind) or value == ""
                or isinstance(value, bool) is not (kind is bool)
                or (kind is list
                    and not all(isinstance(v, str) for v in value))
                or (kind is float and not math.isfinite(value))):
            name = (_KIND_NAMES[kind] if kind in _KIND_NAMES
                    else _KIND_NAMES[kind.__args__[0]] + " or null")
            raise ConfigError(f"config key {prefix + key!r} must be {name}, "
                              f"got {json.dumps(value)}")
        out[key] = list(value) if kind is list else value
    return out


class PipelineConfig:
    """A checked config. Each top-level key of DEFAULTS is an attribute:
    split, boost and mining as library objects, the other sections as dicts.
    """

    def __init__(self, values: dict):
        self.values = values
        vars(self).update(values)
        self.split = SplitSpec(**values["split"])
        self.boost = gbdt.BoostParams(**values["boost"])
        self.mining = miner.MiningConfig(**values["mining"])

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        values = _checked(DEFAULTS, raw)
        alpha = values["normality_alpha"]
        method = values["importance"]["method"]
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"normality_alpha must be in (0,1), got {alpha}")
        if method not in ("gain", "path_attribution", "external"):
            raise ConfigError(f"unknown importance method {method!r}")
        if method == "external" and values["importance"]["path"] is None:
            raise ConfigError("importance.path is required for method external")
        if not 0.0 <= values["report"]["threshold"] <= 1.0:
            raise ConfigError("report.threshold must be in [0,1]")
        return cls(values)

    def effective_dict(self) -> dict:
        return {"config_version": CONFIG_VERSION,
                "shuffle_algorithm": rng.ALGORITHM, **self.values}

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
        with text_file(path) as f:
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


def _load_splits(cfg: PipelineConfig) -> Splits:
    """Load the input CSV, drop the configured columns, split it. A column
    with too many categories for a frame fails before any stage starts."""
    try:
        ds = load_csv(cfg.input, cfg.label_column, cfg.positive_label)
    except FileNotFoundError:
        raise ConfigError(f"input file not found: {cfg.input}") from None
    if cfg.drop_columns:
        ds = drop_columns(ds, cfg.drop_columns)
    fuzzify.check_categories(ds.schema)
    train_ds, test_ds = split(ds, cfg.split)
    return ds, train_ds, test_ds


def _write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _check_lineage(cfg: PipelineConfig, train_ds: ColumnarDataset, path: str,
                   lineage) -> None:
    """Fail unless an artifact's lineage names this config and train split."""
    if not isinstance(lineage, dict):
        raise LineageError(f"{path} carries no lineage object")
    for key, expected in (("config", cfg.fingerprint()),
                          ("train_split", train_ds.fingerprint())):
        found = str(lineage.get(key))
        if found != expected:
            raise LineageError(
                f"{path} {key} lineage mismatch: artifact carries "
                f"{found[:12]}..., current run expects {expected[:12]}...")


def _read_artifact(cfg: PipelineConfig, train_ds: ColumnarDataset, name: str,
                   what: str, parse=None):
    """A JSON artifact of this output directory, checked by _check_lineage.

    `parse`, if given, turns the document into the value returned; its
    ParseError becomes one that names the file.
    """
    path = cfg.artifact(name)
    try:
        with text_file(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise MissingArtifact(f"{what} artifact not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"{what} artifact {path} is corrupt: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} artifact {path} is corrupt: "
                         f"its root is not a JSON object")
    _check_lineage(cfg, train_ds, path, doc.get("lineage"))
    if parse is None:
        return doc
    try:
        return parse(doc)
    except ParseError as e:
        raise ParseError(f"{what} artifact {path} is corrupt: {e}") from None


def _read_patterns(cfg: PipelineConfig, meta: dict) -> list[miner.Pattern]:
    """patterns.jsonl, read once; its bytes must have the sha256 that
    patterns.meta.json's lineage records, else LineageError naming both."""
    path = cfg.artifact("patterns")
    try:
        # line ends untranslated: the text encodes back to the file's bytes
        with text_file(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise MissingArtifact(f"patterns artifact not found: {path}") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    recorded = str(meta["lineage"].get("patterns_sha256"))
    if digest != recorded:
        raise LineageError(
            f"{path} has sha256 {digest[:12]}..., but "
            f"{cfg.artifact('patterns_meta')} records {recorded[:12]}...")
    return miner.parse_patterns(text, path)


def _make_output_dir(cfg: PipelineConfig) -> None:
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output_dir {cfg.output_dir} is not a directory"
                          ) from None


def _write_effective_config(cfg: PipelineConfig) -> None:
    doc = cfg.effective_dict()
    doc["fingerprint"] = cfg.fingerprint()
    _write_json(cfg.artifact("config"), doc)


def cmd_train(cfg: PipelineConfig, splits: Splits) -> None:
    """Train the baseline model, evaluate it, export importance."""
    _make_output_dir(cfg)
    cfg_fp = cfg.fingerprint()
    ds, train_ds, test_ds = splits
    external = cfg.importance["method"] == "external"
    if external:  # read before the fit, so a bad table fails at once
        try:
            table = gbdt.load_importance(cfg.importance["path"])
        except FileNotFoundError:
            raise MissingArtifact(
                f"external importance file not found: {cfg.importance['path']}"
            ) from None
        _check_scores_every_feature(table, train_ds)
    stats = gbdt.TrainStats()
    model = gbdt.train(train_ds, cfg.boost, stats)
    probs = gbdt.predict_proba(model, test_ds)
    threshold = cfg.report["threshold"]
    metrics = gbdt.evaluate(test_ds.label, probs, threshold=threshold)
    if not external:
        table = gbdt.importance(model, train_ds, cfg.importance["method"])

    lineage = {"config": cfg_fp, "dataset": ds.fingerprint(),
               "train_split": train_ds.fingerprint(),
               "test_split": test_ds.fingerprint()}
    gbdt.save_model(model, cfg.artifact("model"), lineage=lineage)
    gbdt.write_importance(table, cfg.artifact("importance"),
                          lineage=dict(lineage, method=table.method))
    _write_json(cfg.artifact("baseline"),
                {"metrics": metrics.as_dict(), "threshold": threshold,
                 **stats.to_dict(), "lineage": lineage})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('model')}")
    print(f"wrote {cfg.artifact('importance')}")
    print(f"wrote {cfg.artifact('baseline')}")


def _check_scores_every_feature(table: gbdt.ImportanceTable,
                                train_ds: ColumnarDataset) -> None:
    """MissingImportance unless table scores every feature of train_ds."""
    for name in train_ds.feature_names():
        if name not in table.scores:
            raise MissingImportance(name)


def _read_importance(cfg: PipelineConfig,
                     train_ds: ColumnarDataset) -> gbdt.ImportanceTable:
    """importance.csv, checked against the config and the train split."""
    path = cfg.artifact("importance")
    try:
        table = gbdt.load_importance(path)
    except FileNotFoundError:
        raise MissingArtifact(f"importance artifact not found: {path}") from None
    _check_lineage(cfg, train_ds, path, table.lineage)
    _check_scores_every_feature(table, train_ds)
    return table


def _read_specs(cfg: PipelineConfig, train_ds: ColumnarDataset
                ) -> tuple[list[fuzzify.MembershipSpec], list[str]]:
    """Specs and skipped columns, checked against the config and train split:
    each spec was fitted on the train split, each numeric column has one spec
    or is skipped, and no other is named."""
    def parse(doc):
        skipped = json_field(doc, "skipped_zero_importance", list, "its body")
        if not all(isinstance(name, str) for name in skipped):
            raise ParseError("skipped_zero_importance must list column names")
        specs = [fuzzify.MembershipSpec.from_dict(d)
                 for d in json_field(doc, "specs", list, "its body")]
        expected = train_ds.fingerprint()
        for s in specs:
            if s.source_fingerprint != expected:
                raise LineageError(
                    f"{cfg.artifact('specs')} spec of column {s.column!r} "
                    f"source lineage mismatch: artifact carries "
                    f"{s.source_fingerprint[:12]}..., current run expects "
                    f"{expected[:12]}...")
        named = [s.column for s in specs] + skipped
        numeric = train_ds.numeric_columns()
        for name in dict.fromkeys(named + numeric):
            if name not in numeric:
                raise ParseError(f"column {name!r} is not a numeric column "
                                 f"of the train split")
            if named.count(name) != 1:
                raise ParseError(
                    f"column {name!r} has {named.count(name)} entries in "
                    f"specs and skipped_zero_importance, not 1")
        return specs, skipped

    return _read_artifact(cfg, train_ds, "specs", "membership specs",
                          parse=parse)


def _encode(ds: ColumnarDataset, specs: list[fuzzify.MembershipSpec],
            skipped: list[str]) -> fuzzify.BinaryFrame:
    """Encode one split with the train-fitted specs.

    The numeric columns fuzzify skipped are dropped first, so the frame holds
    the items `mine` can find. Train and test rows go through this one path.
    """
    return fuzzify.to_binary_frame(
        drop_columns(ds, skipped) if skipped else ds, specs)


def cmd_fuzzify(cfg: PipelineConfig, splits: Splits) -> None:
    """Fit membership specs on the train split and check its item names."""
    _make_output_dir(cfg)
    cfg_fp = cfg.fingerprint()
    ds, train_ds, _ = splits
    table = _read_importance(cfg, train_ds)
    skipped = [name for name in train_ds.numeric_columns()
               if table.scores[name] == 0.0]

    specs, normality_log = fuzzify.fit_all_memberships(
        train_ds, alpha=cfg.normality_alpha, seed=cfg.split.seed,
        skip=set(skipped))
    if not specs:
        print("warning: no numeric columns to fuzzify; frame is one-hot only",
              file=sys.stderr)
    # duplicate item names fail here, before anything is written
    fuzzify.frame_items(drop_columns(train_ds, skipped).schema, specs)

    lineage = {"config": cfg_fp, "dataset": ds.fingerprint(),
               "train_split": train_ds.fingerprint()}
    _write_json(cfg.artifact("specs"),
                {"specs": [s.to_dict() for s in specs],
                 "normality_log": normality_log,
                 "skipped_zero_importance": skipped,
                 "lineage": lineage})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('specs')} ({len(specs)} specs)")


def cmd_mine(cfg: PipelineConfig, splits: Splits) -> None:
    """Encode the train split with the fitted specs and mine top-k patterns."""
    _make_output_dir(cfg)
    cfg_fp = cfg.fingerprint()
    _, train_ds, _ = splits
    table = _read_importance(cfg, train_ds)
    specs, skipped = _read_specs(cfg, train_ds)
    frame = _encode(train_ds, specs, skipped)

    db, profits = miner.build_transactions(frame, train_ds.label, table,
                                           mode=cfg.mining.mode)
    stats = miner.SearchStats()
    patterns = miner.mine_topk(db, profits, cfg.mining, stats)

    patterns_sha256 = miner.write_patterns(patterns, cfg.artifact("patterns"))
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
                             "patterns_sha256": patterns_sha256}})
    _write_effective_config(cfg)
    print(f"wrote {cfg.artifact('patterns')} ({len(patterns)} patterns)")
    print(f"wrote {cfg.artifact('patterns_txt')}")


def cmd_report(cfg: PipelineConfig, splits: Splits) -> None:
    """Retrain with top-1..top-k pattern features and write the comparison."""
    _make_output_dir(cfg)
    cfg_fp = cfg.fingerprint()
    _, train_ds, test_ds = splits

    meta = _read_artifact(cfg, train_ds, "patterns_meta",
                          "patterns metadata")
    patterns = _read_patterns(cfg, meta)
    specs, skipped = _read_specs(cfg, train_ds)
    baseline = _read_artifact(
        cfg, train_ds, "baseline", "baseline metrics",
        parse=lambda doc: gbdt.Metrics.from_dict(
            json_field(doc, "metrics", dict, "its body")))
    model_path = cfg.artifact("model")
    model = _read_artifact(cfg, train_ds, "model", "model",
                           parse=gbdt.BoostedModel.from_dict)
    if model.feature_names != train_ds.feature_names():
        raise PrefixMismatch(
            f"model artifact {model_path} has features "
            f"{model.feature_names}, the train split "
            f"{train_ds.feature_names()}")

    if not patterns:
        raise HafcpError("patterns file contains no patterns to evaluate")

    frames = [_encode(ds, specs, skipped) for ds in (train_ds, test_ds)]
    columns = [(augment.match_rows(frames[0], p.items),
                augment.match_rows(frames[1], p.items)) for p in patterns]
    del frames  # before the retrains, which set this step's peak memory
    try:
        report = augment.run_comparison(
            train_ds, test_ds, patterns, columns, cfg.boost, baseline,
            cumulative=cfg.report["cumulative"],
            threshold=cfg.report["threshold"],
            config_fingerprint=cfg_fp, prefix=model)
    except PrefixMismatch as e:
        raise PrefixMismatch(f"model artifact {model_path} does not match "
                             f"this run's baseline fit: {e}") from None

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
    print("baseline trees reused: " + ", ".join(
        f"top-{i} {n}/{cfg.boost.n_estimators}"
        for i, n in enumerate(report.reused_trees, start=1)))


def cmd_pipeline(cfg: PipelineConfig, splits: Splits) -> None:
    """train -> fuzzify -> mine -> report, identical to running them separately."""
    cmd_train(cfg, splits)
    cmd_fuzzify(cfg, splits)
    cmd_mine(cfg, splits)
    cmd_report(cfg, splits)


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
    # imported here: importing hafcp.cli needs no argument parser, and
    # loading argparse ahead of numpy raised the pipeline's peak RSS by
    # 0.3-0.4 MB (CPython 3.11, glibc), by allocation order alone
    import argparse
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
        _COMMANDS[args.command](cfg, _load_splits(cfg))
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
