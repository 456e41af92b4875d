"""Pipeline CLI: train -> fuzzify -> mine -> report over durable artifacts.

Each invocation reads one JSON config (plus --dotted.key value overrides),
then loads and splits the input CSV once; every subcommand takes those
splits, so ``pipeline`` parses the CSV once for all four stages.

``STAGES`` lists the stages in pipeline order with the artifacts each one
writes into the config's output directory. A stage is a body,
``cmd_<stage>(cfg, splits, digests) -> (texts, summary)``, that reads
earlier artifacts and writes nothing. The ``_stage`` runner registers it as
a subcommand and, after the body returns, writes each output's text
atomically, then the run manifest, ``effective_config.json``: the
effective config, its fingerprint, the fingerprints of the train and test
splits and the sha256 of every artifact's text. Where an output's sha256 is
not the one recorded, the digests of every later stage's outputs are
dropped. Last it prints one ``wrote <path>`` line per output, then the
stage's summary, if any. ``pipeline`` runs the stages in ``STAGES`` order.

A stage keeps the manifest's digests only when it names this config and
both splits, and reads each artifact once through ``_read_text``, which
refuses bytes whose sha256 the manifest does not record; ``_read_specs``
also refuses specs fitted on another split. ``mine`` (train split) and
``report`` (train and test splits) encode rows through one helper,
``_encode``, with the specs and skipped columns of ``membership_specs.json``.
``report`` continues each retrain from the trees of ``model.json`` it keeps,
and its summary says how many those are. No encoded frame is written: a
``frame.json`` left in the output directory by an older version is ignored.
All randomness flows from config seeds, so rerunning any subcommand with
unchanged inputs reproduces byte-identical files.

When this module is the first of its process to load numpy, numpy's
OpenBLAS runs on one thread (see the comment above the numpy import); a
process that loaded numpy before keeps numpy's own thread count.

Exit codes: 0 success, 1 internal error, 2 input/config error (including
lineage mismatches, and a file read that is a directory or not UTF-8),
3 missing artifact file.
"""

from __future__ import annotations

import functools
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

import numpy as np

from . import augment, fuzzify, gbdt, miner, rng
from ._util import atomic_write_text, fingerprint_of, json_field, text_file
from .dataset import ColumnarDataset, SplitSpec, drop_columns, load_csv, split
from .errors import (ConfigError, HafcpError, LineageError, MissingArtifact,
                     MissingImportance, ParseError, PrefixMismatch)

CONFIG_VERSION = 1

# (train split, test split), loaded once per invocation
Splits = tuple[ColumnarDataset, ColumnarDataset]

# The pipeline's stages in order, each with its outputs: artifact name ->
# file name. A stage reads only the outputs of the stages before it.
STAGES = {
    "train": {"model": "model.json", "importance": "importance.csv",
              "baseline": "metrics_baseline.json"},
    "fuzzify": {"specs": "membership_specs.json"},
    "mine": {"patterns": "patterns.jsonl", "patterns_txt": "patterns.txt",
             "patterns_meta": "patterns.meta.json"},
    "report": {"report": "report.json", "report_md": "report.md"},
}
ARTIFACTS = {"config": "effective_config.json",
             **{name: file for outputs in STAGES.values()
                for name, file in outputs.items()}}


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
        for depth, part in enumerate(parts[:-1], start=1):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"config key {'.'.join(parts[:depth])!r} is not an "
                    f"object, so override {dotted!r} cannot be set")
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
    return split(ds, cfg.split)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _run_keys(cfg: PipelineConfig, splits: Splits) -> dict[str, str]:
    """The manifest keys that name a run: the config and split fingerprints."""
    train_ds, test_ds = splits
    return {"fingerprint": cfg.fingerprint(),
            "train_split": train_ds.fingerprint(),
            "test_split": test_ds.fingerprint()}


def _start(cfg: PipelineConfig, splits: Splits) -> dict[str, str]:
    """Make the output directory; return the artifact digests of its run
    manifest if that names this run, else none."""
    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output_dir {cfg.output_dir} is not a directory"
                          ) from None
    try:
        with text_file(cfg.artifact("config")) as f:
            doc = json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}
    keys = _run_keys(cfg, splits)
    if (not isinstance(doc, dict) or not isinstance(doc.get("artifacts"), dict)
            or any(doc.get(key) != value for key, value in keys.items())):
        return {}
    return doc["artifacts"]


# subcommand name -> function of (cfg, splits); _stage registers the stages
_COMMANDS = {}


def _stage(body):
    """Register body, cmd_<stage>(cfg, splits, digests) -> (texts, summary),
    as the subcommand that runs its whole stage (see the module docstring)."""
    stage = body.__name__.removeprefix("cmd_")
    outputs = STAGES[stage]
    later = [file for name in list(STAGES)[list(STAGES).index(stage) + 1:]
             for file in STAGES[name].values()]

    @functools.wraps(body)
    def run(cfg: PipelineConfig, splits: Splits) -> None:
        digests = _start(cfg, splits)
        texts, summary = body(cfg, splits, digests)
        written = {file: hashlib.sha256(texts[name].encode("utf-8")).hexdigest()
                   for name, file in outputs.items()}
        if any(digests.get(file) != digest for file, digest in written.items()):
            digests = {f: d for f, d in digests.items() if f not in later}
        texts["config"] = _json_text({**cfg.effective_dict(),
                                      **_run_keys(cfg, splits),
                                      "artifacts": {**digests, **written}})
        for name in [*outputs, "config"]:
            atomic_write_text(cfg.artifact(name), texts[name])
        for name in outputs:
            print(f"wrote {cfg.artifact(name)}")
        if summary:
            print(summary)

    _COMMANDS[stage] = run
    return run


def _read_text(cfg: PipelineConfig, digests: dict[str, str], name: str,
               what: str) -> str:
    """An artifact's text, read once; LineageError unless the run manifest
    records the sha256 of its bytes (an edited or foreign file)."""
    path = cfg.artifact(name)
    try:
        # line ends untranslated: the text encodes back to the file's bytes
        with text_file(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise MissingArtifact(f"{what} artifact not found: {path}") from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    recorded = digests.get(ARTIFACTS[name])
    if digest != recorded:
        recorded = ("not recorded" if recorded is None
                    else f"not the {str(recorded)[:12]}... recorded")
        raise LineageError(f"{path} has sha256 {digest[:12]}..., {recorded} "
                           f"for this run in {cfg.artifact('config')}")
    return text


def _read_artifact(cfg: PipelineConfig, digests: dict[str, str], name: str,
                   what: str, parse):
    """parse(doc) of a JSON artifact read by _read_text; a ParseError names
    the file."""
    path = cfg.artifact(name)
    try:
        doc = json.loads(_read_text(cfg, digests, name, what))
    except json.JSONDecodeError as e:
        raise ParseError(f"{what} artifact {path} is corrupt: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} artifact {path} is corrupt: "
                         f"its root is not a JSON object")
    try:
        return parse(doc)
    except ParseError as e:
        raise ParseError(f"{what} artifact {path} is corrupt: {e}") from None


@_stage
def cmd_train(cfg: PipelineConfig, splits: Splits, digests: dict[str, str]):
    """Train the baseline model, evaluate it, export importance."""
    train_ds, test_ds = splits
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
    for t, tree in enumerate(model.trees):
        finite = np.isfinite([tree.threshold, tree.weight, tree.gain]).all(0)
        if not finite.all():
            raise ConfigError(
                f"tree {t} node {finite.argmin()} of the fit is not finite "
                f"(hessians that sum to 0 over boost.lambda_l2 = 0); set "
                f"boost.lambda_l2 above 0")
    probs = gbdt.predict_proba(model, test_ds)
    threshold = cfg.report["threshold"]
    metrics = gbdt.evaluate(test_ds.label, probs, threshold=threshold)
    if not external:
        table = gbdt.importance(model, train_ds, cfg.importance["method"])

    return {"model": gbdt.model_text(model),
            "importance": gbdt.importance_text(table),
            "baseline": _json_text({"metrics": metrics.as_dict(),
                                    "threshold": threshold,
                                    **stats.to_dict()})}, None


def _check_scores_every_feature(table: gbdt.ImportanceTable,
                                train_ds: ColumnarDataset) -> None:
    """MissingImportance unless table scores every feature of train_ds."""
    for name in train_ds.feature_names():
        if name not in table.scores:
            raise MissingImportance(name)


def _read_importance(cfg: PipelineConfig, digests: dict[str, str],
                     train_ds: ColumnarDataset) -> gbdt.ImportanceTable:
    """importance.csv, scoring every feature of the train split."""
    table = gbdt.parse_importance(
        _read_text(cfg, digests, "importance", "importance"),
        cfg.artifact("importance"))
    _check_scores_every_feature(table, train_ds)
    return table


def _read_specs(cfg: PipelineConfig, digests: dict[str, str],
                train_ds: ColumnarDataset
                ) -> tuple[list[fuzzify.MembershipSpec], list[str]]:
    """Specs and skipped columns, checked against the train split: each spec
    was fitted on it, each numeric column has one spec or is skipped, and no
    other is named."""
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

    return _read_artifact(cfg, digests, "specs", "membership specs", parse)


def _encode(ds: ColumnarDataset, specs: list[fuzzify.MembershipSpec],
            skipped: list[str]) -> fuzzify.BinaryFrame:
    """Encode one split with the train-fitted specs.

    The numeric columns fuzzify skipped are dropped first, so the frame holds
    the items `mine` can find. Train and test rows go through this one path.
    """
    return fuzzify.to_binary_frame(
        drop_columns(ds, skipped) if skipped else ds, specs)


@_stage
def cmd_fuzzify(cfg: PipelineConfig, splits: Splits, digests: dict[str, str]):
    """Fit membership specs on the train split and check its item names."""
    train_ds, _ = splits
    table = _read_importance(cfg, digests, train_ds)
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

    return {"specs": _json_text({"specs": [s.to_dict() for s in specs],
                                 "normality_log": normality_log,
                                 "skipped_zero_importance": skipped})
            }, f"{len(specs)} specs"


@_stage
def cmd_mine(cfg: PipelineConfig, splits: Splits, digests: dict[str, str]):
    """Encode the train split with the fitted specs and mine top-k patterns."""
    train_ds, _ = splits
    table = _read_importance(cfg, digests, train_ds)
    specs, skipped = _read_specs(cfg, digests, train_ds)
    frame = _encode(train_ds, specs, skipped)

    db, profits = miner.build_transactions(frame, train_ds.label, table,
                                           mode=cfg.mining.mode)
    stats = miner.SearchStats()
    patterns = miner.mine_topk(db, profits, cfg.mining, stats)

    return {"patterns": miner.patterns_text(patterns),
            "patterns_txt": miner.render_patterns_table(patterns)
            + f"\nconfig: {cfg.fingerprint()}\n",
            "patterns_meta": _json_text(
                {"k": cfg.mining.k, "mode": cfg.mining.mode,
                 "algorithm": cfg.mining.algorithm,
                 "min_length": cfg.mining.min_length,
                 "max_length": cfg.mining.max_length,
                 "n_patterns": len(patterns),
                 "n_items": len(db.items),
                 "n_transactions": len(db.present),
                 **stats.to_dict()})}, f"{len(patterns)} patterns"


@_stage
def cmd_report(cfg: PipelineConfig, splits: Splits, digests: dict[str, str]):
    """Retrain with top-1..top-k pattern features and write the comparison."""
    train_ds, test_ds = splits

    patterns = miner.parse_patterns(
        _read_text(cfg, digests, "patterns", "patterns"),
        cfg.artifact("patterns"))
    specs, skipped = _read_specs(cfg, digests, train_ds)
    baseline = _read_artifact(
        cfg, digests, "baseline", "baseline metrics",
        lambda doc: gbdt.Metrics.from_dict(
            json_field(doc, "metrics", dict, "its body")))
    model_path = cfg.artifact("model")
    model = _read_artifact(cfg, digests, "model", "model",
                           gbdt.BoostedModel.from_dict)
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
            config_fingerprint=cfg.fingerprint(), prefix=model)
    except PrefixMismatch as e:
        raise PrefixMismatch(f"model artifact {model_path} does not match "
                             f"this run's baseline fit: {e}") from None

    return {"report": _json_text(report.to_dict()),
            "report_md": augment.report_to_markdown(report)
            }, "baseline trees reused: " + ", ".join(
                f"top-{i} {n}/{cfg.boost.n_estimators}"
                for i, n in enumerate(report.reused_trees, start=1))


def cmd_pipeline(cfg: PipelineConfig, splits: Splits) -> None:
    """train -> fuzzify -> mine -> report, identical to running them separately."""
    for stage in STAGES:
        _COMMANDS[stage](cfg, splits)


_COMMANDS["pipeline"] = cmd_pipeline


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
        for seen in out:  # no override quietly replaces another
            if f"{seen}.".startswith(f"{key}.") or f"{key}.".startswith(
                    f"{seen}."):
                raise ConfigError(f"overrides {seen!r} and {key!r} both "
                                  f"set config key {min(seen, key)!r}")
        out[key] = value
    return out


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
