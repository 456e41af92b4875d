"""Run ``hafcp pipeline`` in this process with a span around each layer call.

Every public function listed in LAYERS is wrapped under every name it is
bound to in the ``hafcp`` modules (``hafcp.cli.load_csv`` as well as
``hafcp.dataset.load_csv``). A span records name, start, end, parent and the
work counts read from the call's result. Spans stay in memory and are
written to the ``--spans`` file when the pipeline ends. A listed function
that the program no longer has is reported as absent and the run goes on.

    PYTHONPATH=src python3 bench/trace_pipeline.py --config config.json --spans spans.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time


def _gbdt_counts(model) -> dict:
    return {"trees": len(model.trees),
            "nodes": sum(len(t.feature) for t in model.trees)}


def _frame_counts(frame) -> dict:
    return {"cells": int(frame.rows.shape[0] * frame.rows.shape[1])}


def _build_counts(result) -> dict:
    db = result[0]
    return {"items": len(db.items), "transactions": len(db.transactions)}


def _search_counts(patterns) -> dict:
    return {"patterns": len(patterns)}


# (module, function, span name, counts read from the result)
LAYERS = [
    ("hafcp.cli", "cmd_train", "stage.train", None),
    ("hafcp.cli", "cmd_fuzzify", "stage.fuzzify", None),
    ("hafcp.cli", "cmd_mine", "stage.mine", None),
    ("hafcp.cli", "cmd_report", "stage.report", None),
    ("hafcp.dataset", "load_csv", "dataset.load_csv", None),
    ("hafcp.dataset", "split", "dataset.split", None),
    ("hafcp.rng", "shuffled_indices", "rng.shuffle", None),
    ("hafcp.gbdt", "train", "gbdt.train", _gbdt_counts),
    ("hafcp.gbdt", "predict_proba", "gbdt.predict", None),
    ("hafcp.gbdt", "importance", "gbdt.importance", None),
    ("hafcp.fuzzify", "fit_all_memberships", "fuzzify.fit", None),
    ("hafcp.fuzzify", "to_binary_frame", "fuzzify.encode", _frame_counts),
    ("hafcp.miner", "build_transactions", "miner.build", _build_counts),
    ("hafcp.miner", "mine_topk", "miner.search", _search_counts),
    ("hafcp.augment", "run_comparison", "augment.report", None),
    ("hafcp.augment", "pattern_feature", "augment.encode", None),
]


class Tracer:
    """In-memory spans; parents tracked per thread.

    A span opened on a worker thread with nothing open on that thread gets
    the main thread's innermost open span as parent (the report's thread
    pool runs its retrains under ``augment.report``).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = {"name": name, "parent": parent, "start": time.perf_counter(),
                    "end": None, "counts": {}}
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    try:
                        span["counts"] = counts(result)
                    except (AttributeError, TypeError, IndexError):
                        span["counts"] = {}
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every LAYERS function under all its names; return the absent ones."""
    modules = [importlib.import_module(m) for m in
               ("hafcp", "hafcp.cli", "hafcp.dataset", "hafcp.rng", "hafcp.gbdt",
                "hafcp.fuzzify", "hafcp.miner", "hafcp.augment")]
    modules += [m for n, m in sorted(sys.modules.items())
                if n.startswith("hafcp.") and m not in modules]
    absent = []
    for module_name, attr, name, counts in LAYERS:
        fn = getattr(sys.modules[module_name], attr, None)
        if fn is None:
            absent.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap(fn, name, counts)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = traced
    return absent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    absent = install(tracer)
    cli = sys.modules["hafcp.cli"]
    start = time.perf_counter()
    code = cli.main(["pipeline", "--config", args.config])
    end = time.perf_counter()
    with open(args.spans, "w", encoding="utf-8") as f:
        json.dump({"exit_code": code, "start": start, "end": end,
                   "absent": absent, "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
