"""Pipeline benchmark: ``hafcp pipeline`` through the CLI on one workload.

    python3 bench/run.py --workload planted-2k --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from ``--seed``, measures the set-up cost of
a fresh interpreter (import ``hafcp.cli``, load and validate the config),
then runs whole pipelines, each in a fresh process into an emptied output
directory, until ``--seconds`` have passed. Each pipeline is one operation:
it fails when the process exits non-zero, when its artifacts differ from
the last pipeline's, or when the outputs fail the checks in ``checker.py``.

With ``--trace 0`` the end-to-end metrics are printed (medians over the
pipelines). With ``--trace 1`` one more pipeline runs in-process under
``trace_pipeline.py`` and the per-layer metrics are printed instead, with the
tracing overhead against the untraced median. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checker  # noqa: E402
from workloads import OUTPUT_DIR, WORKLOADS, write_inputs  # noqa: E402

# Set-up probes before the first pipeline; one more follows every pipeline,
# so the probes sample the whole run rather than its first seconds.
SETUP_PROBES = 3
MB = 1e6

END_TO_END = {"pipeline_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "artifact_mb": "MB", "setup_s": "s"}

# Per-layer metric -> (unit, span name, what is summed over its spans).
# "self" is the span's time not covered by its child spans, "total" its whole
# duration, "calls" the number of spans, anything else a work count.
PER_LAYER = {
    "stage.train_s": ("s", "stage.train", "total"),
    "stage.fuzzify_s": ("s", "stage.fuzzify", "total"),
    "stage.mine_s": ("s", "stage.mine", "total"),
    "stage.report_s": ("s", "stage.report", "total"),
    "cli.self_s": ("s", "stage.", "self"),
    "dataset.load_csv_s": ("s", "dataset.load_csv", "self"),
    "dataset.load_csv_calls": ("count", "dataset.load_csv", "calls"),
    "dataset.split_s": ("s", "dataset.split", "self"),
    "rng.shuffle_s": ("s", "rng.shuffle", "self"),
    "gbdt.train_s": ("s", "gbdt.train", "self"),
    "gbdt.train_calls": ("count", "gbdt.train", "calls"),
    "gbdt.trees": ("count", "gbdt.train", "trees"),
    "gbdt.nodes": ("count", "gbdt.train", "nodes"),
    "gbdt.predict_s": ("s", "gbdt.predict", "self"),
    "gbdt.importance_s": ("s", "gbdt.importance", "self"),
    "fuzzify.fit_s": ("s", "fuzzify.fit", "self"),
    "fuzzify.encode_s": ("s", "fuzzify.encode", "self"),
    "fuzzify.cells": ("count", "fuzzify.encode", "cells"),
    "miner.build_s": ("s", "miner.build", "self"),
    "miner.search_s": ("s", "miner.search", "self"),
    "miner.items": ("count", "miner.build", "items"),
    "miner.transactions": ("count", "miner.build", "transactions"),
    "miner.patterns": ("count", "miner.search", "patterns"),
    "augment.report_s": ("s", "augment.report", "self"),
    "augment.encode_s": ("s", "augment.encode", "self"),
    "augment.encode_calls": ("count", "augment.encode", "calls"),
    "augment.retrains": ("count", "gbdt.train", "under augment.report"),
}


def child_env(threads: str) -> dict:
    """The program's environment: its sources first, the report's thread cap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("HAFCP_THREADS", None)
    if threads != "unset":
        env["HAFCP_THREADS"] = (str(len(os.sched_getaffinity(0)))
                                if threads == "nproc" else threads)
    return env


def run_timed(argv: list[str], cwd: str, env: dict, log_path: str) -> dict:
    """Run one process to its end; its wall time and its own rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / MB}


def artifact_digests(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def artifact_mb(out: str) -> float:
    return sum(os.path.getsize(os.path.join(out, n)) for n in os.listdir(out)) / MB


def pipeline_round(work: str, env: dict, argv: list[str], log: str) -> dict:
    out = os.path.join(work, OUTPUT_DIR)
    shutil.rmtree(out, ignore_errors=True)
    result = run_timed(argv, work, env, os.path.join(work, log))
    if result["rc"] == 0 and os.path.isdir(out):
        result["artifact_mb"] = artifact_mb(out)
        result["digests"] = artifact_digests(out)
    return result


SETUP_PROBE = [sys.executable, "-c",
               "import sys, hafcp.cli; hafcp.cli.load_config(sys.argv[1])",
               "config.json"]


def setup_probe(work: str, env: dict) -> float:
    """Wall time of a fresh interpreter that imports hafcp.cli and loads the config."""
    result = run_timed(SETUP_PROBE, work, env, os.path.join(work, "setup.log"))
    if result["rc"] != 0:
        with open(os.path.join(work, "setup.log"), encoding="utf-8",
                  errors="replace") as f:
            sys.stderr.write(f.read())
        raise SystemExit("set-up probe failed: cannot import hafcp.cli "
                         "or load the config")
    return result["wall"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


# --- per-layer metrics from spans -----------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    for i, span in enumerate(spans):
        kids = [(max(lo, span["start"]), min(hi, span["end"]))
                for lo, hi in children.get(i, [])]
        span["total"] = span["end"] - span["start"]
        span["self"] = span["total"] - _covered(kids)

    def under(span: dict, name: str) -> bool:
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == name:
                return True
        return False

    values = {}
    for metric, (_, name, what) in PER_LAYER.items():
        chosen = [s for s in spans if s["name"] == name
                  or (name.endswith(".") and s["name"].startswith(name))]
        if what in ("total", "self"):
            values[metric] = sum(s[what] for s in chosen)
        elif what == "calls":
            values[metric] = len(chosen)
        elif what.startswith("under "):
            values[metric] = sum(1 for s in chosen if under(s, what[6:]))
        else:
            values[metric] = sum(s["counts"].get(what, 0) for s in chosen)
    return values


# --- one benchmark run ------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", default=None,
                        help="HAFCP_THREADS for the program: a number, nproc or "
                             "unset (default: the workload's own setting)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "hafcp", "cli.py")):
        print(f"error: the program is not here ({SRC}/hafcp/cli.py missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = os.path.join(BENCH, ".work", f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    write_inputs(workload, args.seed, work)
    env = child_env(args.threads or workload.threads)
    keep = False
    try:
        setup_probe(work, env)  # warms the file cache and the bytecode cache
        setup_times = [setup_probe(work, env) for _ in range(SETUP_PROBES)]
        argv = [sys.executable, "-m", "hafcp.cli", "pipeline", "--config",
                "config.json"]
        rounds = []
        start = time.perf_counter()
        # A traced run keeps room for its traced pipeline inside --seconds.
        while not rounds or (time.perf_counter() - start
                             + (rounds[-1]["wall"] if args.trace else 0.0)
                             < args.seconds):
            r = pipeline_round(work, env, argv, "pipeline.log")
            rounds.append(r)
            print(f"pipeline {len(rounds)}: exit {r['rc']}  wall {r['wall']:.4f} s"
                  f"  cpu {r['cpu']:.4f} s  peak rss {r['rss_mb']:.1f} MB")
            setup_times.append(setup_probe(work, env))

        ok = [r for r in rounds if r["rc"] == 0 and "digests" in r]
        if not ok:
            keep = True
            print(f"error: every pipeline failed; see {work}/pipeline.log",
                  file=sys.stderr)
            return 1
        reference = rounds[-1].get("digests")
        problems = (checker.check_outputs(work, workload.rule_items,
                                          workload.rule_needs_all)
                    if reference is not None else ["last pipeline failed"])
        for problem in problems:
            print(f"check failed: {problem}")
        failed = sum(1 for r in rounds
                     if r["rc"] != 0 or r.get("digests") != reference or problems)
        wrong = any(r["rc"] == 0 for r in rounds) and bool(problems)

        walls = [r["wall"] for r in ok]
        print(f"workload {workload.name}  seed {args.seed}  pipelines {len(rounds)}"
              f"  HAFCP_THREADS={env.get('HAFCP_THREADS', 'unset')}")
        attempted = len(rounds)
        if args.trace:
            spans_path = os.path.join(work, "spans.json")
            traced = pipeline_round(
                work, env, [sys.executable, os.path.join(BENCH, "trace_pipeline.py"),
                            "--config", "config.json", "--spans", spans_path],
                "trace.log")
            attempted += 1
            if traced["rc"] != 0 or not os.path.isfile(spans_path):
                keep = True
                print(f"error: the traced pipeline failed; see {work}/trace.log",
                      file=sys.stderr)
                return 1
            if traced.get("digests") != reference:
                failed += 1
                print("traced pipeline changed the artifacts")
            with open(spans_path, encoding="utf-8") as f:
                doc = json.load(f)
            for name in doc["absent"]:
                print(f"absent: {name} (its metrics read 0)")
            values = layer_metrics(doc["spans"])
            values["trace.untraced_s"] = statistics.median(walls)
            values["trace.overhead_s"] = traced["wall"] - values["trace.untraced_s"]
            units = {m: spec[0] for m, spec in PER_LAYER.items()}
            units.update({"trace.untraced_s": "s", "trace.overhead_s": "s"})
            for name, value in values.items():
                print(f"{name:24s} {value:14.4f} {units[name]}")
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        else:
            samples = {"pipeline_s": walls,
                       "cpu_s": [r["cpu"] for r in ok],
                       "peak_rss_mb": [r["rss_mb"] for r in ok],
                       "artifact_mb": [r["artifact_mb"] for r in ok]}
            metrics = {}
            for name, values in samples.items():
                q1, q3 = quartiles(values)
                median = statistics.median(values)
                metrics[name] = {"value": median, "unit": END_TO_END[name]}
                print(f"{name:12s} {median:10.4f} {END_TO_END[name]:3s} median of "
                      f"{len(values)}, quartiles {q1:.4f} .. {q3:.4f}")
            setup_s = statistics.median(setup_times)
            q1, q3 = quartiles(setup_times)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            print(f"{'setup_s':12s} {setup_s:10.4f} s   median of {len(setup_times)}, "
                  f"quartiles {q1:.4f} .. {q3:.4f}")
        print(f"attempted {attempted}  failed {failed}")
        keep = keep or failed > 0
        print(json.dumps({"correct": not wrong, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        if keep:
            print(f"outputs kept in {work}", file=sys.stderr)
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
