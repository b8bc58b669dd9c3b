"""Spans around sigarchive's public functions, recorded from outside the package.

Run as a script, it executes one CLI command in-process under the tracer and
writes every span as JSON once the command returns:

    python bench/spans.py SPANS.json build --features train.csv ...

The package is left as it is: each traced function is replaced, at the module
attribute its callers look it up through, by a wrapper that records a span.
Spans stay in memory until the command ends.  A span opened on a worker
thread with nothing open on that thread (the ensemble pool inside
``select_rank``) is attached to the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs, wrapped at the attribute their callers use
TRACED = (
    ("cli", "main"),
    ("cli", "build_archive"),
    ("cli", "classify_batch"),
    ("cli", "evaluate_predictions"),
    ("cli", "load_archive"),
    ("cli", "save_archive"),
    ("dataio", "load_csv"),
    ("dataio", "load_features_csv"),
    ("dataio", "load_labels_csv"),
    ("dataio", "normalize"),
    ("dataio", "apply_normalization"),
    ("archive", "select_rank"),
    ("archive", "nmf_factorize"),
    ("rank", "nmf_factorize"),
    ("rank", "perturb"),
    ("rank", "cluster_ensemble_signatures"),
    ("rank", "silhouette_scores"),
    ("inference", "classify"),
    ("inference", "nnls_solve"),
    ("evaluation", "risk_coverage_curve"),
    ("evaluation", "classification_metrics"),
    ("docio", "write_document"),
)


class Tracer:
    """Collects spans: name, start, end, parent id and per-call attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[dict] = []

    def _stack(self) -> list[dict]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``describe(args, kwargs, result)`` returns attributes for the span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                span = {"id": next(self._ids), "name": name,
                        "parent": parent["id"] if parent else None, "attrs": {}}
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if describe is not None:
                span["attrs"].update(describe(args, kwargs, result))
            return result

        setattr(owner, attr, traced)


def _describers():
    from sigarchive.linalg import SolverOptions

    def nmf(args, kwargs, pair):
        opts = args[3] if len(args) > 3 else kwargs.get("opts", SolverOptions())
        iters = len(pair.objective_trace) - 1
        return {"iters": iters, "capped": int(iters >= opts.max_iter)}

    def build(args, kwargs, result):
        nodes = result[1].nodes
        return {"nodes": len(nodes), "max_depth": max(nd.depth for nd in nodes)}

    return {
        "nmf_factorize": nmf,
        "build_archive": build,
        "load_features_csv": lambda a, k, fm: {"cells": int(fm.values.size)},
        "classify_batch": lambda a, k, r: {"samples": a[0].n_samples},
        "write_document": lambda a, k, r: {"bytes": Path(a[1]).stat().st_size},
    }


def install(tracer: Tracer) -> None:
    import importlib

    describers = _describers()
    for module, attr in TRACED:
        owner = importlib.import_module(f"sigarchive.{module}")
        tracer.wrap(owner, attr, f"{module}.{attr}", describers.get(attr))


# ---------------------------------------------------------------- analysis

def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_time(span: dict, children) -> float:
    """Span duration minus the part of it that child spans cover."""
    lo, hi = span["start"], span["end"]
    covered = union_length((max(c["start"], lo), min(c["end"], hi))
                           for c in children if c["end"] > lo and c["start"] < hi)
    return (hi - lo) - covered


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _percentile(values, q: int) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


class _Command:
    """Index over the spans of one traced CLI command."""

    def __init__(self, wall_s: float, spans: list[dict]):
        self.wall_s = wall_s
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)
            self.by_name[s["name"]].append(s)

    def named(self, *names):
        return [s for n in names for s in self.by_name[n]]

    def outermost(self, *names):
        """Spans of ``names`` not nested inside another span of ``names``."""
        found = []
        for s in self.named(*names):
            p = self.by_id.get(s["parent"])
            while p is not None and p["name"] not in names:
                p = self.by_id.get(p["parent"])
            if p is None:
                found.append(s)
        return found

    def total(self, *names) -> float:
        return sum(map(_duration, self.outermost(*names)))

    def self_total(self, *names) -> float:
        return sum(self_time(s, self.children[s["id"]]) for s in self.named(*names))

    def attr(self, key: str, *names) -> float:
        return sum(s["attrs"].get(key, 0) for s in self.named(*names))


NMF = ("rank.nmf_factorize", "archive.nmf_factorize")
INGEST = ("dataio.load_csv", "dataio.load_features_csv", "dataio.load_labels_csv")
NORMALIZE = ("dataio.normalize", "dataio.apply_normalization")


def layer_metrics(commands) -> dict[str, float]:
    """Per-layer metrics of one round trip, from ``(wall_s, spans)`` per command.

    A layer's time sums its outermost spans.  NMF spans on the ensemble's
    pool threads overlap, so ``linalg.nmf_s`` is busy time and can exceed
    the ``select_rank`` span that contains it.
    """
    cmds = [_Command(wall, spans) for wall, spans in commands]

    def total(*names):
        return sum(c.total(*names) for c in cmds)

    def count(*names):
        return sum(len(c.named(*names)) for c in cmds)

    def self_total(*names):
        return sum(c.self_total(*names) for c in cmds)

    def attr(key, *names):
        return sum(c.attr(key, *names) for c in cmds)

    members = [s for c in cmds for s in c.named("rank.nmf_factorize")]
    failed = sum(1 for s in members if "error" in s)
    nmf_calls = count(*NMF)
    nmf_s = sum(_duration(s) for c in cmds for s in c.named(*NMF))
    nmf_iters = attr("iters", *NMF)
    ingest_s = total(*INGEST)
    refit = count("archive.nmf_factorize")
    samples_us = [_duration(s) * 1e6 for c in cmds for s in c.named("inference.classify")]
    builds = [s for c in cmds for s in c.named("cli.build_archive")]
    cli_self = 0.0
    for c in cmds:
        for main in c.named("cli.main"):
            cli_self += c.wall_s - union_length(
                (s["start"], s["end"]) for s in c.children[main["id"]])

    return {
        "dataio.ingest_s": ingest_s,
        "dataio.ingest_cells_per_s": attr("cells", "dataio.load_features_csv") / ingest_s
        if ingest_s else 0.0,
        "dataio.normalize_s": total(*NORMALIZE),
        "linalg.nmf_calls": nmf_calls,
        "linalg.nmf_iters": nmf_iters,
        "linalg.nmf_capped": attr("capped", *NMF),
        "linalg.nmf_s": nmf_s,
        "linalg.nmf_us_per_iter": nmf_s / nmf_iters * 1e6 if nmf_iters else 0.0,
        "linalg.nnls_calls": count("inference.nnls_solve"),
        "linalg.nnls_s": total("inference.nnls_solve"),
        "rank.select_rank_s": total("archive.select_rank"),
        "rank.self_s": self_total("archive.select_rank"),
        "rank.perturb_s": total("rank.perturb"),
        "rank.cluster_s": total("rank.cluster_ensemble_signatures"),
        "rank.silhouette_s": total("rank.silhouette_scores"),
        "rank.members_failed": failed,
        "rank.members_ok_ratio": (len(members) - failed) / len(members) if members else 1.0,
        "archive.nodes": attr("nodes", "cli.build_archive"),
        "archive.max_depth": max((s["attrs"].get("max_depth", 0) for s in builds), default=0),
        "archive.build_archive_s": total("cli.build_archive"),
        "archive.build_self_s": self_total("cli.build_archive"),
        "archive.save_s": total("cli.save_archive"),
        "archive.load_s": total("cli.load_archive"),
        "archive.refit_nmf_calls": refit,
        "archive.refit_ratio": refit / nmf_calls if nmf_calls else 0.0,
        "inference.classify_batch_s": total("cli.classify_batch"),
        "inference.self_s": self_total("cli.classify_batch", "inference.classify"),
        "inference.sample_p50_us": _percentile(samples_us, 50) if samples_us else 0.0,
        "inference.sample_p99_us": _percentile(samples_us, 99) if samples_us else 0.0,
        "evaluation.rc_curve_s": total("evaluation.risk_coverage_curve"),
        "evaluation.class_metrics_s": total("evaluation.classification_metrics"),
        "evaluation.evaluate_s": total("cli.evaluate_predictions"),
        "docio.write_s": total("docio.write_document"),
        "docio.bytes_written": attr("bytes", "docio.write_document"),
        "cli.self_s": cli_self,
    }


def main(argv: list[str]) -> int:
    out, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from sigarchive import cli

    try:
        return cli.main(cli_argv)
    finally:
        out.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
