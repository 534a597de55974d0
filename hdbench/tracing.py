"""Traced run: spans around each layer's public entry points, from outside.

The program is not changed. ``hierarchical_draft``, ``verify_greedy`` and
``verify_sampling`` are replaced where ``hierdraft.engine`` imports them;
``ModelDB.lookup``, ``StatsDB.retrieve`` and the two ``KGramModel`` scoring
methods are wrapped on the instances the benchmark passes in; each fresh
``ContextDB`` gets wrapped ``lookup`` and ``ingest`` and an ``on_evict``
counter. ``decode`` itself is the root span of each generation.

A span is (name, start, end, parent, generation). Spans live in flat
integer arrays while the run lasts and are written once, at the end. A
span's self time is its duration minus the durations of its children, so
the layers' self times add up to the root spans exactly.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import hierdraft.engine as engine
from hierdraft import ContextDB

from .measure import tail_percentile
from .world import CONTEXT_DB, World

LAYER = {
    "decode": "engine",
    "hierarchical_draft": "drafting",
    "verify_greedy": "verification",
    "verify_sampling": "verification",
    "ContextDB.lookup": "context_db",
    "ContextDB.ingest": "context_db",
    "ModelDB.lookup": "model_db",
    "StatsDB.retrieve": "stats_db",
    "KGramModel.argmax_token": "kgram",
    "KGramModel.next_distribution": "kgram",
}
NAMES = list(LAYER)
DB_OF_SOURCE = {"context": "c", "model": "m", "stats": "s"}
_COLUMNS = ("name", "start", "end", "parent", "gen")


class Tracer:
    def __init__(self, draft_len: int):
        self.cols = {c: array("q") for c in _COLUMNS}
        self._open: list[int] = []
        self.gen = -1
        self.counts: Counter[str] = Counter()
        self.accept_len = [0] * (draft_len + 1)
        self.decode = self._wrap("decode", engine.decode)

    def _wrap(self, name: str, fn, observe=None):
        name_id = NAMES.index(name)
        col_name, col_start, col_end, col_parent, col_gen = (self.cols[c] for c in _COLUMNS)
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(col_start)
            col_name.append(name_id)
            col_parent.append(open_spans[-1] if open_spans else -1)
            col_gen.append(self.gen)
            col_end.append(0)
            open_spans.append(index)
            col_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                col_end[index] = clock()
                open_spans.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # Counters, taken at the same boundaries as the spans.

    def _probe(self, letter: str):
        def observe(_args, values) -> None:
            self.counts[f"{letter}.probes"] += 1
            self.counts[f"{letter}.hits"] += bool(values)
            self.counts["returned"] += len(values)

        return observe

    def _on_ingest(self, args, _result) -> None:
        self.counts["c.ingest_pairs"] += len(args[0]) - 1

    def _on_evict(self, _key, _value) -> None:
        self.counts["c.evictions"] += 1

    def _on_draft(self, _args, result) -> None:
        self.counts["candidates"] += len(result[0])

    def _on_verify(self, _args, outcome) -> None:
        self.counts["steps"] += 1
        self.counts["drafted_all"] += outcome.drafted_total
        if outcome.winner is None:
            self.accept_len[0] += 1
            return
        accepted = outcome.accepted[outcome.winner]
        self.accept_len[accepted] += 1
        self.counts["accepted_won"] += accepted
        self.counts["drafted_won"] += outcome.candidate_lens[outcome.winner]
        self.counts[f"{DB_OF_SOURCE[outcome.winner_source]}.accepted"] += accepted

    def context_db(self) -> ContextDB:
        """A fresh context DB for the next generation, wrapped on the instance."""
        self.gen = self.counts["generations"]
        self.counts["generations"] += 1
        db = ContextDB(**CONTEXT_DB, on_evict=self._on_evict)
        db.lookup = self._wrap("ContextDB.lookup", db.lookup, self._probe("c"))
        db.ingest = self._wrap("ContextDB.ingest", db.ingest, self._on_ingest)
        return db

    @contextmanager
    def installed(self, world: World):
        """Wrap the engine's imports and the world's instances; undo on exit."""
        hooks = {
            "hierarchical_draft": self._on_draft,
            "verify_greedy": self._on_verify,
            "verify_sampling": self._on_verify,
        }
        saved = {name: getattr(engine, name) for name in hooks}
        instances = [
            (world.model_db, "lookup", "ModelDB.lookup", self._probe("m")),
            (world.stats_db, "retrieve", "StatsDB.retrieve", self._probe("s")),
            (world.model, "argmax_token", "KGramModel.argmax_token", None),
            (world.model, "next_distribution", "KGramModel.next_distribution", None),
        ]
        try:
            for name, observe in hooks.items():
                setattr(engine, name, self._wrap(name, saved[name], observe))
            for obj, attr, name, observe in instances:
                setattr(obj, attr, self._wrap(name, getattr(obj, attr), observe))
            yield
        finally:
            for name, fn in saved.items():
                setattr(engine, name, fn)
            for obj, attr, _name, _observe in instances:
                vars(obj).pop(attr, None)

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(self.cols[c], dtype=np.int64) for c in _COLUMNS}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, durations, total and self nanoseconds."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    child_ns = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
    self_ns = dur - child_ns
    out = {}
    for name_id, name in enumerate(NAMES):
        mask = a["name"] == name_id
        out[name] = {
            "calls": int(mask.sum()),
            "dur": dur[mask],
            "total_ns": float(dur[mask].sum()),
            "self_ns": float(self_ns[mask].sum()),
        }
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, world: World, tokens: int, overhead: float):
    """Every per-layer metric as name -> (value, unit, base), the self
    nanoseconds per layer, and the nanoseconds of all decode spans.
    ``tokens`` is what the traced generations emitted."""
    s = span_stats(tracer)
    c = tracer.counts
    steps, gens = c["steps"], c["generations"]
    accepted = c["accepted_won"]

    def per_call(name: str, field: str = "total_ns"):
        return _ratio(s[name][field], s[name]["calls"]), "ns", f"{s[name]['calls']} calls"

    def per(num, den, unit, what):
        return _ratio(num, den), unit, f"{num}/{den} {what}"

    def build(phase: str):
        seconds, n = world.phases[phase]
        return seconds * 1e9 / n, "ns/tok", f"{n} tokens"

    def load(phase: str):
        return world.phases[phase][0] * 1e3, "ms", "one load"

    q, retrieve_tail = (
        tail_percentile(s["StatsDB.retrieve"]["dur"]) if s["StatsDB.retrieve"]["calls"] else (0, 0.0)
    )
    verify = {
        f: s["verify_greedy"][f] + s["verify_sampling"][f] for f in ("calls", "total_ns", "self_ns")
    }
    draft_kept = c["candidates"]
    metrics = {
        "kgram.argmax_ns": per_call("KGramModel.argmax_token"),
        "kgram.argmax_per_tok": per(s["KGramModel.argmax_token"]["calls"], tokens, "calls/tok", "calls/tokens"),
        "kgram.dist_ns": per_call("KGramModel.next_distribution"),
        "kgram.dist_per_tok": per(s["KGramModel.next_distribution"]["calls"], tokens, "calls/tok", "calls/tokens"),
        "kgram.fit_ns_per_tok": build("fit_kgram"),
        "kgram.load_ms": load("load_kgram"),
        "context_db.lookup_ns": per_call("ContextDB.lookup"),
        "context_db.hit_frac": per(c["c.hits"], c["c.probes"], "ratio", "lookups"),
        "context_db.accept_share": per(c["c.accepted"], accepted, "ratio", "accepted tokens"),
        "context_db.ingest_ns": per_call("ContextDB.ingest"),
        "context_db.ingest_per_step": per(c["c.ingest_pairs"], steps, "pairs/step", "pairs/steps"),
        "context_db.evictions_per_gen": per(c["c.evictions"], gens, "evict/gen", "evictions/generations"),
        "model_db.lookup_ns": per_call("ModelDB.lookup"),
        "model_db.probe_frac": per(c["m.probes"], steps, "ratio", "steps"),
        "model_db.hit_frac": per(c["m.hits"], c["m.probes"], "ratio", "probes"),
        "model_db.accept_share": per(c["m.accepted"], accepted, "ratio", "accepted tokens"),
        "model_db.build_ns_per_tok": build("build_model_db"),
        "model_db.load_ms": load("load_model_db"),
        "stats_db.retrieve_ns": per_call("StatsDB.retrieve"),
        "stats_db.retrieve_ns_tail": (retrieve_tail, "ns", f"p{q} of {s['StatsDB.retrieve']['calls']} calls"),
        "stats_db.probe_frac": per(c["s.probes"], steps, "ratio", "steps"),
        "stats_db.hit_frac": per(c["s.hits"], c["s.probes"], "ratio", "probes"),
        "stats_db.accept_share": per(c["s.accepted"], accepted, "ratio", "accepted tokens"),
        "stats_db.build_ns_per_tok": build("build_stats_db"),
        "stats_db.load_ms": load("load_stats_db"),
        "drafting.self_ns": per_call("hierarchical_draft", "self_ns"),
        "drafting.cands_per_step": per(draft_kept, steps, "cands/step", "candidates/steps"),
        "drafting.dup_frac": per(c["returned"] - draft_kept, c["returned"], "ratio", "values returned"),
        "verification.ns_per_step": (_ratio(verify["total_ns"], verify["calls"]), "ns", f"{verify['calls']} steps"),
        "verification.self_ns": (_ratio(verify["self_ns"], verify["calls"]), "ns", f"{verify['calls']} steps"),
        "verification.alpha": per(accepted, c["drafted_won"], "ratio", "winner tokens drafted"),
        "verification.alpha_all": per(accepted, c["drafted_all"], "ratio", "tokens drafted"),
        **{
            f"verification.accept_len_{k}": per(n, steps, "ratio", "steps")
            for k, n in enumerate(tracer.accept_len)
        },
        "engine.self_ns_per_step": (_ratio(s["decode"]["self_ns"], steps), "ns", f"{steps} steps"),
        "engine.steps_per_gen": per(steps, gens, "steps/gen", "steps/generations"),
        "corpus.tokenize_ns_per_tok": build("tokenize"),
        "trace.overhead_frac": (overhead, "ratio", "traced / untraced decode wall - 1"),
    }
    self_by_layer: Counter[str] = Counter()
    for name, stat in s.items():
        self_by_layer[LAYER[name]] += stat["self_ns"]
    return metrics, dict(self_by_layer), s["decode"]["total_ns"]
