"""Benchmark harness: method comparison, access-order and DB-subset ablations.

Timing methodology: monotonic clock; every row runs one warm-up pass,
discarded from timing, then k timed passes over the whole prompt list,
interleaved (pass i of every row before pass i + 1) so that a drift in the
host's speed falls on every row alike. The reported tokens/sec is the
median across passes (mean and stddev are emitted too); a row's speedup
divides it by that of the autoregressive baseline at the row's temperature.
The warm-up pass is the only one that builds decode traces: the row's
quality metrics (alpha, tau, tallies, probe counts), its draft latencies
and any saved trace files come from it, and the timed passes decode with
tracing off. Every non-wall-clock number in a report can therefore be
recomputed from persisted traces.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from ._checks import check_int
from .context_db import ContextDB
from .drafting import DatabaseSet, HierarchyConfig
from .engine import (
    DecodeConfig,
    DecodeTrace,
    aggregate_traces,
    autoregressive_decode,
    decode,
    save_traces,
)
from .kgram import KGramModel
from .model_db import ModelDB
from .stats_db import StatsDB

AUTOREGRESSIVE = "autoregressive"


@dataclass
class MethodSpec:
    """One benchmark row: which databases, in what order, at what temperature."""

    name: str
    databases: str = "cms"  # the hierarchy's order; "" means autoregressive
    temperature: float = 0.0

    def __post_init__(self) -> None:
        # A row writes ``<name>.traces.jsonl``, so its name must name one file.
        name = self.name
        if type(name) is not str or name in ("", ".", "..") or "/" in name or os.sep in name:
            raise ValueError(f"a method name must name one file, not {name!r}")
        # A bad letter or temperature fails here, not after the baseline ran.
        DecodeConfig(temperature=self.temperature, hierarchy=HierarchyConfig(order=self.databases))

    @property
    def is_autoregressive(self) -> bool:
        return self.databases == ""


def run_bench(
    model: KGramModel,
    prompts: list[list[int]],
    methods: list[MethodSpec],
    *,
    model_db: ModelDB | None = None,
    stats_db: StatsDB | None = None,
    hierarchy: HierarchyConfig | None = None,
    runs: int = 5,
    seed: int = 7,
    max_tokens: int = 64,
    model_call_cost_s: float = 0.0,
    trace_dir: str | Path | None = None,
) -> dict:
    """Run every method over all prompts and return a JSON-ready report.

    Only trace files are written: ``write_report`` saves the report, and
    ``hd bench`` adds the SHA-256 of its input files as ``env.fingerprints``.

    Each temperature T that a row uses has one baseline: its first
    autoregressive row, or else one prepended, named ``autoregressive`` at
    T = 0 and ``autoregressive@{float(T)}`` otherwise (with no rows, a T = 0
    one). A row's speedup divides its tokens/sec by its baseline's, and its
    warm-up outputs, prompt i with seed ``seed + i``, must equal the
    baseline's: the first prompt that differs raises ``ValueError`` naming
    the row and the prompt. Each row writes its traces to
    ``trace_dir/<name>.traces.jsonl``, so a name that two rows share, a
    prepended baseline's included, raises ``ValueError``. The shared
    settings are checked, and every method's databases found, before any
    method runs. Every row shares the stats index's memo of rankings: each
    row's warm-up pass fills it, so the warm-up ``s`` latencies of later
    rows read lower.
    """
    if not prompts:
        raise ValueError("no prompts")
    check_int("runs", runs)
    hier = hierarchy or HierarchyConfig()
    shared = DecodeConfig(
        max_tokens=max_tokens, seed=seed, hierarchy=hier, model_call_cost_s=model_call_cost_s
    )
    methods = list(methods) or [MethodSpec(AUTOREGRESSIVE, databases="")]
    # Each temperature's baseline: its first autoregressive row, or a new one.
    bases = {float(m.temperature): m for m in reversed(methods) if m.is_autoregressive}
    added = []
    for m in methods:
        t = float(m.temperature)
        if t not in bases:
            name = f"{AUTOREGRESSIVE}@{t}" if t else AUTOREGRESSIVE
            bases[t] = MethodSpec(name, databases="", temperature=m.temperature)
            added.append(bases[t])
    methods = added + methods
    base = {m.name: bases[float(m.temperature)].name for m in methods}
    names = [m.name for m in methods]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two method rows are named {name!r}")
    # One context DB serves every generation: its drafter empties it.
    dbs = DatabaseSet(ContextDB.for_hierarchy(hier), model_db, stats_db)
    configs = [
        replace(shared, temperature=m.temperature, hierarchy=replace(hier, order=m.databases))
        for m in methods
    ]
    for config in configs:
        dbs.drafters(config.hierarchy)  # a database ordered but not given fails here

    rows, outputs = {}, {}
    for method, config in zip(methods, configs):
        traces = _run_pass(model, prompts, dbs, config, trace=True)
        rows[method.name] = _row(method, traces)
        outputs[method.name] = [trace.output for trace in traces]
        if trace_dir is not None:
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            save_traces(traces, Path(trace_dir) / f"{method.name}.traces.jsonl")
    for method in methods:
        expected = outputs[base[method.name]]
        for i, (output, want) in enumerate(zip(outputs[method.name], expected)):
            if output != want:
                raise ValueError(
                    f"row {method.name!r}: prompt {i} decodes to other tokens than "
                    f"autoregressive decoding at temperature {method.temperature}"
                )
    tps_runs: dict[str, list[float]] = {name: [] for name in names}
    for _ in range(runs):
        for method, config in zip(methods, configs):
            start = time.perf_counter()
            tokens = sum(map(len, _run_pass(model, prompts, dbs, config, trace=False)))
            elapsed = time.perf_counter() - start
            tps_runs[method.name].append(tokens / elapsed if elapsed > 0 else float("inf"))
    for method in methods:
        tps = tps_runs[method.name]
        median = statistics.median(tps)
        rows[method.name].update(
            tokens_per_sec=median,
            tokens_per_sec_mean=statistics.fmean(tps),
            tokens_per_sec_stddev=statistics.pstdev(tps),
            speedup=median / statistics.median(tps_runs[base[method.name]]),
        )
    return {
        "env": {
            "seed": seed,
            "runs": runs,
            "max_tokens": max_tokens,
            "model_call_cost_s": model_call_cost_s,
            "prompt_count": len(prompts),
            # Each row sets its own order.
            "hierarchy": {k: v for k, v in asdict(hier).items() if k != "order"},
        },
        "rows": list(rows.values()),
    }


def _run_pass(
    model: KGramModel,
    prompts: list[list[int]],
    dbs: DatabaseSet,
    config: DecodeConfig,
    trace: bool,
) -> list:
    """One row's pass over every prompt, prompt i with seed ``config.seed + i``:
    each prompt's ``DecodeTrace`` when ``trace``, else its output alone."""
    results = []
    for i, prompt in enumerate(prompts):
        prompt_config = replace(config, seed=config.seed + i, trace=trace)
        if config.hierarchy.order:
            output, _metrics, decoded = decode(model, prompt, dbs, prompt_config)
        else:
            output, metrics = autoregressive_decode(model, prompt, prompt_config)
            if trace:
                decoded = DecodeTrace(
                    list(prompt), list(output), [], prompt_config, metrics.wall_time_s
                )
        results.append(decoded if trace else output)
    return results


def _row(method: MethodSpec, traces: list[DecodeTrace]) -> dict:
    """A report row without its timing: every number in it comes from the
    row's warm-up ``traces``."""
    agg = aggregate_traces(traces)
    # An autoregressive trace records no steps: each token took one step.
    ar = method.is_autoregressive
    return {
        "name": method.name,
        "databases": method.databases,
        "temperature": method.temperature,
        "tokens": agg.tokens_generated,
        "steps": agg.tokens_generated if ar else agg.steps,
        "tau": 1.0 if ar else agg.tau,
        "alpha": agg.alpha,
        "alpha_all": agg.alpha_all,
        "draft_latency_ns": agg.draft_latency_ns,
        "tallies": agg.tallies,
        "probes": agg.probes,
    }


# The method rows of ``hd ablate``: all six access orders of the three
# databases, and all seven non-empty database subsets, greedily. With a
# trace directory, the single-database rows' trace files (``db-c``,
# ``db-m``, ``db-s``) feed ``hd analyze coverage``.
ABLATIONS = {
    "order": [
        MethodSpec(f"order-{p}", databases=p) for p in map("".join, itertools.permutations("cms"))
    ],
    "dbs": [
        MethodSpec(f"db-{subset}", databases=subset)
        for r in (1, 2, 3)
        for subset in map("".join, itertools.combinations("cms", r))
    ],
}


def file_fingerprint(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_report(report: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # A number setting may be any real number, a numpy scalar or a
        # Fraction among them; the report holds it as a float.
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
