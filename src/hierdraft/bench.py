"""Benchmark harness: method comparison, access-order and DB-subset ablations.

Timing methodology: monotonic clock, one warm-up pass discarded, then k
timed passes over the whole prompt list run back to back; the reported
tokens/sec is the median across passes (mean and stddev are emitted too).
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
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .analysis import accepted_events
from .context_db import ContextDB
from .drafting import DatabaseSet, HierarchyConfig
from .engine import (
    DecodeConfig,
    DecodeTrace,
    aggregate_traces,
    autoregressive_decode,
    decode,
    load_traces,
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
    databases: str = "cms"  # enabled database letters; "" means autoregressive
    order: str = "cms"
    temperature: float = 0.0
    recycle: bool = True

    @property
    def is_autoregressive(self) -> bool:
        return self.databases == ""


def _validate_methods(
    methods: list[MethodSpec], model_db: ModelDB | None, stats_db: StatsDB | None
) -> None:
    for method in methods:
        if "m" in method.databases and model_db is None:
            raise ValueError(f"method {method.name!r} enables the model DB but none was given")
        if "s" in method.databases and stats_db is None:
            raise ValueError(f"method {method.name!r} enables the stats DB but none was given")


def _decode_config(method: MethodSpec, hier: HierarchyConfig, **kwargs) -> DecodeConfig:
    # HierarchyConfig validation rejects any enabled database missing from
    # the method's order, so nothing can be dropped silently here.
    order = "".join(l for l in method.order if l in method.databases)
    return DecodeConfig(
        temperature=method.temperature,
        recycle=method.recycle,
        hierarchy=replace(hier, order=order, enabled=method.databases),
        **kwargs,
    )


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
    fingerprints: dict[str, str] | None = None,
    out: str | Path | None = None,
) -> dict:
    """Run every method over all prompts and assemble a JSON-ready report.

    The autoregressive baseline is always included (prepended when absent)
    and its speedup is 1.0 by construction. Prompt i always decodes with
    seed ``seed + i`` so outputs are comparable across methods.
    """
    if not prompts:
        raise ValueError("no prompts")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    hier = hierarchy or HierarchyConfig()
    methods = list(methods)
    if not any(m.is_autoregressive for m in methods):
        methods.insert(0, MethodSpec(AUTOREGRESSIVE, databases=""))
    _validate_methods(methods, model_db, stats_db)

    rows = []
    ar_tps: float | None = None
    for method in methods:
        row = _run_method(
            method,
            model,
            prompts,
            model_db=model_db,
            stats_db=stats_db,
            hier=hier,
            runs=runs,
            seed=seed,
            max_tokens=max_tokens,
            model_call_cost_s=model_call_cost_s,
            trace_dir=trace_dir,
        )
        if method.is_autoregressive and ar_tps is None:
            ar_tps = row["tokens_per_sec"]
        rows.append(row)
    for row in rows:
        row["speedup"] = row["tokens_per_sec"] / ar_tps if ar_tps else None
    report = {
        "env": {
            "seed": seed,
            "runs": runs,
            "max_tokens": max_tokens,
            "model_call_cost_s": model_call_cost_s,
            "prompt_count": len(prompts),
            # Each row sets its own order and databases.
            "hierarchy": {
                k: v for k, v in asdict(hier).items() if k not in ("order", "enabled")
            },
            "fingerprints": fingerprints or {},
        },
        "rows": rows,
    }
    if out is not None:
        write_report(report, out)
    return report


def _run_method(
    method: MethodSpec,
    model: KGramModel,
    prompts: list[list[int]],
    *,
    model_db: ModelDB | None,
    stats_db: StatsDB | None,
    hier: HierarchyConfig,
    runs: int,
    seed: int,
    max_tokens: int,
    model_call_cost_s: float,
    trace_dir: str | Path | None,
) -> dict:
    def run_pass(trace: bool) -> tuple[int, list[DecodeTrace]]:
        total_tokens = 0
        traces: list[DecodeTrace] = []
        for i, prompt in enumerate(prompts):
            if method.is_autoregressive:
                config = DecodeConfig(
                    temperature=method.temperature,
                    seed=seed + i,
                    max_tokens=max_tokens,
                    model_call_cost_s=model_call_cost_s,
                )
                output, metrics = autoregressive_decode(model, prompt, config)
                if trace:
                    traces.append(
                        DecodeTrace(list(prompt), list(output), [], config, metrics.wall_time_s)
                    )
            else:
                config = _decode_config(
                    method,
                    hier,
                    seed=seed + i,
                    max_tokens=max_tokens,
                    model_call_cost_s=model_call_cost_s,
                    trace=trace,
                )
                dbs = DatabaseSet(
                    context=ContextDB(
                        window=hier.draft_len,
                        per_key=hier.set_size,
                        capacity=hier.capacity,
                    ),
                    model=model_db,
                    stats=stats_db,
                )
                output, _metrics, decoded = decode(model, prompt, dbs, config)
                if trace:
                    traces.append(decoded)
            total_tokens += len(output)
        return total_tokens, traces

    # The traced warm-up pass is discarded from timing.
    _tokens, traces = run_pass(trace=True)
    tps_runs: list[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        total_tokens, _traces = run_pass(trace=False)
        elapsed = time.perf_counter() - start
        tps_runs.append(total_tokens / elapsed if elapsed > 0 else float("inf"))
    row: dict = {
        "name": method.name,
        "databases": method.databases,
        "order": method.order,
        "temperature": method.temperature,
        "tokens_per_sec": statistics.median(tps_runs),
        "tokens_per_sec_mean": statistics.fmean(tps_runs),
        "tokens_per_sec_stddev": statistics.pstdev(tps_runs),
    }
    if method.is_autoregressive:
        tokens = sum(len(t.output) for t in traces)
        row.update(
            {
                "tokens": tokens,
                "steps": tokens,
                "tau": 1.0,
                "alpha": None,
                "alpha_all": None,
                "draft_latency_ns": {"mean": 0.0, "stddev": 0.0, "per_db": {}},
                "tallies": {},
                "probes": {},
            }
        )
    else:
        agg = aggregate_traces(traces)
        row.update(
            {
                "tokens": agg.tokens_generated,
                "steps": agg.steps,
                "tau": agg.tau,
                "alpha": agg.alpha,
                "alpha_all": agg.alpha_all,
                "draft_latency_ns": agg.draft_latency_ns,
                "tallies": agg.tallies,
                "probes": agg.probes,
            }
        )
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        save_traces(traces, trace_dir / f"{method.name}.traces.jsonl")
    return row


def ablate_order(
    model: KGramModel,
    prompts: list[list[int]],
    *,
    model_db: ModelDB,
    stats_db: StatsDB,
    temperature: float = 0.0,
    **bench_kwargs,
) -> dict:
    """Benchmark all six access-order permutations (all databases enabled)."""
    methods = [
        MethodSpec(f"order-{''.join(p)}", databases="cms", order="".join(p), temperature=temperature)
        for p in itertools.permutations("cms")
    ]
    return run_bench(
        model, prompts, methods, model_db=model_db, stats_db=stats_db, **bench_kwargs
    )


def ablate_dbs(
    model: KGramModel,
    prompts: list[list[int]],
    *,
    model_db: ModelDB,
    stats_db: StatsDB,
    order: str = "cms",
    temperature: float = 0.0,
    trace_dir: str | Path | None = None,
    **bench_kwargs,
) -> dict:
    """Benchmark all seven non-empty database subsets.

    Single-database rows carry their accepted-token events so token
    coverage can be intersected across sources afterwards.
    """
    subsets = []
    for r in (1, 2, 3):
        subsets.extend("".join(c) for c in itertools.combinations("cms", r))
    methods = [
        MethodSpec(f"db-{subset}", databases=subset, order=order, temperature=temperature)
        for subset in subsets
    ]
    trace_dir = Path(trace_dir) if trace_dir is not None else None
    report = run_bench(
        model,
        prompts,
        methods,
        model_db=model_db,
        stats_db=stats_db,
        trace_dir=trace_dir,
        **bench_kwargs,
    )
    if trace_dir is not None:
        for row in report["rows"]:
            if len(row["databases"]) == 1:
                traces = load_traces(trace_dir / f"{row['name']}.traces.jsonl")
                events = sorted(accepted_events(traces))
                row["accepted_events"] = [list(e) for e in events]
    return report


def file_fingerprint(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_report(report: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
