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
    fingerprints: dict[str, str] | None = None,
    out: str | Path | None = None,
) -> dict:
    """Run every method over all prompts and assemble a JSON-ready report.

    The autoregressive baseline is always included (prepended when absent)
    and its speedup is 1.0 by construction. Each row writes its traces to
    ``trace_dir/<name>.traces.jsonl``, so a name that two rows share, the
    prepended baseline's included, raises ``ValueError``. Prompt i always
    decodes with seed ``seed + i``, so each row's warm-up outputs must
    equal autoregressive decoding's at the row's temperature, computed once
    per temperature; the first prompt that differs raises ``ValueError``
    naming the row and the prompt. The shared
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
    methods = list(methods)
    if not any(m.is_autoregressive for m in methods):
        methods.insert(0, MethodSpec(AUTOREGRESSIVE, databases=""))
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

    rows = []
    ar_tps: float | None = None
    ar_outputs: dict[float, list[list[int]]] = {}  # per temperature
    for method, config in zip(methods, configs):
        row, outputs = _run_method(method, config, model, prompts, dbs, runs, trace_dir)
        if config.temperature not in ar_outputs:
            ar_outputs[config.temperature] = (
                outputs if method.is_autoregressive else _ar_outputs(model, prompts, config)
            )
        for i, (output, expected) in enumerate(zip(outputs, ar_outputs[config.temperature])):
            if output != expected:
                raise ValueError(
                    f"row {method.name!r}: prompt {i} decodes to other tokens than "
                    f"autoregressive decoding at temperature {config.temperature}"
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
            # Each row sets its own order.
            "hierarchy": {k: v for k, v in asdict(hier).items() if k != "order"},
            "fingerprints": fingerprints or {},
        },
        "rows": rows,
    }
    if out is not None:
        write_report(report, out)
    return report


def _ar_outputs(model: KGramModel, prompts: list[list[int]], config: DecodeConfig) -> list:
    """Each prompt's autoregressive output at ``config``'s temperature, prompt
    i with seed ``config.seed + i``, at no model cost."""
    return [
        autoregressive_decode(
            model, prompt, replace(config, seed=config.seed + i, model_call_cost_s=0.0)
        )[0]
        for i, prompt in enumerate(prompts)
    ]


def _run_method(
    method: MethodSpec,
    method_config: DecodeConfig,
    model: KGramModel,
    prompts: list[list[int]],
    dbs: DatabaseSet,
    runs: int,
    trace_dir: str | Path | None,
) -> tuple[dict, list[list[int]]]:
    """The method's report row and its warm-up pass's outputs."""
    def run_pass(trace: bool) -> tuple[int, list[DecodeTrace]]:
        total_tokens = 0
        traces: list[DecodeTrace] = []
        for i, prompt in enumerate(prompts):
            config = replace(method_config, seed=method_config.seed + i, trace=trace)
            if method.is_autoregressive:
                output, metrics = autoregressive_decode(model, prompt, config)
                if trace:
                    traces.append(
                        DecodeTrace(list(prompt), list(output), [], config, metrics.wall_time_s)
                    )
            else:
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
    return row, [trace.output for trace in traces]


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
