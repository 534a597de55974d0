"""Decode loop: draft hierarchically, verify, emit, update, repeat.

Greedy decoding here is lossless by construction: every emitted token is
the model argmax given the true preceding context, so the output equals
token-by-token autoregressive decoding while spending fewer model calls.
The per-step records are complete enough that all metrics can be
recomputed from a persisted trace. Traces persist as JSON lines, one
``DecodeTrace`` per line tagged ``"schema": TRACE_SCHEMA``; loading any
other line raises ``ValueError``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EOS
from .drafting import (
    AccessLog,
    AccessRecord,
    DatabaseSet,
    HierarchyConfig,
    hierarchical_draft,
)
from .kgram import KGramModel, ModelCallCounter, apply_temperature, sample_token
from .verification import StepOutcome, _add_tallies, verify_greedy, verify_sampling


TRACE_SCHEMA = 1


@dataclass
class DecodeConfig:
    max_tokens: int = 1024
    temperature: float = 0.0
    seed: int = 0
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    recycle: bool = True
    trace: bool = False
    model_call_cost_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        for name in ("temperature", "model_call_cost_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, not {value}")


@dataclass
class DecodeMetrics:
    steps: int
    tokens_generated: int
    tau: float
    alpha: float | None
    alpha_all: float | None
    draft_latency_ns: dict
    verify_latency_ns_mean: float
    wall_time_s: float
    tallies: dict[str, dict[str, int]]
    probes: dict[str, int]


@dataclass
class StepRecord:
    context_tail: list[int]
    access: AccessLog
    outcome: StepOutcome
    ctx_db_size: int


@dataclass
class DecodeTrace:
    prompt: list[int]
    output: list[int]
    steps: list[StepRecord]
    config: DecodeConfig
    wall_time_s: float

    def to_dict(self) -> dict:
        return {"schema": TRACE_SCHEMA, **asdict(self)}


def _validate_prompt(prompt: list[int]) -> None:
    if not prompt:
        raise ValueError("malformed prompt: empty")
    if EOS in prompt[:-1]:
        raise ValueError("malformed prompt: EOS mid-sequence")


class _MetricsAccumulator:
    """Running totals behind ``DecodeMetrics``, fed one step at a time.

    ``decode`` feeds it as it goes, so an untraced run keeps no per-step
    records; ``metrics_from_trace`` and ``aggregate_traces`` replay trace
    records into it, so the two agree exactly. Latency sums are Python
    integers, so means and the standard deviation are exact up to the
    final division.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.accepted_won = 0
        self.drafted_won = 0
        self.drafted_all = 0
        self.tallies: dict[str, dict[str, int]] = {}
        self.draft_ns = 0
        self.draft_ns_sq = 0
        self.per_db_ns: dict[str, list[int]] = {}  # letter -> [sum, count]
        self.verify_ns = 0

    def add(self, access: AccessLog, outcome: StepOutcome) -> None:
        self.steps += 1
        if outcome.winner is not None:
            self.accepted_won += outcome.accepted[outcome.winner]
            self.drafted_won += outcome.candidate_lens[outcome.winner]
        self.drafted_all += outcome.drafted_total
        _add_tallies(self.tallies, outcome, access)
        step_draft_ns = 0
        for letter, rec in access.items():
            if rec.attempted:
                total = self.per_db_ns.setdefault(letter, [0, 0])
                total[0] += rec.elapsed_ns
                total[1] += 1
                step_draft_ns += rec.elapsed_ns
        self.draft_ns += step_draft_ns
        self.draft_ns_sq += step_draft_ns * step_draft_ns
        self.verify_ns += outcome.verify_elapsed_ns

    def metrics(self, tokens_generated: int, steps: int, wall_time_s: float) -> DecodeMetrics:
        n = self.steps
        return DecodeMetrics(
            steps=steps,
            tokens_generated=tokens_generated,
            tau=tokens_generated / steps if steps else 0.0,
            alpha=self.accepted_won / self.drafted_won if self.drafted_won else None,
            alpha_all=self.accepted_won / self.drafted_all if self.drafted_all else None,
            draft_latency_ns={
                "mean": self.draft_ns / n if n else 0.0,
                "stddev": math.sqrt(n * self.draft_ns_sq - self.draft_ns**2) / n if n else 0.0,
                "per_db": {
                    letter: total / count
                    for letter, (total, count) in sorted(self.per_db_ns.items())
                },
            },
            verify_latency_ns_mean=self.verify_ns / n if n else 0.0,
            wall_time_s=wall_time_s,
            tallies=self.tallies,
            # Every attempted probe either failed or succeeded.
            probes={
                letter: t["draft_failure"] + t["draft_success"]
                for letter, t in self.tallies.items()
            },
        )


def decode(
    model: KGramModel,
    prompt: list[int],
    dbs: DatabaseSet,
    config: DecodeConfig,
) -> tuple[list[int], DecodeMetrics, DecodeTrace | None]:
    """Speculative decode until EOS or ``max_tokens``.

    The context database is reset and fed the prompt up front, then after
    every step it ingests the seam window (the last draft_len + 1 old
    tokens plus the new emissions) and, when recycling is on, the
    model-preferred tokens computed during verification. A step whose
    emissions overshoot ``max_tokens`` is truncated in the output but kept
    whole in the trace.

    One ``context`` list grows in place across steps, metrics accumulate
    step by step, ``StepRecord``s are built only when tracing, and the
    stats-DB answers are memoized for this generation only.
    """
    _validate_prompt(prompt)
    hier = config.hierarchy
    use_context = "c" in hier.enabled
    if use_context and dbs.context is None:
        raise ValueError("context database enabled but not provided")
    counter = ModelCallCounter(cost_per_call_s=config.model_call_cost_s)
    rng = np.random.default_rng(config.seed)
    if use_context:
        dbs.context.reset()
        if len(prompt) >= 2:
            dbs.context.ingest(prompt)
    context = list(prompt)
    limit = len(prompt) + config.max_tokens
    seam_len = hier.draft_len + 1
    stats_memo: dict = {}
    totals = _MetricsAccumulator()
    records: list[StepRecord] | None = [] if config.trace else None
    start = time.perf_counter()
    while len(context) < limit:
        draft_set, log = hierarchical_draft(context, dbs, hier, stats_memo)
        if config.temperature == 0:
            outcome = verify_greedy(model, context, draft_set, counter)
        else:
            outcome = verify_sampling(
                model, context, draft_set, config.temperature, rng, counter
            )
        totals.add(log, outcome)
        emitted = outcome.emitted
        if records is not None:
            context_tail = context[-hier.tail_len:]
        last = context[-1]
        context.extend(emitted)
        if use_context:
            seam = context[-(seam_len + len(emitted)):]
            if len(seam) >= 2:
                dbs.context.ingest(seam)
            if config.recycle:
                recycle_seq = [last] + outcome.recycled
                if len(recycle_seq) >= 2:
                    dbs.context.ingest(recycle_seq)
        if records is not None:
            records.append(
                StepRecord(
                    context_tail=context_tail,
                    access=log,
                    outcome=outcome,
                    ctx_db_size=len(dbs.context) if use_context else 0,
                )
            )
        if EOS in emitted:
            del context[len(context) - len(emitted) + emitted.index(EOS) + 1:]
            break
    generated = context[len(prompt):limit]
    wall = time.perf_counter() - start
    metrics = totals.metrics(len(generated), counter.calls, wall)
    trace = None
    if records is not None:
        trace = DecodeTrace(
            prompt=list(prompt),
            output=list(generated),
            steps=records,
            config=config,
            wall_time_s=wall,
        )
    return generated, metrics, trace


def autoregressive_decode(
    model: KGramModel,
    prompt: list[int],
    config: DecodeConfig,
) -> tuple[list[int], DecodeMetrics]:
    """Token-by-token baseline: one model call per emitted token."""
    _validate_prompt(prompt)
    counter = ModelCallCounter(cost_per_call_s=config.model_call_cost_s)
    rng = np.random.default_rng(config.seed)
    context = list(prompt)
    limit = len(prompt) + config.max_tokens
    start = time.perf_counter()
    while len(context) < limit:
        counter.bump()
        if config.temperature == 0:
            token = model.argmax_token(context)
        else:
            probs = apply_temperature(
                model.next_distribution(context), config.temperature
            )
            token = sample_token(probs, rng)
        context.append(token)
        if token == EOS:
            break
    generated = context[len(prompt):]
    wall = time.perf_counter() - start
    metrics = DecodeMetrics(
        steps=counter.calls,
        tokens_generated=len(generated),
        tau=len(generated) / counter.calls if counter.calls else 0.0,
        alpha=None,
        alpha_all=None,
        draft_latency_ns={"mean": 0.0, "stddev": 0.0, "per_db": {}},
        verify_latency_ns_mean=0.0,
        wall_time_s=wall,
        tallies={},
        probes={},
    )
    return generated, metrics


def _replay(traces: list[DecodeTrace]) -> _MetricsAccumulator:
    totals = _MetricsAccumulator()
    for trace in traces:
        for record in trace.steps:
            totals.add(record.access, record.outcome)
    return totals


def metrics_from_trace(trace: DecodeTrace) -> DecodeMetrics:
    """Recompute the decode metrics from a persisted trace, exactly."""
    return _replay([trace]).metrics(len(trace.output), len(trace.steps), trace.wall_time_s)


def aggregate_traces(traces: list[DecodeTrace]) -> DecodeMetrics:
    """Pool step records across traces; means weight every step equally."""
    if not traces:
        raise ValueError("no traces to aggregate")
    tokens = sum(len(trace.output) for trace in traces)
    steps = sum(len(trace.steps) for trace in traces)
    wall = sum(trace.wall_time_s for trace in traces)
    return _replay(traces).metrics(tokens, steps, wall)


def save_traces(traces: list[DecodeTrace], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace.to_dict(), separators=(",", ":"), sort_keys=True))
            fh.write("\n")


def _trace_from_dict(d: dict) -> DecodeTrace:
    """Rebuild a trace; the dataclasses reject missing and unknown fields."""
    if not isinstance(d, dict) or d.pop("schema", None) != TRACE_SCHEMA:
        raise ValueError(f"trace schema is not {TRACE_SCHEMA}")
    config = d["config"]
    d["config"] = DecodeConfig(**{**config, "hierarchy": HierarchyConfig(**config["hierarchy"])})
    d["steps"] = [
        StepRecord(
            **{
                **step,
                "access": {k: AccessRecord(**v) for k, v in step["access"].items()},
                "outcome": StepOutcome(**step["outcome"]),
            }
        )
        for step in d["steps"]
    ]
    trace = DecodeTrace(**d)
    _check_token_ids("prompt", trace.prompt)
    _check_token_ids("output", trace.output)
    for step in trace.steps:
        _check_token_ids("context_tail", step.context_tail)
        _check_token_ids("emitted", step.outcome.emitted)
        _check_token_ids("recycled", step.outcome.recycled)
    return trace


def _check_token_ids(name: str, tokens) -> None:
    # bool is an int subclass, and JSON true/false must not pass as ids.
    if not isinstance(tokens, list) or not all(type(t) is int and t >= 0 for t in tokens):
        raise ValueError(f"{name} must be a list of non-negative integer token ids")


def load_traces(path: str | Path) -> list[DecodeTrace]:
    """Read a JSONL trace file.

    A line that is not a JSON object with ``"schema": TRACE_SCHEMA``, lacks
    or adds a field, holds an invalid config, or holds a token id that is
    not a non-negative integer raises ``ValueError``.
    """
    traces = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                traces.append(_trace_from_dict(json.loads(line)))
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"malformed trace at {path}:{number}: {exc!r}") from exc
    return traces
