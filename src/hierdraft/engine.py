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
from .verification import StepOutcome, attribute_verify_success, verify_greedy, verify_sampling


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


def _compute_metrics(
    records: list[StepRecord],
    tokens_generated: int,
    steps: int,
    wall_time_s: float,
) -> DecodeMetrics:
    accepted_won = 0
    drafted_won = 0
    drafted_all = 0
    tallies: dict[str, dict[str, int]] = {}
    probes: dict[str, int] = {}
    draft_ns: list[int] = []
    per_db_ns: dict[str, list[int]] = {}
    verify_ns: list[int] = []
    for record in records:
        outcome = record.outcome
        if outcome.winner is not None:
            accepted_won += outcome.accepted[outcome.winner]
            drafted_won += outcome.candidate_lens[outcome.winner]
        drafted_all += outcome.drafted_total
        step_tallies = attribute_verify_success(outcome, record.access)
        for letter, entry in step_tallies.items():
            agg = tallies.setdefault(
                letter, {"draft_failure": 0, "draft_success": 0, "verify_success": 0}
            )
            for name, value in entry.items():
                agg[name] += value
        step_draft_ns = 0
        for letter, rec in record.access.items():
            probes.setdefault(letter, 0)
            if rec.attempted:
                probes[letter] += 1
                per_db_ns.setdefault(letter, []).append(rec.elapsed_ns)
                step_draft_ns += rec.elapsed_ns
        draft_ns.append(step_draft_ns)
        verify_ns.append(outcome.verify_elapsed_ns)
    draft_arr = np.asarray(draft_ns, dtype=np.float64) if draft_ns else np.zeros(1)
    return DecodeMetrics(
        steps=steps,
        tokens_generated=tokens_generated,
        tau=tokens_generated / steps if steps else 0.0,
        alpha=accepted_won / drafted_won if drafted_won else None,
        alpha_all=accepted_won / drafted_all if drafted_all else None,
        draft_latency_ns={
            "mean": float(draft_arr.mean()),
            "stddev": float(draft_arr.std()),
            "per_db": {
                letter: float(np.mean(vals)) for letter, vals in sorted(per_db_ns.items())
            },
        },
        verify_latency_ns_mean=float(np.mean(verify_ns)) if verify_ns else 0.0,
        wall_time_s=wall_time_s,
        tallies=tallies,
        probes=probes,
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
    generated: list[int] = []
    records: list[StepRecord] = []
    start = time.perf_counter()
    done = False
    while not done and len(generated) < config.max_tokens:
        context = prompt + generated
        draft_set, log = hierarchical_draft(context, dbs, hier)
        if config.temperature == 0:
            outcome = verify_greedy(model, context, draft_set, counter)
        else:
            outcome = verify_sampling(
                model, context, draft_set, config.temperature, rng, counter
            )
        if use_context:
            seam = context[-(hier.draft_len + 1):] + outcome.emitted
            if len(seam) >= 2:
                dbs.context.ingest(seam)
            if config.recycle:
                recycle_seq = [context[-1]] + outcome.recycled
                if len(recycle_seq) >= 2:
                    dbs.context.ingest(recycle_seq)
        records.append(
            StepRecord(
                context_tail=context[-hier.tail_len:],
                access=log,
                outcome=outcome,
                ctx_db_size=len(dbs.context) if use_context else 0,
            )
        )
        generated.extend(outcome.emitted)
        if EOS in outcome.emitted:
            eos_at = len(generated) - len(outcome.emitted) + outcome.emitted.index(EOS)
            generated = generated[:eos_at + 1]
            done = True
    if len(generated) > config.max_tokens:
        generated = generated[:config.max_tokens]
    wall = time.perf_counter() - start
    metrics = _compute_metrics(records, len(generated), counter.calls, wall)
    trace = None
    if config.trace:
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
    generated: list[int] = []
    start = time.perf_counter()
    while len(generated) < config.max_tokens:
        context = prompt + generated
        counter.bump()
        if config.temperature == 0:
            token = model.argmax_token(context)
        else:
            probs = apply_temperature(
                model.next_distribution(context), config.temperature
            )
            token = sample_token(probs, rng)
        generated.append(token)
        if token == EOS:
            break
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


def metrics_from_trace(trace: DecodeTrace) -> DecodeMetrics:
    """Recompute the decode metrics from a persisted trace, exactly."""
    return _compute_metrics(
        trace.steps, len(trace.output), len(trace.steps), trace.wall_time_s
    )


def aggregate_traces(traces: list[DecodeTrace]) -> DecodeMetrics:
    """Pool step records across traces; means weight every step equally."""
    if not traces:
        raise ValueError("no traces to aggregate")
    records = [record for trace in traces for record in trace.steps]
    tokens = sum(len(trace.output) for trace in traces)
    steps = sum(len(trace.steps) for trace in traces)
    wall = sum(trace.wall_time_s for trace in traces)
    return _compute_metrics(records, tokens, steps, wall)


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
    return DecodeTrace(**d)


def load_traces(path: str | Path) -> list[DecodeTrace]:
    """Read a JSONL trace file.

    A line that is not a JSON object with ``"schema": TRACE_SCHEMA``, lacks
    or adds a field, or holds an invalid config raises ``ValueError``.
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
