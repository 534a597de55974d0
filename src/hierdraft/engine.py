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
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EOS
from .drafting import (
    SOURCE_NAMES,
    AccessLog,
    AccessRecord,
    DatabaseSet,
    Drafter,
    HierarchyConfig,
    Probe,
    hierarchical_draft,
)
from .kgram import KGramModel, ModelCallCounter, _check_temperature
from .verification import StepOutcome, verify_greedy, verify_sampling


TRACE_SCHEMA = 4
_SOURCE_TO_LETTER = {name: letter for letter, name in SOURCE_NAMES.items()}


@dataclass
class DecodeConfig:
    max_tokens: int = 1024
    temperature: float = 0.0
    seed: int = 0
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    trace: bool = False
    model_call_cost_s: float = 0.0

    def __post_init__(self) -> None:
        for name, least in (("max_tokens", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
        _check_temperature(self.temperature, positive=False)
        cost = self.model_call_cost_s
        # bool is an int subclass, and JSON true must not pass as 1.
        number = isinstance(cost, (int, float)) and not isinstance(cost, bool)
        if not number or not math.isfinite(cost) or cost < 0:
            raise ValueError(f"model_call_cost_s must be a finite number >= 0, not {cost!r}")


@dataclass
class DecodeMetrics:
    steps: int
    tokens_generated: int
    tau: float
    alpha: float | None
    alpha_all: float | None
    draft_latency_ns: dict | None       # None: not measured (untraced)
    verify_latency_ns_mean: float | None
    wall_time_s: float
    tallies: dict[str, dict[str, int]]
    probes: dict[str, int]


@dataclass
class StepRecord:
    context_tail: list[int]
    access: AccessLog
    outcome: StepOutcome


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


def _access_log(letters: list[str], probes: list[Probe], probe_ns: list[int]) -> AccessLog:
    """A step's trace view: one record per drafter, attempted or skipped."""
    log = {letter: AccessRecord() for letter in letters}
    for (letter, returned, kept), elapsed_ns in zip(probes, probe_ns):
        log[letter] = AccessRecord(True, returned, kept, elapsed_ns)
    return log


def _timed(draft: Drafter, probe_ns: list[int]) -> Drafter:
    """``draft``, appending the duration of every call to ``probe_ns``."""
    clock = time.perf_counter_ns

    def timed(context: list[int], want: int) -> list[Sequence[int]]:
        start = clock()
        values = draft(context, want)
        probe_ns.append(clock() - start)
        return values

    return timed


class _MetricsAccumulator:
    """Running totals behind ``DecodeMetrics``, fed one step at a time.

    An untraced ``decode`` adds each step's probes and outcome and leaves
    the latencies ``None`` (not measured); a traced one and
    ``aggregate_traces`` replay trace records into it, times included, so
    the two agree exactly. Every total is a Python integer, so means and
    the standard deviation are exact up to the final division.
    """

    def __init__(self, letters: Iterable[str] = (), timed: bool = True) -> None:
        self.timed = timed
        self.steps = 0
        self.accepted_won = 0
        self.drafted_won = 0
        self.drafted_all = 0
        self.draft_ns = 0
        self.draft_ns_sq = 0
        self.verify_ns = 0
        # letter -> [probes, hits, wins, accepted tokens, probe ns], in probe order.
        self.per_db: dict[str, list[int]] = {letter: [0] * 5 for letter in letters}

    def add(self, probes: list[Probe], outcome: StepOutcome) -> None:
        """An attempted probe is a hit (draft success) when it returned
        anything; a database wins the step (verify success) when it
        sourced the winning candidate and at least one token was accepted."""
        self.steps += 1
        per_db = self.per_db
        for letter, returned, _kept in probes:
            counts = per_db[letter]
            counts[0] += 1
            if returned:
                counts[1] += 1
        winner = outcome.winner
        if winner is not None:
            accepted = outcome.accepted[winner]
            self.accepted_won += accepted
            self.drafted_won += outcome.candidate_lens[winner]
            if accepted:
                counts = per_db[_SOURCE_TO_LETTER[outcome.winner_source]]
                counts[2] += 1
                counts[3] += accepted
        self.drafted_all += outcome.drafted_total

    def replay(self, record: StepRecord) -> None:
        """Add one trace step with its probe and verify times."""
        probes = []
        step_ns = 0
        for letter, rec in record.access.items():
            counts = self.per_db.setdefault(letter, [0] * 5)
            if rec.attempted:
                probes.append((letter, rec.returned, rec.kept))
                counts[4] += rec.elapsed_ns
                step_ns += rec.elapsed_ns
        self.add(probes, record.outcome)
        self.draft_ns += step_ns
        self.draft_ns_sq += step_ns * step_ns
        self.verify_ns += record.outcome.verify_elapsed_ns

    def metrics(self, tokens_generated: int, steps: int, wall_time_s: float) -> DecodeMetrics:
        n = self.steps
        draft_latency = verify_latency = None
        if self.timed:
            draft_latency = {
                "mean": self.draft_ns / n if n else 0.0,
                "stddev": math.sqrt(n * self.draft_ns_sq - self.draft_ns**2) / n if n else 0.0,
                "per_db": {
                    letter: counts[4] / counts[0]
                    for letter, counts in sorted(self.per_db.items())
                    if counts[0]
                },
            }
            verify_latency = self.verify_ns / n if n else 0.0
        return DecodeMetrics(
            steps=steps,
            tokens_generated=tokens_generated,
            tau=tokens_generated / steps if steps else 0.0,
            alpha=self.accepted_won / self.drafted_won if self.drafted_won else None,
            alpha_all=self.accepted_won / self.drafted_all if self.drafted_all else None,
            draft_latency_ns=draft_latency,
            verify_latency_ns_mean=verify_latency,
            wall_time_s=wall_time_s,
            tallies={
                letter: {
                    "draft_failure": probes - hits,
                    "draft_success": hits,
                    "verify_success": wins,
                    "accepted_tokens": accepted,
                }
                for letter, (probes, hits, wins, accepted, _ns) in self.per_db.items()
            },
            probes={letter: counts[0] for letter, counts in self.per_db.items()},
        )


def decode(
    model: KGramModel,
    prompt: list[int],
    dbs: DatabaseSet,
    config: DecodeConfig,
) -> tuple[list[int], DecodeMetrics, DecodeTrace | None]:
    """Speculative decode until EOS or ``max_tokens``.

    The databases hand out their drafters once, for this generation only,
    and ``decode`` reaches them through nothing else: whatever a source
    learns from the growing context, such as the context DB's table, it
    learns inside its drafter. A step whose emissions overshoot
    ``max_tokens`` is truncated in the output but kept whole in the trace.

    One ``context`` list grows in place across steps. An untraced step
    reads no clock and only adds to plain counters. Only a traced step is
    timed, each probe through a wrapped drafter and then the verify call,
    and builds its ``AccessRecord``s and ``StepRecord``; the metrics
    replay those records, as ``aggregate_traces`` does. The RNG behind
    sampling verification is made from ``config.seed`` only at T > 0; a
    greedy generation draws nothing and builds none.
    """
    _validate_prompt(prompt)
    hier = config.hierarchy
    drafters = dbs.drafters(hier)
    counter = ModelCallCounter(cost_per_call_s=config.model_call_cost_s)
    greedy = config.temperature == 0
    rng = None if greedy else np.random.default_rng(config.seed)
    context = list(prompt)
    limit = len(prompt) + config.max_tokens
    letters = [letter for letter, _ in drafters]
    totals = _MetricsAccumulator(letters, timed=config.trace)
    records: list[StepRecord] | None = [] if config.trace else None
    probe_ns: list[int] = []  # a traced step's probe times, in probe order
    if config.trace:
        drafters = [(letter, _timed(draft, probe_ns)) for letter, draft in drafters]
    start = time.perf_counter()
    while len(context) < limit:
        draft_set, probes = hierarchical_draft(context, drafters, hier)
        if records is not None:
            verify_start = time.perf_counter_ns()
        if greedy:
            outcome = verify_greedy(model, context, draft_set, counter)
        else:
            outcome = verify_sampling(
                model, context, draft_set, config.temperature, rng, counter
            )
        if records is None:
            totals.add(probes, outcome)
        else:
            outcome.verify_elapsed_ns = time.perf_counter_ns() - verify_start
            log = _access_log(letters, probes, probe_ns)
            probe_ns.clear()
            records.append(StepRecord(context[-hier.tail_len:], log, outcome))
            totals.replay(records[-1])
        emitted = outcome.emitted
        context.extend(emitted)
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
    """Token-by-token baseline: one model call per emitted token.

    At T > 0 each token is one ``KGramModel.sample`` draw from an RNG made
    from ``config.seed``; at T = 0 it is the argmax, and no RNG is made.
    """
    _validate_prompt(prompt)
    counter = ModelCallCounter(cost_per_call_s=config.model_call_cost_s)
    greedy = config.temperature == 0
    rng = None if greedy else np.random.default_rng(config.seed)
    context = list(prompt)
    limit = len(prompt) + config.max_tokens
    start = time.perf_counter()
    while len(context) < limit:
        counter.bump()
        if greedy:
            token = model.argmax_token(context)
        else:
            token = model.sample(context, config.temperature, rng)
        context.append(token)
        if token == EOS:
            break
    generated = context[len(prompt):]
    wall = time.perf_counter() - start
    metrics = _MetricsAccumulator().metrics(len(generated), counter.calls, wall)
    return generated, metrics


def aggregate_traces(traces: list[DecodeTrace]) -> DecodeMetrics:
    """Pool step records across traces; means weight every step equally.

    One trace replays to exactly the metrics its ``decode`` returned. A
    step that would not replay, as ``load_traces`` defines it, raises
    ``ValueError``.
    """
    if not traces:
        raise ValueError("no traces to aggregate")
    totals = _MetricsAccumulator()
    for trace in traces:
        for record in trace.steps:
            _check_step(record, trace.config.hierarchy.order)
            totals.replay(record)
    tokens = sum(len(trace.output) for trace in traces)
    steps = sum(len(trace.steps) for trace in traces)
    wall = sum(trace.wall_time_s for trace in traces)
    return totals.metrics(tokens, steps, wall)


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
    _check_naturals("prompt", trace.prompt)
    _check_naturals("output", trace.output)
    if type(trace.wall_time_s) not in (int, float) or not trace.wall_time_s >= 0:
        raise ValueError(f"wall_time_s {trace.wall_time_s!r} is not a duration")
    for step in trace.steps:
        _check_step(step, trace.config.hierarchy.order)
    return trace


def _check_naturals(name: str, values) -> None:
    # bool is an int subclass, and JSON true/false must not pass as numbers.
    if not isinstance(values, list) or not all(type(v) is int and v >= 0 for v in values):
        raise ValueError(f"{name} must be a list of non-negative integers")


def _check_step(step: StepRecord, order: str) -> None:
    """Reject a step that the metrics replay would fail on or miscount.

    ``order`` is the trace's ``config.hierarchy.order``: the access log is
    keyed by database, and its candidates were kept in probe order.
    """
    outcome, access = step.outcome, step.access
    _check_naturals("context_tail", step.context_tail)
    for name in ("emitted", "accepted", "candidate_lens"):
        _check_naturals(name, getattr(outcome, name))
    numbers = [outcome.drafted_total, outcome.verify_elapsed_ns]
    for letter, record in access.items():
        if letter not in set(order) or type(record.attempted) is not bool:
            raise ValueError(f"access key {letter!r} is not a database in order {order!r}")
        numbers += [record.returned, record.kept, record.elapsed_ns]
    _check_naturals("step counts", numbers)
    accepted, lens = outcome.accepted, outcome.candidate_lens
    n = len(accepted)
    if len(lens) != n:
        raise ValueError(f"{n} accepted lengths but {len(lens)} candidates")
    if outcome.drafted_total != sum(lens):
        raise ValueError(f"drafted_total {outcome.drafted_total} is not {sum(lens)}")
    if any(a > length for a, length in zip(accepted, lens)):
        raise ValueError(f"accepted lengths {accepted} exceed candidate lengths {lens}")
    # Each database's kept candidates take the next slots, in probe order.
    sources = []
    for letter in order:
        if letter in access:
            sources += [SOURCE_NAMES[letter]] * access[letter].kept
    if len(sources) != n:
        raise ValueError(f"access log kept {len(sources)} candidates, step scored {n}")
    if outcome.winner is None:
        consistent = n == 0 and outcome.winner_source is None
    else:
        consistent = (
            type(outcome.winner) is int
            and outcome.winner == accepted.index(max(accepted))
            and outcome.winner_source == sources[outcome.winner]
        )
    if not consistent:
        raise ValueError(
            f"winner {outcome.winner!r} from {outcome.winner_source!r} is not the best "
            "drafted candidate"
        )
    longest = max(accepted) if n else 0
    if len(outcome.emitted) != longest + 1:
        raise ValueError(f"{len(outcome.emitted)} emitted tokens after {longest} accepted")


def load_traces(path: str | Path) -> list[DecodeTrace]:
    """Read a JSONL trace file.

    A line that is not a JSON object with ``"schema": TRACE_SCHEMA``, lacks
    or adds a field, holds an invalid config, holds a token id or count
    that is not a non-negative integer, or holds a step that does not
    replay or contradicts itself raises ``ValueError``. A step contradicts
    itself when an access key is not in the hierarchy's order, the kept
    counts disagree with the candidates, ``drafted_total`` is not the sum
    of the candidate lengths, a candidate accepted more tokens than it
    has, the winner is not the first candidate with the most accepted
    tokens or its source did not keep that candidate, or the step did not
    emit one token more than the winner accepted. Every trace it returns
    replays through ``aggregate_traces``.
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
