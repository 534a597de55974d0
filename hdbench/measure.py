"""Untraced passes, the correctness gate, and the end-to-end metrics.

Load is one process and one thread in a closed loop: one generation at a
time, the next starting when the previous one returns. Every timed call is
``decode(..., trace=False)`` or ``autoregressive_decode`` with
``model_call_cost_s=0``, so nothing sleeps; model cost enters only through
the break-even cost.

Each prompt's latency is its median over the timed passes; medians and
tails are then taken across prompts. On a shared host the speed at which
the interpreter runs changes by up to 2.3x between runs, in phases that
last from seconds to minutes (measured on a 2-vCPU cloud VM), which no
statistic within one run removes. So every timed pass also times a fixed
reference kernel that does not touch the package, spread evenly between
its requests, and the timings are scaled by
``KERNEL_NOMINAL_NS / median kernel time``: they read as if the host ran
at the speed where the kernel takes ``KERNEL_NOMINAL_NS``. Set-up is
scaled the same way, stretch by stretch, by the kernel timed at the
builder's checkpoints. The report prints the raw timings and the scale
next to them.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from hierdraft import (
    ContextDB,
    DatabaseSet,
    DecodeConfig,
    HierarchyConfig,
    autoregressive_decode,
    decode,
)

from .world import CONTEXT_DB, Request, Sizes, Workload, World, build_world

MIN_TIMED_PASSES = 3
KERNEL_SAMPLES_PER_PASS = 32
KERNEL_SAMPLES_PER_CHECKPOINT = 4
# The reference kernel's time on an uncontended 2.1 GHz Xeon vCPU.
KERNEL_NOMINAL_NS = 540_000
_KERNEL_ROWS = np.arange(800, dtype=np.int64).reshape(200, 4) * 7919 % 50
_KERNEL_PROBS = np.linspace(0.1, 1.0, 2000)


def reference_kernel() -> int:
    """Fixed work independent of the package, about half interpreter (dict
    reads and writes) and half small numpy calls of the kinds the package
    makes, because contention on the host slows the two by different amounts."""
    table: dict[int, int] = {}
    for i in range(2_500):
        key = i * 7919 % 5003
        table[key] = table.get(key, 0) + 1
    for _ in range(2):
        np.unique(_KERNEL_ROWS, axis=0, return_counts=True)
        powered = np.power(_KERNEL_PROBS, 1.25)
        np.searchsorted(np.cumsum(powered / powered.sum()), 0.5)
    return len(table)


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def set_up(seed: int, sizes: Sizes, workdir) -> tuple[World, float]:
    """Build the world; also return its set-up time scaled to nominal host
    speed. The reference kernel is timed at each of the builder's
    checkpoints, and each stretch between two checkpoints is divided by the
    mean slowdown measured at its two ends, because the host's speed
    changes within one set-up."""
    marks: list[tuple[float, float, float]] = []  # probe start, end, slowdown

    def probe() -> None:
        start = time.perf_counter()
        samples = [kernel_ns() for _ in range(KERNEL_SAMPLES_PER_CHECKPOINT)]
        marks.append((start, time.perf_counter(), statistics.median(samples) / KERNEL_NOMINAL_NS))

    world = build_world(seed, sizes, workdir, probe)
    scaled_s = sum(
        (b_start - a_end) / ((a_slow + b_slow) / 2)
        for (_, a_end, a_slow), (b_start, _, b_slow) in zip(marks, marks[1:])
    )
    return world, scaled_s


def decode_config(workload: Workload, request: Request) -> DecodeConfig:
    return DecodeConfig(
        max_tokens=workload.max_tokens,
        temperature=workload.temperature,
        seed=request.seed,
        hierarchy=HierarchyConfig(),
        trace=False,
        model_call_cost_s=0.0,
    )


def tail_percentile(values) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples), and its value."""
    q = max(50, math.floor(100 * (1 - 10 / len(values))))
    return q, float(np.percentile(values, q))


class Gate:
    """Decides whether one speculative generation is correct.

    Under T = 0 the output must equal the autoregressive reference; under
    T > 0 it must equal the first output seen for the same prompt and seed.
    Every output must hold only ids in ``[0, vocab_size)`` and at most
    ``max_tokens`` tokens.
    """

    def __init__(self, workload: Workload, vocab_size: int, ar_refs: list[list[int] | None]):
        self.workload = workload
        self.vocab_size = vocab_size
        self.refs = list(ar_refs) if workload.temperature == 0 else [None] * len(ar_refs)
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures[reason] += 1

    def check(self, index: int, out: list[int]) -> bool:
        reason = None
        if len(out) > self.workload.max_tokens:
            reason = "too many tokens"
        elif any(t < 0 or t >= self.vocab_size for t in out):
            reason = "id out of range"
        elif self.workload.temperature > 0 and self.refs[index] is None:
            self.refs[index] = list(out)
        elif out != self.refs[index]:
            reason = "differs from AR" if self.workload.temperature == 0 else "not repeatable"
        if reason is None:
            self.attempted += 1
            return True
        self.fail(reason)
        return False

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Pass:
    """One pass over the prompts; ``None`` marks a generation that raised
    or failed the gate."""

    latency_ns: list[int | None]
    tokens: list[int] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    probes: Counter = field(default_factory=Counter)

    @property
    def wall_ns(self) -> int:
        return sum(t for t in self.latency_ns if t is not None)


def ar_once(world: World, workload: Workload, request: Request, result: Pass) -> list[int] | None:
    """One autoregressive generation, timed into ``result``; its output."""
    config = decode_config(workload, request)
    start = time.perf_counter_ns()
    try:
        out, _ = autoregressive_decode(world.model, request.prompt, config)
    except Exception:  # a failed baseline leaves its prompt without a reference
        result.latency_ns.append(None)
        return None
    result.latency_ns.append(time.perf_counter_ns() - start)
    result.tokens.append(len(out))
    return out


def spec_once(
    world: World, workload: Workload, index: int, request: Request, gate: Gate,
    result: Pass, tracer=None,
) -> None:
    """One speculative generation, timed into ``result``, its output gated.

    With a tracer, ``decode`` and the fresh context DB come from it; the
    timing around the call is the same either way.
    """
    config = decode_config(workload, request)
    context = ContextDB(**CONTEXT_DB) if tracer is None else tracer.context_db()
    dbs = DatabaseSet(context=context, model=world.model_db, stats=world.stats_db)
    run = decode if tracer is None else tracer.decode
    start = time.perf_counter_ns()
    try:
        out, metrics, _ = run(world.model, request.prompt, dbs, config)
    except Exception as exc:  # counted as a failure; the run goes on
        result.latency_ns.append(None)
        gate.fail(f"raised {type(exc).__name__}")
        return
    elapsed = time.perf_counter_ns() - start
    result.latency_ns.append(elapsed if gate.check(index, out) else None)
    result.tokens.append(len(out))
    result.steps.append(metrics.steps)
    result.probes.update(metrics.probes)


def ar_pass(world: World, workload: Workload, requests) -> tuple[Pass, list[list[int] | None]]:
    """Autoregressive baseline over every request; also returns the outputs."""
    result = Pass(latency_ns=[])
    return result, [ar_once(world, workload, r, result) for r in requests]


def spec_pass(world: World, workload: Workload, requests, gate: Gate, tracer=None) -> Pass:
    """Speculative decode over every request, each output through the gate."""
    result = Pass(latency_ns=[])
    for i, request in enumerate(requests):
        spec_once(world, workload, i, request, gate, result, tracer)
    return result


def per_prompt_median_ns(passes: list[Pass]) -> list[float]:
    """Median latency of each prompt over the passes where it succeeded."""
    out = []
    for samples in zip(*(p.latency_ns for p in passes)):
        ok = [t for t in samples if t is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


@dataclass
class Timed:
    """Per-prompt median latencies of the timed passes, the host speed
    scale, and the reference counts."""

    spec_ns: list[float]
    ar_ns: list[float]
    kernel_ns: list[int]
    tokens: int
    steps: int
    ar_tokens: int
    passes: int

    @property
    def slowdown(self) -> float:
        """How much slower than nominal the host ran; timings divide by it."""
        return statistics.median(self.kernel_ns) / KERNEL_NOMINAL_NS


def timed_passes(
    world, workload, requests, gate, seconds: float, reference: Pass, ar_ref: Pass
) -> Timed:
    """Timed passes until they add up to ``seconds``, and at least three.

    Each request runs speculative then autoregressive back to back, so both
    see the same machine state and the break-even cost, a difference of the
    two, does not amplify noise that is not common to them.
    """
    spec, ar, kernel = [], [], []
    stride = max(1, len(requests) // KERNEL_SAMPLES_PER_PASS)
    timed_ns = 0
    while len(spec) < MIN_TIMED_PASSES or timed_ns < seconds * 1e9:
        spec.append(Pass(latency_ns=[]))
        ar.append(Pass(latency_ns=[]))
        start = time.perf_counter_ns()
        for i, request in enumerate(requests):
            if i % stride == 0:
                kernel.append(kernel_ns())
            spec_once(world, workload, i, request, gate, spec[-1])
            ar_once(world, workload, request, ar[-1])
        timed_ns += time.perf_counter_ns() - start
    return Timed(
        spec_ns=per_prompt_median_ns(spec),
        ar_ns=per_prompt_median_ns(ar),
        kernel_ns=kernel,
        tokens=sum(reference.tokens),
        steps=sum(reference.steps),
        ar_tokens=sum(ar_ref.tokens),
        passes=len(spec),
    )


def end_to_end(timed: Timed) -> tuple[dict[str, tuple[float, str]], dict]:
    """The timed metrics, scaled to nominal host speed, as name -> (value,
    unit); the notes give each raw value and its base.

    ``breakeven_us`` is left out, with a note saying why, where it is not a
    positive cost: when no draft token was accepted (tau = 1) it is
    undefined, and when a speculative step costs less than tau AR tokens
    speculation wins at any model cost.
    """
    scale = timed.slowdown
    spec_s = sum(timed.spec_ns) / 1e9
    ar_s = sum(timed.ar_ns) / 1e9
    tau = timed.tokens / timed.steps
    o_spec = spec_s / timed.steps
    o_ar = ar_s / timed.ar_tokens
    p50_ms = statistics.median(timed.spec_ns) / 1e6
    q, tail_ns = tail_percentile(timed.spec_ns)
    raw = {
        "tok_s": (timed.tokens / spec_s, "tok/s", scale),
        "tok_s_ar": (timed.ar_tokens / ar_s, "tok/s", scale),
        "gen_ms_p50": (p50_ms, "ms", 1 / scale),
        "gen_ms_tail": (tail_ns / 1e6, "ms", 1 / scale),
    }
    breakeven_base = (
        f"tau {tau:.4f}, o_spec {o_spec * 1e6:.2f} us/step, o_ar {o_ar * 1e6:.2f} us/tok"
    )
    breakeven_us = (o_spec - tau * o_ar) / (tau - 1) * 1e6 if tau > 1 else math.nan
    if breakeven_us > 0:
        raw["breakeven_us"] = (breakeven_us, "us", 1 / scale)
    metrics = {name: (value * factor, unit) for name, (value, unit, factor) in raw.items()}
    metrics["calls_per_tok"] = (timed.steps / timed.tokens, "calls/tok")
    n = len(timed.spec_ns)
    notes = {name: f"raw {value:.6g}" for name, (value, _unit, _factor) in raw.items()}
    notes["tok_s"] += f"; {timed.tokens} tokens, median of {timed.passes} passes per prompt"
    notes["tok_s_ar"] += f"; {timed.ar_tokens} tokens, median of {timed.passes} passes per prompt"
    if "breakeven_us" in raw:
        notes["breakeven_us"] += f"; {breakeven_base}"
    else:
        reason = "undefined at tau = 1" if tau <= 1 else "speculation wins at any model cost"
        notes["breakeven_us"] = f"not available, {reason}: {breakeven_base}"
    notes["gen_ms_p50"] += f"; median of {n} per-prompt medians"
    notes["gen_ms_tail"] += f"; p{q} of {n} per-prompt medians"
    notes["calls_per_tok"] = f"{timed.steps} calls / {timed.tokens} tokens"
    notes["slowdown"] = (
        f"host ran {scale:.4f}x nominal: median of {len(timed.kernel_ns)} reference-kernel "
        f"timings against {KERNEL_NOMINAL_NS} ns"
    )
    return metrics, notes
