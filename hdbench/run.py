"""hierdraft benchmark: one workload, one seed, one run.

    python3 hdbench/run.py --workload loop-greedy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. Human-readable report lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics from untraced passes, ``--trace 1`` the per-layer
metrics from a separate traced run. Spans of the traced run are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so no BLAS pool starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
# Printed in the report but not in the result's metrics, which must stay
# steady across seeds: the median generation latency of loop-greedy moves
# by 30% of itself between seeds (quartile distance over ten), because
# prompts split into ones that probe the stats DB on most steps and ones
# that never do, and the median falls between the two groups.
REPORT_ONLY = ("gen_ms_p50",)
WORKLOAD_NAMES = ("loop-greedy", "short-greedy", "sample-long")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke run for the benchmark's own tests")
    return p.parse_args(argv)


def import_package():
    """Import hierdraft from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "hierdraft" / "__init__.py").is_file():
        raise SystemExit(f"hdbench: no package at {src / 'hierdraft'}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import hierdraft

    if Path(hierdraft.__file__).resolve().parent != (src / "hierdraft").resolve():
        raise SystemExit(f"hdbench: imported hierdraft from {hierdraft.__file__}, not {src}")
    return hierdraft


def metadata(seed: int) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "hierdraft").rglob("*.py"))
    )
    return {
        "src_hierdraft_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def show(metrics: dict, notes: dict) -> None:
    for name, (value, unit, *base) in metrics.items():
        note = notes.get(name) or (base[0] if base else "")
        print(f"  {name:34s} {value:16.6f} {unit:10s} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from hdbench import measure, world as world_mod

    sizes = world_mod.TINY if args.size == "tiny" else world_mod.FULL
    workload = sizes.workloads[args.workload]
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)

    # Set-up runs several times and the last world is kept. Each earlier one
    # is released before the next is built, so peak RSS holds one world.
    setups = []
    for _ in range(SETUP_REPEATS):
        world = None
        world, scaled_s = measure.set_up(world_mod.WORLD_SEED, sizes, workdir)
        setups.append((scaled_s, world.setup_s))
    requests = world_mod.workload_requests(world, workload, args.seed)

    # Warm-up passes, discarded from timing; they give the references.
    ar_ref, ar_outputs = measure.ar_pass(world, workload, requests)
    gate = measure.Gate(workload, world.model.vocab_size, ar_outputs)
    reference = measure.spec_pass(world, workload, requests, gate)

    print(f"hdbench {json.dumps(metadata(args.seed))}")
    print(
        f"workload {workload.name}: {len(requests)} prompts, T={workload.temperature}, "
        f"max_tokens {workload.max_tokens}; {sum(reference.tokens)} tokens emitted, "
        f"{sum(reference.steps)} steps, probes {dict(sorted(reference.probes.items()))}"
    )
    if args.trace:
        metrics, notes = traced_run(world, workload, requests, gate, args.seconds, args.seed)
    else:
        timed = measure.timed_passes(world, workload, requests, gate, args.seconds, reference, ar_ref)
        metrics, notes = measure.end_to_end(timed)
        print(f"timings scaled to nominal host speed: {notes.pop('slowdown')}")
        metrics["setup_s"] = (statistics.median(scaled for scaled, _ in setups), "s")
        notes["setup_s"] = f"median of {len(setups)}, scaled (raw): " + ", ".join(
            f"{scaled:.3f} ({raw:.3f})" for scaled, raw in setups
        )
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    # fail_frac is 0 on a correct build, so it travels as failed/attempted.
    report = {name: metrics.pop(name) for name in REPORT_ONLY if name in metrics}
    report["fail_frac"] = (gate.failed / gate.attempted, "ratio")
    notes["fail_frac"] = f"{gate.failed}/{gate.attempted} generations {dict(gate.failures)}"
    show(metrics, notes)
    for name in sorted(set(notes) - set(metrics) - set(report)):
        print(f"  {name:34s} {notes[name]}")
    print("not gated:")
    show(report, notes)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0


def traced_run(world, workload, requests, gate, seconds: float, seed: int):
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones, and their wall against the untraced ones is the overhead."""
    from hierdraft import HierarchyConfig

    from hdbench import measure
    from hdbench.tracing import Tracer, layer_metrics

    tracer = Tracer(draft_len=HierarchyConfig().draft_len)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(measure.spec_pass(world, workload, requests, gate).wall_ns)
        with tracer.installed(world):
            result = measure.spec_pass(world, workload, requests, gate, tracer)
        traced.append((result.wall_ns, sum(result.tokens)))
    overhead = statistics.median(w for w, _ in traced) / statistics.median(plain) - 1
    tokens = sum(n for _, n in traced)
    metrics, self_by_layer, decode_ns = layer_metrics(tracer, world, tokens, overhead)
    out = ROOT / ".bench_out" / f"spans-{workload.name}-{seed}.npz"
    tracer.save(out)

    print(f"traced passes {len(traced)}, untraced {len(plain)}; spans -> {out.relative_to(ROOT)}")
    print("self time per layer (share of traced decode wall):")
    for layer, ns in sorted(self_by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {ns / 1e6:12.3f} ms {ns / decode_ns:8.2%}")
    print(
        f"  {'sum':14s} {sum(self_by_layer.values()) / 1e6:12.3f} ms; decode spans "
        f"{decode_ns / 1e6:.3f} ms; timed around the calls {sum(w for w, _ in traced) / 1e6:.3f} ms"
    )
    return metrics, {}


if __name__ == "__main__":
    sys.exit(main())
