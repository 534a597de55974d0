"""Command-line interface: build databases, decode, benchmark, analyze.

Typical flow:

    hd build-vocab --corpus text.txt --out vocab.txt
    hd fit-kgram --corpus text.txt --vocab vocab.txt --k 3 --out model.hdkg
    hd build-model-db --generations gen.txt --vocab vocab.txt --out dm.hdmd
    hd build-stats-db --corpus big.txt --vocab vocab.txt --out ds.hdsa
    hd run --prompt "..." --model model.hdkg --vocab vocab.txt \\
        --model-db dm.hdmd --stats-db ds.hdsa
    hd bench --prompts prompts.txt --configs bench.json --runs 5 --out report.json

The target model is always the file ``fit-kgram`` writes: ``hd run --model``,
and a bench config's ``"model"``, a path like its other three files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, bench
from ._checks import check_number
from .context_db import ContextDB
from .corpus import Vocab, _read_text, build_vocab, detokenize, load_corpus, tokenize_strict
from .drafting import DatabaseSet, HierarchyConfig
from .engine import DecodeConfig, decode, load_traces, save_traces
from .kgram import fit_kgram, load_kgram, save_kgram
from .model_db import build_model_db, load_model_db, save_model_db
from .stats_db import build_stats_db, load_stats_db, save_stats_db


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    vocab = build_vocab(map(_read_text, args.corpus))
    vocab.save(args.out)
    print(f"wrote vocab with {vocab.size} ids ({vocab.size - 3} words) to {args.out}")
    return 0


def _cmd_fit_kgram(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab)
    corpus = load_corpus(args.corpus, vocab=vocab, doc_per_line=args.doc_per_line)
    model = fit_kgram(corpus, args.k, args.alpha)
    save_kgram(model, args.out)
    print(f"fit k={args.k} model over {corpus.n_tokens} tokens; wrote {args.out}")
    return 0


def _cmd_build_model_db(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab)
    corpus = load_corpus(args.generations, vocab=vocab, doc_per_line=args.doc_per_line)
    db = build_model_db(corpus, top_k=args.top_k, window=args.m, per_key=args.per_key)
    save_model_db(db, args.out)
    print(f"kept {db.n_sequences} sequences under {len(db.keys())} keys; wrote {args.out}")
    return 0


def _cmd_build_stats_db(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab)
    corpus = load_corpus(args.corpus, vocab=vocab, doc_per_line=args.doc_per_line)
    db = build_stats_db(corpus)
    save_stats_db(db, args.out)
    print(f"indexed {db.n_tokens} tokens; wrote {args.out}")
    return 0


# The input files of hd run, hd bench and hd ablate, each keyed by its bench
# config key, which is also its hd run flag's dest.
_FILES = {
    "vocab": Vocab.load,
    "model": load_kgram,
    "model_db": load_model_db,
    "stats_db": load_stats_db,
}


def _load_files(paths: dict) -> dict:
    """Load each file ``paths`` names by path string, ``None`` where it names
    none, and stop unless the model and both DBs use the vocab's ids."""
    files = {}
    for key, load in _FILES.items():
        path = paths.get(key)
        if path is not None and not isinstance(path, str):
            raise SystemExit(f"error: bad {key} in bench config: {path!r}")
        files[key] = None if path is None else load(path)
    size = files["vocab"].size
    for what, item in (("model", files["model"]), ("stats DB", files["stats_db"])):
        if item is not None and item.vocab_size != size:
            raise SystemExit(
                f"error: the {what} has vocab_size {item.vocab_size}, but the vocab has {size} ids"
            )
    model_db = files["model_db"]
    if model_db is not None and model_db.max_id() >= size:
        raise SystemExit(
            f"error: the model DB holds token id {model_db.max_id()}, but the vocab has {size} ids"
        )
    return files


def _cmd_run(args: argparse.Namespace) -> int:
    files = _load_files(vars(args))
    vocab = files["vocab"]
    if args.prompt is not None:
        prompt = tokenize_strict(args.prompt, vocab, "--prompt")
    elif args.prompt_file is not None:
        prompt = tokenize_strict(_read_text(args.prompt_file), vocab, args.prompt_file)
    else:
        raise SystemExit("error: provide --prompt or --prompt-file")
    if not prompt:
        raise SystemExit("error: empty prompt")
    hier = HierarchyConfig(
        order=args.databases.replace(",", ""),
        set_size=args.set_size,
        tail_len=args.tail_len,
        draft_len=args.draft_len,
    )
    config = DecodeConfig(
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        seed=args.seed,
        hierarchy=hier,
        trace=True,  # latencies are measured only on a traced decode
        model_call_cost_s=args.model_cost_ms / 1e3,
    )
    dbs = DatabaseSet(ContextDB.for_hierarchy(hier), files["model_db"], files["stats_db"])
    output, metrics, trace = decode(files["model"], prompt, dbs, config)
    print(detokenize(output, vocab))
    print(json.dumps(asdict(metrics), indent=2, sort_keys=True), file=sys.stderr)
    if args.trace is not None:
        save_traces([trace], args.trace)
    return 0


_BENCH_KEYS = {*_FILES, "max_tokens", "seed", "model_call_cost_ms", "hierarchy", "methods"}


def _load_bench_setup(config_path: str) -> dict:
    """Read a bench config; an unknown key, a missing vocab or model, or a
    bad ``model_call_cost_ms`` stops the command. ``run_bench`` checks the
    decode settings."""
    with open(config_path, encoding="utf-8") as fh:
        setup = json.load(fh)
    if not isinstance(setup, dict):
        raise SystemExit("error: bench config is not a JSON object")
    unknown = sorted(setup.keys() - _BENCH_KEYS)
    if unknown:
        raise SystemExit(f"error: unknown key {unknown[0]!r} in bench config")
    for key in ("vocab", "model"):
        if setup.get(key) is None:
            raise SystemExit(f"error: bench config missing {key!r}")
    try:
        check_number("model_call_cost_ms", setup.get("model_call_cost_ms", 0.0), positive=False)
    except ValueError as exc:
        raise SystemExit(f"error: bad model_call_cost_ms in bench config: {exc}")
    return setup


def _from_spec(cls, spec, what: str):
    """Build ``cls(**spec)``; a misspelt, missing or invalid key stops the command."""
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: bad {what} in bench config: {exc}")


def _load_prompts(path: str, vocab: Vocab) -> list[list[int]]:
    prompts = []
    for number, line in enumerate(_read_text(path).splitlines(), 1):
        if line.strip():
            prompts.append(tokenize_strict(line, vocab, path, number))
    if not prompts:
        raise SystemExit(f"error: no prompts in {path}")
    return prompts


def _cmd_bench(args: argparse.Namespace) -> int:
    """``hd bench`` runs the config's method rows; ``hd ablate`` its ablation."""
    setup = _load_bench_setup(args.configs)
    spec = setup.get("hierarchy", {})
    if isinstance(spec, dict) and "order" in spec:
        raise SystemExit(
            "error: bad hierarchy in bench config: 'order' is set by each method's 'databases'"
        )
    hier = _from_spec(HierarchyConfig, spec, "hierarchy")
    if args.command == "ablate":
        methods = bench.ABLATIONS[args.what]
    else:
        methods = [
            _from_spec(bench.MethodSpec, row, "method") for row in setup.get("methods", [])
        ]
    files = _load_files(setup)
    prompts = _load_prompts(args.prompts, files["vocab"])
    report = bench.run_bench(
        files["model"],
        prompts,
        methods,
        model_db=files["model_db"],
        stats_db=files["stats_db"],
        hierarchy=hier,
        runs=args.runs,
        seed=setup.get("seed", 7),
        max_tokens=setup.get("max_tokens", 64),
        model_call_cost_s=setup.get("model_call_cost_ms", 0.0) / 1e3,
        trace_dir=args.trace_dir,
    )
    report["env"]["fingerprints"] = {
        key: bench.file_fingerprint(setup[key]) for key, item in files.items() if item is not None
    }
    bench.write_report(report, args.out)
    print(f"wrote report with {len(report['rows'])} rows to {args.out}")
    return 0


def _cmd_analyze_locality(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab) if args.vocab else None
    corpus = load_corpus(args.generations, vocab=vocab, doc_per_line=True)
    rows, summary = analysis.locality_stats(corpus, args.n)
    summary_path = analysis.write_locality_csv(rows, summary, args.out)
    print(f"wrote {len(rows)} occurrences to {args.out}; summary in {summary_path}")
    return 0


def _cmd_analyze_coverage(args: argparse.Namespace) -> int:
    trace_dir = Path(args.traces)
    traces_by_db, paths = {}, {}
    for path in sorted(trace_dir.glob("*.traces.jsonl")):
        traces = load_traces(path)
        orders = {trace.config.hierarchy.order for trace in traces}
        if len(orders) != 1 or len(label := orders.pop()) != 1:
            continue  # not one single-database run
        if label in paths:
            raise SystemExit(
                f"error: {paths[label].name} and {path.name} both hold a run of database {label!r}"
            )
        traces_by_db[label], paths[label] = traces, path
    if not traces_by_db:
        raise SystemExit(f"error: no single-database trace files under {trace_dir}")
    report = analysis.coverage_report(traces_by_db)
    bench.write_report(report, args.out)
    print(f"wrote coverage over {report['events_union']} events to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hd", description="hierarchical database drafting engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build a word vocabulary from text files")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_vocab)

    p = sub.add_parser("fit-kgram", help="fit and save the k-gram target model")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--doc-per-line", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_kgram)

    p = sub.add_parser("build-model-db", help="build the frequent-sequences database")
    p.add_argument("--generations", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--top-k", type=int, default=100_000)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--per-key", type=int, default=7)
    p.add_argument("--doc-per-line", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_model_db)

    p = sub.add_parser("build-stats-db", help="build the suffix-array database")
    p.add_argument("--corpus", nargs="+", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--doc-per-line", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_stats_db)

    p = sub.add_parser("run", help="decode one prompt")
    p.add_argument("--prompt")
    p.add_argument("--prompt-file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", required=True, help="model file written by fit-kgram")
    p.add_argument("--model-db")
    p.add_argument("--stats-db")
    p.add_argument("--databases", default="c,m,s", help="databases to draft from, in probe order")
    p.add_argument("--set-size", type=int, default=7)
    p.add_argument("--tail-len", type=int, default=2)
    p.add_argument("--draft-len", type=int, default=4)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=1024)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--model-cost-ms", type=float, default=0.0)
    p.add_argument("--trace", help="write the decode trace to this JSONL file")
    p.set_defaults(func=_cmd_run)

    bench_parser = sub.add_parser("bench", help="compare methods over a prompt file")
    ablate_parser = sub.add_parser("ablate", help="access-order or database-subset ablation")
    ablate_parser.add_argument("what", choices=bench.ABLATIONS)
    for p in (bench_parser, ablate_parser):
        p.add_argument("--prompts", required=True)
        p.add_argument("--configs", required=True, help="JSON file with resources and method rows")
        p.add_argument("--runs", type=int, default=5)
        p.add_argument("--trace-dir")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("analyze", help="locality and coverage analyses")
    analyze_sub = p.add_subparsers(dest="analysis", required=True)
    pl = analyze_sub.add_parser("locality", help="n-gram repetition classes over generations")
    pl.add_argument("--generations", nargs="+", required=True)
    pl.add_argument("--vocab")
    pl.add_argument("--n", type=int, default=4)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=_cmd_analyze_locality)
    pc = analyze_sub.add_parser("coverage", help="accepted-token Venn regions")
    pc.add_argument("--traces", required=True, help="directory of single-DB trace files")
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=_cmd_analyze_coverage)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
