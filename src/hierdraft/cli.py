"""Command-line interface: build databases, decode, benchmark, analyze.

Typical flow:

    hd build-vocab --corpus text.txt --out vocab.txt
    hd fit-kgram --corpus text.txt --vocab vocab.txt --k 3 --out model.hdkg
    hd build-model-db --generations gen.txt --vocab vocab.txt --out dm.jsonl
    hd build-stats-db --corpus big.txt --vocab vocab.txt --out ds.hdsa
    hd run --prompt "..." --model model.hdkg --vocab vocab.txt \\
        --model-db dm.jsonl --stats-db ds.hdsa
    hd bench --prompts prompts.txt --configs bench.json --runs 5 --out report.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import analysis, bench
from .context_db import ContextDB
from .corpus import Vocab, build_vocab, detokenize, load_corpus, tokenize
from .drafting import DatabaseSet, HierarchyConfig
from .engine import DecodeConfig, decode, save_traces
from .kgram import fit_kgram, load_kgram, save_kgram
from .model_db import build_model_db, load_model_db, save_model_db
from .stats_db import build_stats_db, load_stats_db, save_stats_db


def _read_texts(paths: list[str]) -> list[str]:
    texts = []
    for path in paths:
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise SystemExit(f"error: cannot read {path}: {exc}")
    return texts


def _cmd_build_vocab(args: argparse.Namespace) -> int:
    vocab = build_vocab(_read_texts(args.corpus))
    vocab.save(args.out)
    print(f"wrote vocab with {vocab.size} ids ({vocab.size - 3} words) to {args.out}")
    return 0


def _cmd_fit_kgram(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab) if args.vocab else None
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
    if args.verify:
        load_stats_db(args.out, verify=True)
        print("verification passed")
    print(f"indexed {db.n_tokens} tokens; wrote {args.out}")
    return 0


def _load_databases(args: argparse.Namespace, hier: HierarchyConfig) -> DatabaseSet:
    enabled = hier.enabled
    model_db = stats_db = None
    if "m" in enabled:
        if not args.model_db:
            raise SystemExit("error: databases include 'm' but --model-db is missing")
        model_db = load_model_db(args.model_db)
    if "s" in enabled:
        if not args.stats_db:
            raise SystemExit("error: databases include 's' but --stats-db is missing")
        stats_db = load_stats_db(args.stats_db)
    context = (
        ContextDB(window=hier.draft_len, per_key=hier.set_size, capacity=hier.capacity)
        if "c" in enabled
        else None
    )
    return DatabaseSet(context=context, model=model_db, stats=stats_db)


def _load_model(args: argparse.Namespace, vocab: Vocab | None):
    if args.model:
        return load_kgram(args.model)
    if not args.fit_corpus:
        raise SystemExit("error: provide --model or --fit-corpus")
    corpus = load_corpus(args.fit_corpus, vocab=vocab, doc_per_line=True)
    return fit_kgram(corpus, args.k, args.alpha)


def _cmd_run(args: argparse.Namespace) -> int:
    vocab = Vocab.load(args.vocab)
    model = _load_model(args, vocab)
    if args.prompt is not None:
        prompt_text = args.prompt
    elif args.prompt_file is not None:
        prompt_text = Path(args.prompt_file).read_text(encoding="utf-8")
    else:
        raise SystemExit("error: provide --prompt or --prompt-file")
    prompt = tokenize(prompt_text, vocab)
    if not prompt:
        raise SystemExit("error: empty prompt")
    enabled = args.databases.replace(",", "")
    hier = HierarchyConfig(
        order=args.order,
        enabled=enabled,
        set_size=args.set_size,
        tail_len=args.tail_len,
        draft_len=args.draft_len,
    )
    config = DecodeConfig(
        max_tokens=args.max_tokens,
        temperature=args.temperature,
        seed=args.seed,
        hierarchy=hier,
        recycle=not args.no_recycle,
        trace=args.trace is not None,
        model_call_cost_s=args.model_cost_ms / 1e3,
    )
    dbs = _load_databases(args, hier)
    output, metrics, trace = decode(model, prompt, dbs, config)
    print(detokenize(output, vocab))
    print(json.dumps(asdict(metrics), indent=2, sort_keys=True), file=sys.stderr)
    if args.trace is not None and trace is not None:
        save_traces([trace], args.trace)
    return 0


def _load_bench_setup(config_path: str) -> dict:
    with open(config_path, encoding="utf-8") as fh:
        setup = json.load(fh)
    required = ("vocab", "model")
    for key in required:
        if key not in setup:
            raise SystemExit(f"error: bench config missing {key!r}")
    return setup


def _from_spec(cls, spec, what: str):
    """Build ``cls(**spec)``; a misspelt, missing or invalid key stops the command."""
    try:
        return cls(**spec)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: bad {what} in bench config: {exc}")


def _bench_resources(setup: dict):
    vocab = Vocab.load(setup["vocab"])
    model_spec = setup["model"]
    if "path" in model_spec:
        model = load_kgram(model_spec["path"])
    else:
        corpus = load_corpus(model_spec["fit_corpus"], vocab=vocab, doc_per_line=True)
        model = fit_kgram(corpus, model_spec.get("k", 3), model_spec.get("alpha", 0.01))
    model_db = load_model_db(setup["model_db"]) if setup.get("model_db") else None
    stats_db = load_stats_db(setup["stats_db"]) if setup.get("stats_db") else None
    fingerprints = {}
    for key in ("vocab", "model_db", "stats_db"):
        if setup.get(key):
            fingerprints[key] = bench.file_fingerprint(setup[key])
    spec = setup.get("hierarchy", {})
    if isinstance(spec, dict) and {"order", "enabled"} & spec.keys():
        raise SystemExit(
            "error: bad hierarchy in bench config: 'order' and 'enabled' are set "
            "by each method's 'order' and 'databases'"
        )
    hier = _from_spec(HierarchyConfig, spec, "hierarchy")
    return vocab, model, model_db, stats_db, fingerprints, hier


def _load_prompts(path: str, vocab: Vocab) -> list[list[int]]:
    prompts = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            prompts.append(tokenize(line, vocab))
    if not prompts:
        raise SystemExit(f"error: no prompts in {path}")
    return prompts


def _bench_common(args: argparse.Namespace) -> dict:
    setup = _load_bench_setup(args.configs)
    vocab, model, model_db, stats_db, fingerprints, hier = _bench_resources(setup)
    prompts = _load_prompts(args.prompts, vocab)
    return {
        "setup": setup,
        "model": model,
        "model_db": model_db,
        "stats_db": stats_db,
        "fingerprints": fingerprints,
        "hierarchy": hier,
        "prompts": prompts,
        "kwargs": dict(
            runs=args.runs,
            seed=setup.get("seed", 7),
            max_tokens=setup.get("max_tokens", 64),
            model_call_cost_s=setup.get("model_call_cost_ms", 0.0) / 1e3,
            trace_dir=args.trace_dir,
        ),
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    common = _bench_common(args)
    setup = common["setup"]
    methods = [
        _from_spec(bench.MethodSpec, row, "method") for row in setup.get("methods", [])
    ]
    report = bench.run_bench(
        common["model"],
        common["prompts"],
        methods,
        model_db=common["model_db"],
        stats_db=common["stats_db"],
        hierarchy=common["hierarchy"],
        fingerprints=common["fingerprints"],
        out=args.out,
        **common["kwargs"],
    )
    print(f"wrote report with {len(report['rows'])} rows to {args.out}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    common = _bench_common(args)
    if args.what == "order":
        report = bench.ablate_order(
            common["model"],
            common["prompts"],
            model_db=common["model_db"],
            stats_db=common["stats_db"],
            hierarchy=common["hierarchy"],
            fingerprints=common["fingerprints"],
            out=args.out,
            **common["kwargs"],
        )
    else:
        report = bench.ablate_dbs(
            common["model"],
            common["prompts"],
            model_db=common["model_db"],
            stats_db=common["stats_db"],
            hierarchy=common["hierarchy"],
            fingerprints=common["fingerprints"],
            out=args.out,
            **common["kwargs"],
        )
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
    from .engine import load_traces

    trace_dir = Path(args.traces)
    traces_by_db = {}
    for path in sorted(trace_dir.glob("*.traces.jsonl")):
        label = path.name.split(".")[0].rsplit("-", 1)[-1]
        if len(label) == 1 and label in "cms":
            traces_by_db[label] = load_traces(path)
    if not traces_by_db:
        raise SystemExit(f"error: no single-database trace files under {trace_dir}")
    report = analysis.coverage_report(traces_by_db)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    p.add_argument("--vocab")
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
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_stats_db)

    p = sub.add_parser("run", help="decode one prompt")
    p.add_argument("--prompt")
    p.add_argument("--prompt-file")
    p.add_argument("--vocab", required=True)
    p.add_argument("--model", help="fitted model file; alternative to --fit-corpus")
    p.add_argument("--fit-corpus", nargs="+")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--model-db")
    p.add_argument("--stats-db")
    p.add_argument("--databases", default="c,m,s", help="enabled databases, e.g. c,m,s")
    p.add_argument("--order", default="cms")
    p.add_argument("--set-size", type=int, default=7)
    p.add_argument("--tail-len", type=int, default=2)
    p.add_argument("--draft-len", type=int, default=4)
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", type=int, default=1024)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-recycle", action="store_true")
    p.add_argument("--model-cost-ms", type=float, default=0.0)
    p.add_argument("--trace", help="write the decode trace to this JSONL file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("bench", help="compare methods over a prompt file")
    p.add_argument("--prompts", required=True)
    p.add_argument("--configs", required=True, help="JSON file with resources and method rows")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--trace-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ablate", help="access-order or database-subset ablation")
    p.add_argument("what", choices=("order", "dbs"))
    p.add_argument("--prompts", required=True)
    p.add_argument("--configs", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--trace-dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

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
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
