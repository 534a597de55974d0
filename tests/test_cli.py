import json
import random
import re
import shlex
from pathlib import Path

import pytest

from hierdraft import HierarchyConfig, MethodSpec, ModelDB, Vocab, cli, load_traces, save_model_db
from hierdraft.bench import file_fingerprint
from hierdraft.cli import _BENCH_KEYS, _from_spec, _load_bench_setup, build_parser, main

from conftest import make_text


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus files + every artifact the CLI can build from them."""
    root = tmp_path_factory.mktemp("cli")
    rng = random.Random(71)
    corpus_path = root / "corpus.txt"
    corpus_path.write_text(
        "\n".join(make_text(rng, 300, vocab_words=50) for _ in range(20)) + "\n",
        encoding="utf-8",
    )
    vocab = root / "vocab.txt"
    model = root / "model.hdkg"
    model_db = root / "dm.hdmd"
    stats_db = root / "ds.hdsa"
    assert main(["build-vocab", "--corpus", str(corpus_path), "--out", str(vocab)]) == 0
    assert main(
        ["fit-kgram", "--corpus", str(corpus_path), "--vocab", str(vocab),
         "--k", "3", "--out", str(model)]
    ) == 0
    assert main(
        ["build-model-db", "--generations", str(corpus_path), "--vocab", str(vocab),
         "--top-k", "5000", "--m", "4", "--out", str(model_db)]
    ) == 0
    assert main(
        ["build-stats-db", "--corpus", str(corpus_path), "--vocab", str(vocab),
         "--out", str(stats_db)]
    ) == 0
    # Files that disagree with the vocab above: a model and a stats DB over a
    # 7-id vocab, and model DBs holding the first id past the vocab.
    narrow_corpus = root / "narrow.txt"
    narrow_corpus.write_text("a b c d a b\nd c b a\n", encoding="utf-8")
    narrow_vocab = root / "narrow-vocab.txt"
    narrow_model = root / "narrow.hdkg"
    narrow_stats_db = root / "narrow.hdsa"
    assert main(["build-vocab", "--corpus", str(narrow_corpus), "--out", str(narrow_vocab)]) == 0
    assert main(
        ["fit-kgram", "--corpus", str(narrow_corpus), "--vocab", str(narrow_vocab),
         "--k", "2", "--out", str(narrow_model)]
    ) == 0
    assert main(
        ["build-stats-db", "--corpus", str(narrow_corpus), "--vocab", str(narrow_vocab),
         "--out", str(narrow_stats_db)]
    ) == 0
    size = Vocab.load(vocab).size
    wide = {}
    for name, key, value in (("key", size, (3, 4, 5, 6)), ("value", 3, (4, 5, 6, size))):
        wide[name] = root / f"dm-wide-{name}.hdmd"
        save_model_db(ModelDB(4, [key], [1], value, [1]), wide[name])
    prompts = root / "prompts.txt"
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    prompts.write_text(
        "\n".join(" ".join(line.split()[:6]) for line in lines[:3]) + "\n",
        encoding="utf-8",
    )
    configs = root / "bench.json"
    configs.write_text(
        json.dumps(
            {
                "vocab": str(vocab),
                "model": str(model),
                "model_db": str(model_db),
                "stats_db": str(stats_db),
                "max_tokens": 24,
                "seed": 7,
                "methods": [{"name": "hd", "databases": "cms"}],
            }
        ),
        encoding="utf-8",
    )
    return {
        "root": root,
        "corpus": corpus_path,
        "vocab": vocab,
        "model": model,
        "model_db": model_db,
        "stats_db": stats_db,
        "prompts": prompts,
        "configs": configs,
        "narrow_model": narrow_model,
        "narrow_stats_db": narrow_stats_db,
        "wide_key_model_db": wide["key"],
        "wide_value_model_db": wide["value"],
    }


# A file swapped into the workspace's setup that disagrees with its vocab:
# each stops hd run, hd bench and hd ablate before any decoding.
_VOCAB_MISMATCHES = [
    (lambda ws: {"model": str(ws["narrow_model"])},
     r"error: the model has vocab_size 7, but the vocab has \d+ ids"),
    (lambda ws: {"stats_db": str(ws["narrow_stats_db"])},
     r"error: the stats DB has vocab_size 7, but the vocab has \d+ ids"),
    (lambda ws: {"model_db": str(ws["wide_key_model_db"])},
     r"error: the model DB holds token id (\d+), but the vocab has \1 ids"),
    (lambda ws: {"model_db": str(ws["wide_value_model_db"])},
     r"error: the model DB holds token id (\d+), but the vocab has \1 ids"),
]
_VOCAB_MISMATCH_IDS = [
    "narrow-model", "narrow-stats-db", "model-db-key-past-vocab", "model-db-value-past-vocab",
]


def test_artifacts_exist(workspace):
    for key in ("vocab", "model", "model_db", "stats_db"):
        assert workspace[key].stat().st_size > 0


def test_run_decodes_and_traces(workspace, capsys):
    trace = workspace["root"] / "run.trace.jsonl"
    first_prompt = workspace["prompts"].read_text(encoding="utf-8").splitlines()[0]
    code = main(
        ["run", "--prompt", first_prompt, "--vocab", str(workspace["vocab"]),
         "--model", str(workspace["model"]), "--model-db", str(workspace["model_db"]),
         "--stats-db", str(workspace["stats_db"]), "--max-tokens", "16",
         "--seed", "7", "--trace", str(trace)]
    )
    assert code == 0
    out = capsys.readouterr()
    assert out.out.strip()
    metrics = json.loads(out.err)
    assert metrics["tau"] >= 1.0
    assert trace.exists()


def test_run_requires_a_model_file(workspace, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--prompt", "w0 w1", "--vocab", str(workspace["vocab"]),
              "--databases", "c", "--max-tokens", "4"])
    assert "the following arguments are required: --model" in capsys.readouterr().err


def test_fit_kgram_rejects_nan_alpha(workspace, tmp_path):
    out = tmp_path / "model.hdkg"
    with pytest.raises(SystemExit, match="error: alpha must be a finite number > 0, not nan"):
        main(["fit-kgram", "--corpus", str(workspace["corpus"]), "--vocab",
              str(workspace["vocab"]), "--alpha", "nan", "--out", str(out)])
    assert not out.exists()


def test_fit_kgram_requires_a_vocab(workspace, tmp_path, capsys):
    # A model fitted on its own vocabulary would use other ids than the
    # databases and prompts built with the vocab file.
    out = tmp_path / "model.hdkg"
    with pytest.raises(SystemExit):
        main(["fit-kgram", "--corpus", str(workspace["corpus"]), "--out", str(out)])
    assert "the following arguments are required: --vocab" in capsys.readouterr().err
    assert not out.exists()


def test_run_missing_db_flag_fails(workspace):
    with pytest.raises(SystemExit, match="^error: the stats DB is ordered but not provided$"):
        main(
            ["run", "--prompt", "w0 w1", "--vocab", str(workspace["vocab"]),
             "--model", str(workspace["model"]), "--databases", "c,s",
             "--max-tokens", "4"]
        )


def test_run_databases_set_the_probe_order(workspace, tmp_path, capsys):
    trace = tmp_path / "run.trace.jsonl"
    common = ["run", "--prompt", "w0 w1", "--vocab", str(workspace["vocab"]),
              "--model", str(workspace["model"]), "--stats-db", str(workspace["stats_db"]),
              "--max-tokens", "4"]
    assert main([*common, "--databases", "s,c", "--trace", str(trace)]) == 0
    hier = load_traces(trace)[0].config.hierarchy
    assert hier.order == "sc"
    with pytest.raises(SystemExit):  # --databases sets the order
        main([*common, "--databases", "c,s", "--order", "sc"])
    assert "unrecognized arguments: --order" in capsys.readouterr().err


def test_run_rejects_oov_prompt_words(workspace, tmp_path):
    common = ["--vocab", str(workspace["vocab"]), "--model", str(workspace["model"]),
              "--databases", "c", "--max-tokens", "4"]
    with pytest.raises(SystemExit, match="error: out-of-vocabulary word 'zzz' at --prompt:1$"):
        main(["run", "--prompt", "w0 zzz w1", *common])
    prompt_file = tmp_path / "prompt.txt"
    prompt_file.write_text("w0 w1\nw2 qqq\n", encoding="utf-8")
    where = re.escape(str(prompt_file))
    with pytest.raises(SystemExit, match=f"error: out-of-vocabulary word 'qqq' at {where}:2$"):
        main(["run", "--prompt-file", str(prompt_file), *common])
    with pytest.raises(SystemExit, match="error: cannot read .*missing.txt"):
        main(["run", "--prompt-file", str(tmp_path / "missing.txt"), *common])


def test_bench_rejects_oov_prompt_words(workspace, tmp_path):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("w0 w1\n\nw2 w3 nope\n", encoding="utf-8")
    where = re.escape(str(prompts))
    with pytest.raises(SystemExit, match=f"error: out-of-vocabulary word 'nope' at {where}:3$"):
        main(["bench", "--prompts", str(prompts), "--configs", str(workspace["configs"]),
              "--runs", "1", "--out", str(tmp_path / "report.json")])
    with pytest.raises(SystemExit, match="error: cannot read .*missing.txt"):
        main(["bench", "--prompts", str(tmp_path / "missing.txt"), "--configs",
              str(workspace["configs"]), "--runs", "1", "--out", str(tmp_path / "report.json")])


def test_bench_cli(workspace, capsys):
    out = workspace["root"] / "report.json"
    code = main(
        ["bench", "--prompts", str(workspace["prompts"]), "--configs",
         str(workspace["configs"]), "--runs", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    names = [row["name"] for row in report["rows"]]
    assert names[0] == "autoregressive"
    assert "hd" in names
    ar = report["rows"][0]
    assert ar["speedup"] == 1.0


def test_bench_fingerprints_every_file(workspace, tmp_path):
    out = tmp_path / "report.json"
    assert main(["bench", "--prompts", str(workspace["prompts"]), "--configs",
                 str(workspace["configs"]), "--runs", "1", "--out", str(out)]) == 0
    fingerprints = json.loads(out.read_text(encoding="utf-8"))["env"]["fingerprints"]
    files = ("vocab", "model", "model_db", "stats_db")
    assert fingerprints == {key: file_fingerprint(workspace[key]) for key in files}


def test_readme_bench_config_matches_the_loader(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`bench.json` names .*?```json\n(.*?)```", readme, re.DOTALL)
    example = json.loads(block.group(1))
    assert example.keys() <= _BENCH_KEYS
    configs = tmp_path / "bench.json"
    configs.write_text(block.group(1), encoding="utf-8")
    assert _load_bench_setup(str(configs)) == example
    assert isinstance(example["model"], str)
    _from_spec(HierarchyConfig, example["hierarchy"], "hierarchy")
    for row in example["methods"]:
        _from_spec(MethodSpec, row, "method")


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    rng = random.Random(5)
    (tmp_path / "corpus.txt").write_text(
        "\n".join(make_text(rng, 200, vocab_words=40) for _ in range(10)) + "\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    exec(snippet, {})


def _documented_commands(text: str) -> list[list[str]]:
    """Every ``hd ...`` command in ``text``, continuation lines joined."""
    joined = re.sub(r"\\\n\s*", " ", text)
    return [
        shlex.split(line.strip())[1:]
        for line in joined.splitlines()
        if line.strip().startswith("hd ")
    ]


def test_documented_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.DOTALL)
    readme_commands = [c for block in blocks for c in _documented_commands(block)]
    docstring_commands = _documented_commands(cli.__doc__)
    assert readme_commands and docstring_commands
    parser = build_parser()
    for argv in readme_commands + docstring_commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse: hd {shlex.join(argv)}")


def test_ablate_and_coverage_cli(workspace, capsys):
    traces = workspace["root"] / "traces"
    out = workspace["root"] / "ablate-dbs.json"
    code = main(
        ["ablate", "dbs", "--prompts", str(workspace["prompts"]), "--configs",
         str(workspace["configs"]), "--runs", "1", "--trace-dir", str(traces),
         "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert len(report["rows"]) == 8  # AR + 7 subsets
    venn = workspace["root"] / "venn.json"
    code = main(["analyze", "coverage", "--traces", str(traces), "--out", str(venn)])
    assert code == 0
    coverage = json.loads(venn.read_text(encoding="utf-8"))
    assert coverage["labels"] == ["c", "m", "s"]
    assert sum(coverage["regions"].values()) == coverage["events_union"]


def test_coverage_picks_runs_by_their_recorded_order(workspace, tmp_path):
    """A trace file is one database's run by the order its traces record,
    whatever the row's name."""
    setup = json.loads(workspace["configs"].read_text(encoding="utf-8"))
    methods = [{"name": "db-c", "databases": "c"}, {"name": "db-m", "databases": "m"},
               {"name": "hd-s", "databases": "cms"}]
    configs = tmp_path / "bench.json"
    configs.write_text(json.dumps({**setup, "methods": methods}), encoding="utf-8")
    traces = tmp_path / "traces"
    assert main(["bench", "--prompts", str(workspace["prompts"]), "--configs", str(configs),
                 "--runs", "1", "--trace-dir", str(traces),
                 "--out", str(tmp_path / "report.json")]) == 0
    coverage = ["analyze", "coverage", "--traces", str(traces), "--out", str(tmp_path / "v.json")]
    assert main(coverage) == 0
    report = json.loads((tmp_path / "v.json").read_text(encoding="utf-8"))
    assert report["labels"] == ["c", "m"]
    # A second run of c alone stops the command, under any file name.
    (traces / "again.traces.jsonl").write_bytes((traces / "db-c.traces.jsonl").read_bytes())
    both = "^error: again.traces.jsonl and db-c.traces.jsonl both hold a run of database 'c'$"
    with pytest.raises(SystemExit, match=both):
        main(coverage)


def test_ablate_order_cli(workspace):
    out = workspace["root"] / "ablate-order.json"
    code = main(
        ["ablate", "order", "--prompts", str(workspace["prompts"]), "--configs",
         str(workspace["configs"]), "--runs", "1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert len(report["rows"]) == 7  # AR + 6 permutations


def test_analyze_locality_cli(workspace, tmp_path):
    out = tmp_path / "locality.csv"
    code = main(
        ["analyze", "locality", "--generations", str(workspace["corpus"]),
         "--n", "4", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "ngram_id,doc_index,position,class"
    assert len(lines) > 10
    assert out.with_suffix(".csv.summary.csv").exists()


@pytest.mark.parametrize(
    "change, match",
    [
        ({"hierarchy": {"set_sise": 3}}, "bad hierarchy"),
        ({"hierarchy": {"set_size": 0}}, "bad hierarchy"),
        ({"methods": [{"name": "hd", "databse": "cm"}]}, "bad method"),
        ({"methods": [{"databases": "cm"}]}, "bad method"),
        ({"hierarchy": {"order": "smc"}}, "bad hierarchy.*'order'"),
        ({"hierarchy": {"enabled": "c"}}, "bad hierarchy.*'enabled'"),
        ({"methods": [{"name": "hd", "recycle": False}]}, "error: bad method in bench config"),
        ({"methods": [{"name": "hd", "order": "smc"}]}, "error: bad method in bench config"),
        ({"methods": [{"name": "hd", "databases": "cmc"}]}, "bad method in bench config.*'cmc'"),
        ({"hierarchy": {"set_size": 2.5}}, "error: bad hierarchy"),
        ({"hierarchy": {"draft_len": True}}, "error: bad hierarchy"),
        ({"hierarchy": {"capacity": 4096}}, "error: bad hierarchy"),
        ({"methods": [{"name": "hd", "temperature": "hot"}]}, "error: bad method.*'hot'"),
        ({"methods": [{"name": "hd", "temperature": -1}]}, "error: bad method.*temperature"),
        ({"methods": [{"name": "hd", "temperature": True}]}, "error: bad method.*temperature"),
        ({"methods": [{"name": "../escaped", "databases": "c"}]},
         "error: bad method in bench config: a method name must name one file"),
        ({"model": {"pth": "model.hdkg"}}, "error: bad model in bench config"),
        (lambda ws: {"model": {"path": str(ws["model"])}}, "error: bad model in bench config"),
        ({"model_call_cost_ms": "x"}, "error: bad model_call_cost_ms in bench config"),
        ({"model_call_cost_ms": True}, "error: bad model_call_cost_ms in bench config"),
        ({"model_call_cost_ms": -1}, "error: bad model_call_cost_ms in bench config"),
        (lambda ws: {"vocab": str(ws["root"] / "nope.json")}, "error: .*nope.json"),
        (lambda ws: {"model": str(ws["root"] / "missing.hdkg")}, "error: .*missing.hdkg"),
        ({"seed": "7"}, "error: .*seed"),
        ({"seed": True}, "error: .*seed"),
        ({"seed": -1}, "error: .*seed"),
        ({"max_token": 3}, "error: unknown key 'max_token' in bench config"),
        ({"methods": [{"name": "hd", "databases": "c"}, {"name": "hd", "databases": "m"}]},
         "error: two method rows are named 'hd'"),
        *_VOCAB_MISMATCHES,
    ],
    ids=["misspelt-hierarchy-key", "invalid-hierarchy-value", "misspelt-method-key",
         "method-without-name", "hierarchy-order-set-per-method",
         "hierarchy-enabled-set-per-method", "removed-recycle-method-key",
         "removed-order-method-key", "repeated-database", "float-set-size",
         "bool-draft-len", "removed-capacity-hierarchy-key", "string-temperature",
         "negative-temperature", "bool-temperature", "method-name-outside-trace-dir",
         "misspelt-model-path-key",
         "model-object-rejected", "string-model-call-cost", "bool-model-call-cost",
         "negative-model-call-cost", "missing-vocab", "missing-model", "string-seed",
         "bool-seed", "negative-seed", "misspelt-max-tokens-key", "repeated-method-name",
         *_VOCAB_MISMATCH_IDS],
)
def test_bench_config_key_errors_exit(workspace, tmp_path, change, match):
    if callable(change):
        change = change(workspace)
    setup = json.loads(workspace["configs"].read_text(encoding="utf-8"))
    configs = tmp_path / "bench.json"
    configs.write_text(json.dumps({**setup, **change}), encoding="utf-8")
    with pytest.raises(SystemExit, match=match):
        main(
            ["bench", "--prompts", str(workspace["prompts"]), "--configs", str(configs),
             "--runs", "1", "--out", str(tmp_path / "report.json")]
        )


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("change, match", _VOCAB_MISMATCHES, ids=_VOCAB_MISMATCH_IDS)
def test_run_and_ablate_stop_on_vocabulary_mismatch(workspace, tmp_path, command, change, match):
    files = {key: str(workspace[key]) for key in ("vocab", "model", "model_db", "stats_db")}
    files.update(change(workspace))
    out = tmp_path / "report.json"
    if command == "run":
        argv = ["run", "--prompt", "w0 w1", "--vocab", files["vocab"], "--model", files["model"],
                "--model-db", files["model_db"], "--stats-db", files["stats_db"],
                "--max-tokens", "4"]
    else:
        setup = json.loads(workspace["configs"].read_text(encoding="utf-8"))
        configs = tmp_path / "bench.json"
        configs.write_text(json.dumps({**setup, **files}), encoding="utf-8")
        argv = ["ablate", "order", "--prompts", str(workspace["prompts"]), "--configs",
                str(configs), "--runs", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match=match):
        main(argv)
    assert not out.exists()
