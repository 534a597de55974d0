import json
import random

import pytest

from hierdraft.cli import main

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
    model_db = root / "dm.jsonl"
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
         "--verify", "--out", str(stats_db)]
    ) == 0
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
                "model": {"path": str(model)},
                "model_db": str(model_db),
                "stats_db": str(stats_db),
                "max_tokens": 24,
                "seed": 7,
                "methods": [{"name": "hd", "databases": "cms", "order": "cms"}],
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
    }


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


def test_run_with_fit_corpus(workspace, capsys):
    code = main(
        ["run", "--prompt", "w0 w1 w2", "--vocab", str(workspace["vocab"]),
         "--fit-corpus", str(workspace["corpus"]), "--databases", "c",
         "--order", "cms", "--max-tokens", "8"]
    )
    assert code == 0


def test_run_missing_db_flag_fails(workspace):
    with pytest.raises(SystemExit, match="stats-db"):
        main(
            ["run", "--prompt", "w0 w1", "--vocab", str(workspace["vocab"]),
             "--model", str(workspace["model"]), "--databases", "c,s",
             "--max-tokens", "4"]
        )


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
    ],
    ids=["misspelt-hierarchy-key", "invalid-hierarchy-value", "misspelt-method-key",
         "method-without-name", "hierarchy-order-set-per-method",
         "hierarchy-enabled-set-per-method"],
)
def test_bench_config_key_errors_exit(workspace, tmp_path, change, match):
    setup = json.loads(workspace["configs"].read_text(encoding="utf-8"))
    configs = tmp_path / "bench.json"
    configs.write_text(json.dumps({**setup, **change}), encoding="utf-8")
    with pytest.raises(SystemExit, match=match):
        main(
            ["bench", "--prompts", str(workspace["prompts"]), "--configs", str(configs),
             "--runs", "1", "--out", str(tmp_path / "report.json")]
        )
