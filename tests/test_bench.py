import json
import os
from fractions import Fraction

import pytest

from hierdraft import (
    HierarchyConfig,
    MethodSpec,
    build_model_db,
    build_stats_db,
    load_traces,
    run_bench,
    tokenize,
)
from hierdraft.bench import ABLATIONS, write_report


@pytest.fixture(scope="module")
def passage_setup(passage_corpus, passage_model):
    model_db = build_model_db(passage_corpus, window=4)
    stats_db = build_stats_db(passage_corpus)
    prompt = tokenize(
        " ".join([passage_corpus.vocab.word_of(t) for t in passage_corpus.docs[0][:-1]] * 2),
        passage_corpus.vocab,
    )
    return passage_model, model_db, stats_db, [prompt]


def test_ar_only_report_speedup_one(passage_setup):
    model, *_ , prompts = passage_setup
    report = run_bench(model, prompts, [], runs=2, max_tokens=20)
    assert len(report["rows"]) == 1
    row = report["rows"][0]
    assert row["name"] == "autoregressive"
    assert row["speedup"] == 1.0
    assert row["tau"] == 1.0
    assert report["env"]["runs"] == 2


def test_hd_row_metric_bounds(passage_setup):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model,
        prompts,
        [MethodSpec("hd", databases="cms")],
        model_db=model_db,
        stats_db=stats_db,
        runs=2,
        max_tokens=40,
    )
    hd = next(r for r in report["rows"] if r["name"] == "hd")
    assert hd["tau"] >= 1.0
    assert 0.0 <= hd["alpha"] <= 1.0
    assert hd["tokens"] <= 40
    ar = next(r for r in report["rows"] if r["name"] == "autoregressive")
    assert ar["speedup"] == 1.0


def test_env_hierarchy_leaves_out_per_method_keys(passage_setup):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model, prompts, [MethodSpec("hd", databases="cms")],
        model_db=model_db, stats_db=stats_db,
        hierarchy=HierarchyConfig(order="c", set_size=5),
        runs=1, max_tokens=20,
    )
    env = report["env"]["hierarchy"]
    assert "order" not in env
    assert env["set_size"] == 5
    hd = next(r for r in report["rows"] if r["name"] == "hd")
    assert hd["probes"]["m"] > 0  # the row's own databases, not hierarchy.order


def test_missing_db_fails_before_any_run(passage_setup):
    model, *_ , prompts = passage_setup
    with pytest.raises(ValueError, match="stats DB"):
        run_bench(model, prompts, [MethodSpec("hd", databases="cs")], runs=1)


@pytest.mark.parametrize(
    "methods, name",
    [
        ([MethodSpec("hd", databases="cms"), MethodSpec("hd", databases="m")], "hd"),
        ([MethodSpec("autoregressive", databases="c")], "autoregressive"),
    ],
    ids=["two-hd-rows", "clash-with-the-prepended-baseline"],
)
def test_repeated_method_name_fails_before_any_run(passage_setup, monkeypatch, methods, name):
    """Each row writes ``<name>.traces.jsonl``: a shared name would let a
    later row overwrite an earlier row's traces."""
    import hierdraft.bench as bench

    model, model_db, stats_db, prompts = passage_setup
    calls = []
    monkeypatch.setattr(bench, "decode", lambda *args: calls.append("decode"))
    monkeypatch.setattr(bench, "autoregressive_decode", lambda *args: calls.append("ar"))
    with pytest.raises(ValueError, match=f"two method rows are named '{name}'"):
        run_bench(model, prompts, methods, model_db=model_db, stats_db=stats_db, runs=1)
    assert calls == []


@pytest.mark.parametrize(
    "name", ["", ".", "..", "../escaped", "a/b", f"a{os.sep}b", 3],
    ids=["empty", "dot", "dot-dot", "parent-path", "slash", "os-sep", "not-a-string"],
)
def test_a_method_name_must_name_one_file(name):
    """A row writes ``<name>.traces.jsonl``: a name that is no file name,
    or one that reaches out of the trace directory, fails before any row runs."""
    with pytest.raises(ValueError, match="a method name must name one file"):
        MethodSpec(name, databases="c")


def test_timed_passes_interleave(passage_setup, monkeypatch):
    """Every row's traced warm-up runs first; then pass i of every row runs
    before pass i + 1, with tracing off."""
    import hierdraft.bench as bench

    model, model_db, stats_db, prompts = passage_setup
    prompts = prompts * 2
    calls = []
    real_decode, real_ar = bench.decode, bench.autoregressive_decode

    def spy_decode(model, prompt, dbs, config):
        calls.append(("hd", config.trace))
        return real_decode(model, prompt, dbs, config)

    def spy_ar(model, prompt, config):
        calls.append(("ar", config.trace))
        return real_ar(model, prompt, config)

    monkeypatch.setattr(bench, "decode", spy_decode)
    monkeypatch.setattr(bench, "autoregressive_decode", spy_ar)
    run_bench(
        model, prompts, [MethodSpec("hd", databases="cms")],
        model_db=model_db, stats_db=stats_db, runs=3, max_tokens=20,
    )
    warm_up = [("ar", True)] * 2 + [("hd", True)] * 2
    timed = [("ar", False)] * 2 + [("hd", False)] * 2
    assert calls == warm_up + timed * 3


def test_each_temperature_has_its_own_baseline(passage_setup):
    """A row's speedup divides by autoregressive decoding at its own
    temperature: the first such row listed, or one the bench prepends."""
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model, prompts,
        [
            MethodSpec("hd", "cms"),
            MethodSpec("hd-hot", "cms", 0.8),
            MethodSpec("hd-warm", "mc", 0.3),
            MethodSpec("ar-warm", "", 0.3),
            MethodSpec("ar-warm-2", "", 0.3),
        ],
        model_db=model_db, stats_db=stats_db, runs=2, max_tokens=20,
    )
    rows = {row["name"]: row for row in report["rows"]}
    assert list(rows) == [
        "autoregressive", "autoregressive@0.8", "hd", "hd-hot", "hd-warm", "ar-warm", "ar-warm-2",
    ]
    hot = rows["autoregressive@0.8"]
    assert (hot["databases"], hot["temperature"], hot["speedup"]) == ("", 0.8, 1.0)
    for name, base in (
        ("autoregressive", "autoregressive"), ("hd", "autoregressive"),
        ("autoregressive@0.8", "autoregressive@0.8"), ("hd-hot", "autoregressive@0.8"),
        ("hd-warm", "ar-warm"), ("ar-warm", "ar-warm"), ("ar-warm-2", "ar-warm"),
    ):
        tps = rows[name]["tokens_per_sec"] / rows[base]["tokens_per_sec"]
        assert rows[name]["speedup"] == tps


def test_a_fraction_temperature_names_its_baseline_by_float(passage_setup, tmp_path):
    """``str(Fraction(1, 2))`` holds a ``/``; the baseline's name and trace
    file use ``float(T)``."""
    model, *_, prompts = passage_setup
    report = run_bench(
        model, prompts, [MethodSpec("half", "c", Fraction(1, 2))],
        runs=1, max_tokens=10, trace_dir=tmp_path,
    )
    assert [row["name"] for row in report["rows"]] == ["autoregressive@0.5", "half"]
    traces = load_traces(tmp_path / "autoregressive@0.5.traces.jsonl")
    assert [t.config.temperature for t in traces] == [0.5]


def test_fixture_speedup_with_busywork(passage_setup):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model,
        prompts,
        [MethodSpec("hd", databases="cms")],
        model_db=model_db,
        stats_db=stats_db,
        runs=3,
        max_tokens=60,
        model_call_cost_s=1e-3,
    )
    hd = next(r for r in report["rows"] if r["name"] == "hd")
    assert hd["speedup"] > 1.0


def test_ablate_order_probe_counts(passage_setup):
    model, model_db, stats_db, prompts = passage_setup
    # set_size 1 makes the context database fill the set by itself, so the
    # canonical order must never touch the stats index.
    hier = HierarchyConfig(set_size=1)
    report = run_bench(
        model,
        prompts,
        ABLATIONS["order"],
        model_db=model_db,
        stats_db=stats_db,
        hierarchy=hier,
        runs=2,
        max_tokens=40,
    )
    rows = {r["name"]: r for r in report["rows"] if r["name"] != "autoregressive"}
    assert len(rows) == 6
    for name, row in rows.items():
        order = name.removeprefix("order-")
        assert row["databases"] == order and "order" not in row
        if order.startswith("s"):
            assert row["probes"]["s"] == row["steps"]
        # The per-database latency breakdown covers exactly the probed
        # databases, so it shows the stats index untouched under cms.
        per_db = row["draft_latency_ns"]["per_db"]
        if order == "cms":
            assert row["probes"]["s"] == 0
            assert "s" not in per_db
        if order.startswith("s"):
            assert "s" in per_db


def test_ablate_order_losslessness_per_permutation(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model,
        prompts,
        ABLATIONS["order"],
        model_db=model_db,
        stats_db=stats_db,
        runs=1,
        max_tokens=30,
        trace_dir=tmp_path,
    )
    outputs = set()
    for row in report["rows"]:
        traces = load_traces(tmp_path / f"{row['name']}.traces.jsonl")
        outputs.add(tuple(tuple(t.output) for t in traces))
    assert len(outputs) == 1  # greedy output identical across orders and AR


def test_ablate_dbs_subsets_and_tau(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model,
        prompts,
        ABLATIONS["dbs"],
        model_db=model_db,
        stats_db=stats_db,
        runs=1,
        max_tokens=50,
        trace_dir=tmp_path,
    )
    names = {r["name"] for r in report["rows"]}
    assert names == {
        "autoregressive", "db-c", "db-m", "db-s", "db-cm", "db-cs", "db-ms", "db-cms",
    }
    taus = {r["name"]: r["tau"] for r in report["rows"]}
    assert taus["db-cms"] >= max(taus["db-c"], taus["db-m"], taus["db-s"])


def test_report_deterministic_modulo_wallclock(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup

    def scrub(obj):
        wall = ("tokens_per_sec", "speedup", "latency", "wall_time", "elapsed")
        if isinstance(obj, dict):
            return {
                k: scrub(v)
                for k, v in obj.items()
                if not any(part in k for part in wall)
            }
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        report = run_bench(
            model,
            prompts,
            [MethodSpec("hd", databases="cms")],
            model_db=model_db,
            stats_db=stats_db,
            runs=2,
            max_tokens=30,
        )
        write_report(report, out)
        reports.append(scrub(json.loads(out.read_text(encoding="utf-8"))))
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)


def test_row_metrics_recomputable_from_traces(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup
    report = run_bench(
        model,
        prompts,
        [MethodSpec("hd", databases="cms")],
        model_db=model_db,
        stats_db=stats_db,
        runs=1,
        max_tokens=40,
        trace_dir=tmp_path,
    )
    from hierdraft import aggregate_traces

    hd = next(r for r in report["rows"] if r["name"] == "hd")
    replayed = aggregate_traces(load_traces(tmp_path / "hd.traces.jsonl"))
    assert hd["tau"] == replayed.tau
    assert hd["alpha"] == replayed.alpha
    assert hd["tallies"] == replayed.tallies
    assert hd["probes"] == replayed.probes
    assert hd["steps"] == replayed.steps


def test_write_report_is_valid_json(passage_setup, tmp_path):
    model, *_ , prompts = passage_setup
    report = run_bench(model, prompts, [], runs=1, max_tokens=10)
    path = tmp_path / "report.json"
    write_report(report, path)
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["rows"][0]["speedup"] == 1.0


@pytest.mark.parametrize(
    "change, match",
    [
        ({"seed": "7"}, "seed"),
        ({"max_tokens": 0}, "max_tokens"),
        ({"stats_db": None}, "stats DB"),
        ({"runs": True}, "runs"),
        ({"runs": 2.5}, "runs"),
        ({"runs": "2"}, "runs"),
    ],
    ids=["string-seed", "zero-max-tokens", "missing-stats-db", "bool-runs", "float-runs",
         "string-runs"],
)
def test_bad_setting_fails_before_any_run(passage_setup, monkeypatch, change, match):
    import hierdraft.bench as bench

    model, model_db, stats_db, prompts = passage_setup
    calls = []
    monkeypatch.setattr(bench, "decode", lambda *args: calls.append("decode"))
    monkeypatch.setattr(bench, "autoregressive_decode", lambda *args: calls.append("ar"))
    settings = {"model_db": model_db, "stats_db": stats_db, "runs": 1, **change}
    with pytest.raises(ValueError, match=match):
        run_bench(model, prompts, [MethodSpec("hd", databases="cms")], **settings)
    assert calls == []


def test_prompt_i_decodes_with_seed_plus_i(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup
    run_bench(
        model, prompts * 3, [MethodSpec("hd", databases="mc", temperature=0.8)],
        model_db=model_db, runs=1, seed=5, max_tokens=10, trace_dir=tmp_path,
    )
    for name, order, temperature in (("autoregressive@0.8", "", 0.8), ("hd", "mc", 0.8)):
        configs = [t.config for t in load_traces(tmp_path / f"{name}.traces.jsonl")]
        assert [c.seed for c in configs] == [5, 6, 7]
        assert {(c.hierarchy.order, c.temperature, c.max_tokens) for c in configs} == {
            (order, temperature, 10)
        }


@pytest.mark.parametrize("temperature", [0.0, 0.8])
def test_a_row_whose_outputs_differ_from_ar_fails(passage_setup, monkeypatch, temperature):
    """A verifier that emits a wrong last token once the context is long
    spoils the long prompt's output only, and ``run_bench`` names the row
    and that prompt."""
    import hierdraft.engine as engine

    model, model_db, stats_db, prompts = passage_setup
    short, long = prompts[0][:3], prompts[0]
    assert len(long) > 3 + 10
    real = {name: getattr(engine, name) for name in ("verify_greedy", "verify_sampling")}

    def sabotaged(name):
        def verify(model, context, *args):
            outcome = real[name](model, context, *args)
            if len(context) > 3 + 10:
                outcome.emitted[-1] = (outcome.emitted[-1] + 1) % model.vocab_size
            return outcome
        return verify

    for name in real:
        monkeypatch.setattr(engine, name, sabotaged(name))
    with pytest.raises(ValueError, match=r"^row 'hd': prompt 1 decodes to other tokens"):
        run_bench(
            model, [short, long], [MethodSpec("hd", "cms", temperature)],
            model_db=model_db, stats_db=stats_db, runs=1, max_tokens=10,
        )
