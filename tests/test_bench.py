import json

import pytest

from hierdraft import (
    HierarchyConfig,
    MethodSpec,
    ablate_dbs,
    ablate_order,
    build_model_db,
    build_stats_db,
    load_traces,
    run_bench,
    tokenize,
)
from hierdraft.bench import write_report


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
        hierarchy=HierarchyConfig(order="c", enabled="c", set_size=5),
        runs=1, max_tokens=20,
    )
    env = report["env"]["hierarchy"]
    assert "order" not in env and "enabled" not in env
    assert env["set_size"] == 5
    hd = next(r for r in report["rows"] if r["name"] == "hd")
    assert hd["probes"]["m"] > 0  # the row's own databases, not hierarchy.enabled


def test_missing_db_fails_before_any_run(passage_setup):
    model, *_ , prompts = passage_setup
    with pytest.raises(ValueError, match="stats DB"):
        run_bench(model, prompts, [MethodSpec("hd", databases="cs")], runs=1)


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
    report = ablate_order(
        model,
        prompts,
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
        if order.startswith("s"):
            assert row["probes"]["s"] == row["steps"]
        if order == "cms":
            assert row["probes"]["s"] == 0
            cms_latency = row["draft_latency_ns"]["mean"]
    s_first = [r for name, r in rows.items() if name.removeprefix("order-").startswith("s")]
    for row in s_first:
        assert cms_latency <= row["draft_latency_ns"]["mean"]


def test_ablate_order_losslessness_per_permutation(passage_setup, tmp_path):
    model, model_db, stats_db, prompts = passage_setup
    report = ablate_order(
        model,
        prompts,
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
    report = ablate_dbs(
        model,
        prompts,
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
    singles = [r for r in report["rows"] if r["name"] in ("db-c", "db-m", "db-s")]
    for row in singles:
        assert "accepted_events" in row
        # Coverage sets recomputable from the persisted traces.
        from hierdraft import accepted_events

        traces = load_traces(tmp_path / f"{row['name']}.traces.jsonl")
        assert sorted(accepted_events(traces)) == [tuple(e) for e in row["accepted_events"]]


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
        run_bench(
            model,
            prompts,
            [MethodSpec("hd", databases="cms")],
            model_db=model_db,
            stats_db=stats_db,
            runs=2,
            max_tokens=30,
            out=out,
        )
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


def test_only_the_warm_up_pass_traces(passage_setup, monkeypatch):
    import hierdraft.bench as bench

    model, model_db, stats_db, prompts = passage_setup
    traced = []
    real_decode = bench.decode

    def spy(model, prompt, dbs, config):
        traced.append(config.trace)
        return real_decode(model, prompt, dbs, config)

    monkeypatch.setattr(bench, "decode", spy)
    run_bench(
        model, prompts, [MethodSpec("hd", databases="cms")],
        model_db=model_db, stats_db=stats_db, runs=3, max_tokens=20,
    )
    assert traced == [True] * len(prompts) + [False] * (3 * len(prompts))
