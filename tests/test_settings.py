"""Every numeric setting is checked by one of two shared rules.

A number setting takes any finite ``numbers.Real`` that is not a bool, so
numpy scalars and fractions pass wherever one does; an integer setting
takes only an ``int`` that is not a bool. Each refusal has the same
message wherever the setting lives.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hierdraft import (
    ContextDB,
    DecodeConfig,
    HierarchyConfig,
    KGramModel,
    MethodSpec,
    build_model_db,
    corpus_from_texts,
    fit_kgram,
    load_traces,
    locality_stats,
    run_bench,
)
from hierdraft.bench import write_report

_CORPUS = corpus_from_texts(["a b a b c", "b c a"])
_MODEL = fit_kgram(_CORPUS, k=2, alpha=0.1)

# name in the message, whether it must be > 0 (else >= 0), and a call that
# applies the setting
NUMBER_SETTINGS = {
    "temperature": ("temperature", False, lambda v: DecodeConfig(temperature=v)),
    "model_call_cost_s": ("model_call_cost_s", False, lambda v: DecodeConfig(model_call_cost_s=v)),
    "alpha": ("alpha", True, lambda v: fit_kgram(_CORPUS, k=2, alpha=v)),
    "sample": ("temperature", True, lambda v: _MODEL.sample([3], v, np.random.default_rng(0))),
}

# name in the message, least value, and a call that applies the setting
INTEGER_SETTINGS = {
    "max_tokens": ("max_tokens", 1, lambda v: DecodeConfig(max_tokens=v)),
    "seed": ("seed", 0, lambda v: DecodeConfig(seed=v)),
    "set_size": ("set_size", 1, lambda v: HierarchyConfig(set_size=v)),
    "tail_len": ("tail_len", 1, lambda v: HierarchyConfig(tail_len=v)),
    "draft_len": ("draft_len", 1, lambda v: HierarchyConfig(draft_len=v)),
    "context-window": ("window", 1, lambda v: ContextDB(window=v)),
    "context-per-key": ("per_key", 1, lambda v: ContextDB(per_key=v)),
    "capacity": ("capacity", 1, lambda v: ContextDB(capacity=v)),
    "top_k": ("top_k", 1, lambda v: build_model_db(_CORPUS, top_k=v)),
    "model-window": ("window", 1, lambda v: build_model_db(_CORPUS, window=v)),
    "model-per-key": ("per_key", 1, lambda v: build_model_db(_CORPUS, per_key=v)),
    "runs": ("runs", 1, lambda v: run_bench(_MODEL, [[3, 4]], [], runs=v)),
    "k": ("k", 1, lambda v: fit_kgram(_CORPUS, k=v, alpha=0.1)),
    "vocab_size": ("vocab_size", 1, lambda v: KGramModel(1, 0.1, v, [])),
    "locality-n": ("n", 1, lambda v: locality_stats(_CORPUS, v)),
}


@pytest.mark.parametrize("setting", NUMBER_SETTINGS)
@pytest.mark.parametrize(
    "value, ok",
    [
        (np.float32(0.001), True),
        (np.int64(2), True),
        (Fraction(1, 1000), True),
        (True, False),
        (np.bool_(True), False),
        (math.nan, False),
        (math.inf, False),
        ("0.5", False),
    ],
    ids=["float32", "int64", "fraction", "bool", "np-bool", "nan", "inf", "str"],
)
def test_number_settings_share_one_rule(setting, value, ok):
    name, positive, apply = NUMBER_SETTINGS[setting]
    if ok:
        apply(value)
        return
    least = "> 0" if positive else ">= 0"
    match = f"^{name} must be a finite number {least}, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        apply(value)


@pytest.mark.parametrize("setting", INTEGER_SETTINGS)
@pytest.mark.parametrize("value", [True, 2.5, np.bool_(True)], ids=["bool", "float", "np-bool"])
def test_integer_settings_share_one_rule(setting, value):
    name, least, apply = INTEGER_SETTINGS[setting]
    match = f"^{name} must be an integer >= {least}, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        apply(value)


@pytest.mark.parametrize(
    "value", [np.float32(0.5), np.int64(1), Fraction(1, 2)], ids=["float32", "int64", "fraction"]
)
def test_number_settings_are_written_as_floats(tmp_path, value):
    """A report and a trace file hold an accepted number setting as a float."""
    cost = value / 10**6
    report = run_bench(
        _MODEL, [[3, 4]], [MethodSpec("hd", "c", value)], runs=1, max_tokens=4,
        model_call_cost_s=cost, trace_dir=tmp_path,
    )
    write_report(report, tmp_path / "report.json")
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["env"]["model_call_cost_s"] == float(cost)
    assert report["rows"][1]["temperature"] == float(value)
    config = load_traces(tmp_path / "hd.traces.jsonl")[0].config
    assert (config.temperature, config.model_call_cost_s) == (float(value), float(cost))
