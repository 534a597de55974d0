import csv
import itertools
import random

import pytest

from hierdraft import (
    Corpus,
    DecodeTrace,
    StepRecord,
    accepted_events,
    build_vocab,
    coverage_report,
    locality_stats,
)
from hierdraft.analysis import write_locality_csv
from hierdraft.drafting import AccessRecord
from hierdraft.verification import StepOutcome


def _trace(prompt, step_specs, output=None):
    """Build a minimal trace: step_specs are (emitted, accepted_of_winner)."""
    steps = []
    emitted_all = []
    for emitted, accepted in step_specs:
        outcome = StepOutcome(
            accepted=[accepted],
            candidate_lens=[max(accepted, 1)],
            winner=0 if accepted is not None else None,
            winner_source="context" if accepted is not None else None,
            emitted=list(emitted),
            drafted_total=max(accepted or 0, 1),
        )
        steps.append(
            StepRecord(
                context_tail=[0],
                access={"c": AccessRecord(True, 1, 1, 5)},
                outcome=outcome,
            )
        )
        emitted_all.extend(emitted)
    return DecodeTrace(
        prompt=list(prompt),
        output=list(output if output is not None else emitted_all),
        steps=steps,
        config={},
        wall_time_s=0.0,
    )


def test_accepted_events_exclude_bonus_and_truncated():
    trace = _trace([9], [([3, 4, 5], 2)], output=[3, 4])
    # Positions 0 and 1 were accepted draft tokens; position 1 survives the
    # output cut at 2 tokens, position 2 (the bonus) never counts.
    assert accepted_events([trace]) == {(0, 0, 3), (0, 1, 4)}


def test_coverage_identical_traces_all_triple():
    traces = {label: [_trace([9], [([3, 4], 1)])] for label in "cms"}
    report = coverage_report(traces)
    assert report["regions"] == {"cms": 1}
    assert report["events_union"] == 1


def test_coverage_exclusive_region():
    base = [_trace([9], [([3, 4], 0)])]  # nothing accepted
    only_c = [_trace([9], [([3, 4], 1)])]
    report = coverage_report({"c": only_c, "m": base, "s": base})
    assert report["regions"] == {"c": 1}


def test_coverage_regions_sum_to_union():
    rng = random.Random(5)
    traces = {}
    for label in "cms":
        specs = []
        for _ in range(6):
            emitted = [rng.randrange(3, 10) for _ in range(rng.randint(1, 4))]
            specs.append((emitted, rng.randint(0, len(emitted))))
        traces[label] = [_trace([1, 2], specs)]
    report = coverage_report(traces)
    sets = {label: accepted_events(traces[label]) for label in "cms"}
    union = set().union(*sets.values())
    assert sum(report["regions"].values()) == len(union) == report["events_union"]
    # Independent set-algebra recount of each region.
    for subset_size in (1, 2, 3):
        for combo in itertools.combinations("cms", subset_size):
            inside = set.intersection(*(sets[l] for l in combo))
            outside = set().union(
                *(sets[l] for l in "cms" if l not in combo), set()
            )
            exact = inside - outside
            key = "".join(combo)
            assert report["regions"].get(key, 0) == len(exact)


def test_coverage_mismatched_prompts_error():
    a = [_trace([1], [([3], 1)])]
    b = [_trace([2], [([3], 1)])]
    with pytest.raises(ValueError, match="mismatched prompts"):
        coverage_report({"c": a, "m": b})


def _vocab(n):
    return build_vocab([" ".join(f"v{i}" for i in range(n))])


def test_locality_within_process():
    doc = [3, 4, 3, 4, 3, 4, 3, 4]
    corpus = Corpus(docs=[doc, [5, 6, 7, 8]], vocab=_vocab(10))
    rows, summary = locality_stats(corpus, n=4)
    gram_rows = [r for r in rows if r[0] == 0]  # first n-gram: [3, 4, 3, 4]
    assert gram_rows[0][3] == "first"
    assert all(r[3] == "within" for r in gram_rows[1:])
    assert len(gram_rows) >= 2


def test_locality_across_process():
    doc = [3, 4, 5, 6]
    corpus = Corpus(docs=[list(doc) for _ in range(10)], vocab=_vocab(10))
    rows, summary = locality_stats(corpus, n=4)
    assert [r[3] for r in rows] == ["first"] + ["across"] * 9
    assert summary[0]["first"] == 1
    assert summary[0]["across"] == 9
    assert summary[0]["count"] == 10


def _oracle_classes(docs, n):
    """Brute-force two-pass classifier: literal scans over earlier positions."""
    out = []
    for d_idx, doc in enumerate(docs):
        for pos in range(len(doc) - n + 1):
            gram = doc[pos:pos + n]
            within = any(
                doc[q:q + n] == gram for q in range(pos)
            )
            across = any(
                other[q:q + n] == gram
                for other in docs[:d_idx]
                for q in range(len(other) - n + 1)
            )
            if within:
                cls = "within"
            elif across:
                cls = "across"
            else:
                cls = "first"
            out.append(cls)
    return out


def test_locality_matches_bruteforce_classifier():
    rng = random.Random(17)
    docs = [
        [rng.randrange(3, 9) for _ in range(rng.randint(6, 40))] for _ in range(8)
    ]
    corpus = Corpus(docs=docs, vocab=_vocab(10))
    rows, _ = locality_stats(corpus, n=3)
    assert [r[3] for r in rows] == _oracle_classes(docs, 3)


def test_locality_validation():
    corpus = Corpus(docs=[[3, 4], [5, 6]], vocab=_vocab(10))
    with pytest.raises(ValueError):
        locality_stats(corpus, n=0)
    with pytest.raises(ValueError):
        locality_stats(Corpus(docs=[[3, 4]], vocab=_vocab(10)), n=2)


def test_locality_csv_output(tmp_path):
    corpus = Corpus(docs=[[3, 4, 5], [3, 4, 5]], vocab=_vocab(10))
    rows, summary = locality_stats(corpus, n=2)
    out = tmp_path / "locality.csv"
    summary_path = write_locality_csv(rows, summary, out)
    with open(out, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["ngram_id", "doc_index", "position", "class"]
    assert len(parsed) == 1 + len(rows)
    with open(summary_path, newline="", encoding="utf-8") as fh:
        summaries = list(csv.reader(fh))
    assert summaries[0][0] == "ngram_id"
    assert len(summaries) == 1 + len(summary)
