"""Post-hoc analyses: accepted-token coverage and n-gram temporal locality."""

from __future__ import annotations

import csv
from pathlib import Path

from ._checks import check_int
from .corpus import Corpus
from .engine import DecodeTrace

OCCURRENCE_CLASSES = ("first", "within", "across")


def accepted_events(traces: list[DecodeTrace]) -> set[tuple[int, int, int]]:
    """(prompt index, output position, token) for every draft-accepted token.

    Only the winner's accepted prefix counts (the correction/bonus token is
    model output, not drafting success). Positions truncated out of the
    final output are excluded so event sets are comparable across runs
    that emitted the same output.
    """
    events: set[tuple[int, int, int]] = set()
    for prompt_idx, trace in enumerate(traces):
        position = 0
        for record in trace.steps:
            outcome = record.outcome
            if outcome.winner is not None:
                for j in range(outcome.accepted[outcome.winner]):
                    if position + j < len(trace.output):
                        events.add((prompt_idx, position + j, outcome.emitted[j]))
            position += len(outcome.emitted)
    return events


def coverage_report(traces_by_db: dict[str, list[DecodeTrace]]) -> dict:
    """Venn-region counts of accepted-token events across single-DB runs.

    Input maps a database label (e.g. "c") to the traces of a run using
    only that database. All runs must cover the same prompts. Region keys
    are the sorted label subsets ("c", "cm", "cms", ...); their counts
    partition the union of all events.
    """
    if not traces_by_db:
        raise ValueError("no traces")
    labels = sorted(traces_by_db)
    prompt_lists = {
        label: [tuple(t.prompt) for t in traces] for label, traces in traces_by_db.items()
    }
    reference = prompt_lists[labels[0]]
    for label in labels[1:]:
        if prompt_lists[label] != reference:
            raise ValueError("traces have mismatched prompts")
    sets = {label: accepted_events(traces_by_db[label]) for label in labels}
    union: set[tuple[int, int, int]] = set().union(*sets.values())
    regions: dict[str, int] = {}
    for event in union:
        key = "".join(l for l in labels if event in sets[l])
        regions[key] = regions.get(key, 0) + 1
    return {
        "labels": labels,
        "events_per_db": {label: len(sets[label]) for label in labels},
        "events_union": len(union),
        "regions": dict(sorted(regions.items())),
    }


def locality_stats(
    corpus: Corpus, n: int = 4
) -> tuple[list[tuple[int, int, int, str]], list[dict]]:
    """Classify every n-gram occurrence by where it repeated from.

    An occurrence is "within" when the same n-gram appeared earlier in the
    same document, "across" when it appeared only in an earlier document,
    and "first" otherwise. Returns per-occurrence rows
    (ngram_id, doc_index, position, class) and a per-n-gram summary.
    """
    check_int("n", n)
    if len(corpus.docs) < 2:
        raise ValueError("locality stats need at least 2 documents")
    gram_ids: dict[tuple[int, ...], int] = {}
    rows: list[tuple[int, int, int, str]] = []
    summary: list[dict] = []
    global_seen: set[tuple[int, ...]] = set()
    for doc_idx, doc in enumerate(corpus.docs):
        local_seen: set[tuple[int, ...]] = set()
        for pos in range(len(doc) - n + 1):
            gram = tuple(doc[pos:pos + n])
            gram_id = gram_ids.get(gram)
            if gram_id is None:
                gram_id = len(gram_ids)
                gram_ids[gram] = gram_id
                summary.append(
                    {"ngram_id": gram_id, "ngram": list(gram), "count": 0,
                     "first": 0, "within": 0, "across": 0}
                )
            if gram in local_seen:
                cls = "within"
            elif gram in global_seen:
                cls = "across"
            else:
                cls = "first"
            rows.append((gram_id, doc_idx, pos, cls))
            summary[gram_id]["count"] += 1
            summary[gram_id][cls] += 1
            local_seen.add(gram)
            global_seen.add(gram)
    return rows, summary


def write_locality_csv(
    rows: list[tuple[int, int, int, str]],
    summary: list[dict],
    path: str | Path,
) -> Path:
    """Write per-occurrence rows to ``path`` and the per-n-gram summary next to it."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ngram_id", "doc_index", "position", "class"])
        writer.writerows(rows)
    summary_path = path.with_suffix(path.suffix + ".summary.csv")
    with open(summary_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ngram_id", "ngram", "count", "first", "within", "across"])
        for entry in summary:
            writer.writerow(
                [
                    entry["ngram_id"],
                    " ".join(str(t) for t in entry["ngram"]),
                    entry["count"],
                    entry["first"],
                    entry["within"],
                    entry["across"],
                ]
            )
    return summary_path
