"""Parallel candidate verification against the target model.

One verification step costs exactly one counted model call regardless of
how many candidates or positions it scores, mirroring a single batched
forward pass. Greedy mode accepts the longest prefix of each candidate
that matches the model's argmax path and always emits one extra token
(the correction at the first divergence, or the bonus after a full
acceptance), so every step makes progress. Sampling mode draws each
emitted token from the exact temperature-scaled target distribution and
keeps the candidates that match, so the output law equals plain
autoregressive sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .drafting import AccessLog, DraftCandidate, SOURCE_NAMES
from .kgram import KGramModel, ModelCallCounter, apply_temperature, sample_token

_SOURCE_TO_LETTER = {name: letter for letter, name in SOURCE_NAMES.items()}


@dataclass
class StepOutcome:
    """Result of verifying one draft set."""

    accepted: list[int]                 # accepted prefix length per candidate
    candidate_lens: list[int]           # drafted length per candidate
    winner: int | None                  # index into the draft set, None if empty
    winner_source: str | None
    emitted: list[int]
    recycled: list[int]                 # model-preferred tokens along the winner's path
    drafted_total: int
    verify_elapsed_ns: int = 0


def _pick_winner(accepted: list[int]) -> int:
    best = 0
    for i, length in enumerate(accepted):
        if length > accepted[best]:
            best = i
    return best


def verify_greedy(
    model: KGramModel,
    context: list[int],
    draft_set: list[DraftCandidate],
    counter: ModelCallCounter,
) -> StepOutcome:
    """Accept the longest argmax-matching prefix; emit it plus one model token.

    The winner is the candidate with the most accepted tokens, ties
    breaking toward the earlier (higher temporal locality) candidate. An
    empty draft set degenerates to one autoregressive step.

    An accepted prefix lies on the model's greedy path, so every candidate
    is scored against that one path, extended lazily: the step makes
    ``max(accepted) + 1`` argmax calls. The model reads no more than its
    last ``k - 1`` tokens, so the path starts from the last ``k`` of
    ``context`` instead of a copy of all of it.
    """
    start = time.perf_counter_ns()
    counter.bump()
    path = context[-model.k:]
    base = len(path)
    path.append(model.argmax_token(path))
    accepted: list[int] = []
    for cand in draft_set:
        length = 0
        for token in cand.tokens:
            if token != path[base + length]:
                break
            length += 1
            if base + length == len(path):
                path.append(model.argmax_token(path))
        accepted.append(length)
    winner = _pick_winner(accepted) if draft_set else None
    # The accepted prefix plus the correction at the divergence, or the
    # bonus token after a full acceptance.
    emitted = path[base:base + 1 + (accepted[winner] if draft_set else 0)]
    return StepOutcome(
        accepted=accepted,
        candidate_lens=[len(c.tokens) for c in draft_set],
        winner=winner,
        winner_source=draft_set[winner].source if draft_set else None,
        emitted=emitted,
        recycled=list(emitted),
        drafted_total=sum(len(c.tokens) for c in draft_set),
        verify_elapsed_ns=time.perf_counter_ns() - start,
    )


def verify_sampling(
    model: KGramModel,
    context: list[int],
    draft_set: list[DraftCandidate],
    temperature: float,
    rng: np.random.Generator,
    counter: ModelCallCounter,
) -> StepOutcome:
    """Sample-then-match verification at temperature T > 0.

    Each position draws a token from the exact temperature-scaled target
    distribution given everything emitted so far, then keeps the candidates
    that predicted it. Drafts have probability one under their proposal, so
    this emits the same law as speculative sampling with point-mass drafts,
    and therefore the same law as autoregressive sampling. The walk stops at
    the first position with no surviving candidate (that sample stays: it is
    the correction token) or once every surviving candidate is exhausted.
    """
    if temperature <= 0:
        raise ValueError("verify_sampling requires temperature > 0; use verify_greedy")
    start = time.perf_counter_ns()
    counter.bump()
    # As in verify_greedy, the model sees the last k context tokens.
    path = context[-model.k:]
    base = len(path)
    recycled: list[int] = []

    def draw() -> int:
        probs = apply_temperature(model.next_distribution(path), temperature)
        recycled.append(int(np.argmax(probs)))
        token = sample_token(probs, rng)
        path.append(token)
        return token

    if not draft_set:
        draw()
        return StepOutcome(
            accepted=[],
            candidate_lens=[],
            winner=None,
            winner_source=None,
            emitted=path[base:],
            recycled=recycled,
            drafted_total=0,
            verify_elapsed_ns=time.perf_counter_ns() - start,
        )
    survivors = list(range(len(draft_set)))
    position = 0
    while True:
        token = draw()
        survivors = [
            i
            for i in survivors
            if position < len(draft_set[i].tokens) and draft_set[i].tokens[position] == token
        ]
        if not survivors:
            break
        position += 1
        if all(len(draft_set[i].tokens) <= position for i in survivors):
            break
    emitted = path[base:]
    accepted = []
    for cand in draft_set:
        length = 0
        for a, b in zip(cand.tokens, emitted):
            if a != b:
                break
            length += 1
        accepted.append(length)
    winner = _pick_winner(accepted)
    return StepOutcome(
        accepted=accepted,
        candidate_lens=[len(c.tokens) for c in draft_set],
        winner=winner,
        winner_source=draft_set[winner].source,
        emitted=emitted,
        recycled=recycled,
        drafted_total=sum(len(c.tokens) for c in draft_set),
        verify_elapsed_ns=time.perf_counter_ns() - start,
    )


def attribute_verify_success(step: StepOutcome, log: AccessLog) -> dict[str, dict[str, int]]:
    """Per-database draft failure / draft success / verify success tallies.

    An attempted database fails when it returned nothing and succeeds
    otherwise; it additionally scores a verify success when it sourced the
    winning candidate and at least one token was accepted.
    """
    return _add_tallies({}, step, log)


def _add_tallies(
    tallies: dict[str, dict[str, int]], step: StepOutcome, log: AccessLog
) -> dict[str, dict[str, int]]:
    """Add one step's ``attribute_verify_success`` tallies into ``tallies``."""
    total_kept = sum(rec.kept for rec in log.values())
    if total_kept != len(step.accepted):
        raise ValueError(
            f"step/log mismatch: log kept {total_kept} candidates, "
            f"step scored {len(step.accepted)}"
        )
    winner_letter = None
    if step.winner is not None and step.accepted[step.winner] >= 1:
        winner_letter = _SOURCE_TO_LETTER[step.winner_source]
        if winner_letter not in log:
            raise ValueError(f"winner source {step.winner_source!r} missing from access log")
    for letter, record in log.items():
        entry = tallies.get(letter)
        if entry is None:
            entry = tallies[letter] = {"draft_failure": 0, "draft_success": 0, "verify_success": 0}
        if record.attempted:
            entry["draft_success" if record.returned else "draft_failure"] += 1
            if letter == winner_letter:
                entry["verify_success"] += 1
    return tallies
