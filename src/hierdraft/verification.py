"""Parallel candidate verification against the target model.

One verification step costs exactly one counted model call regardless of
how many candidates or positions it scores, mirroring a single batched
forward pass. Greedy and sampling verification share one walk: the
target's own path from the context, drawn one token at a time and
extended lazily while some candidate still matches it. Each candidate's
accepted length is its longest prefix on that path; the step emits the
path, which is the winner's accepted prefix plus one more target token
(the correction at the first divergence, or the bonus after a full
acceptance), so every step makes progress. Greedy draws the argmax;
sampling draws from the exact temperature-scaled target distribution
through ``KGramModel.sample``, as ``autoregressive_decode`` does: each
draw takes the next uniform of one stream made from the seed, drawn in
blocks, so the output law and even the tokens for a given seed equal
plain autoregressive decoding.
Verification reads no clock; a traced ``decode`` times each call and
writes ``StepOutcome.verify_elapsed_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .drafting import DraftCandidate
from .kgram import KGramModel, ModelCallCounter


@dataclass(slots=True)
class StepOutcome:
    """Result of verifying one draft set."""

    accepted: list[int]                 # accepted prefix length per candidate
    candidate_lens: list[int]           # drafted length per candidate
    winner: int | None                  # index into the draft set, None if empty
    winner_source: str | None
    emitted: list[int]
    drafted_total: int
    verify_elapsed_ns: int = 0          # set by a traced ``decode`` only


def _verify(
    model: KGramModel,
    context: list[int],
    draft_set: list[DraftCandidate],
    counter: ModelCallCounter,
    draw: Callable[[list[int]], int],
) -> StepOutcome:
    """Score every candidate against one lazily extended target path.

    ``draw(path)`` returns the target's next token after ``path``. It is
    called ``max(accepted) + 1`` times, so the path ends exactly one token
    past the longest accepted prefix and is emitted whole. The winner is
    the candidate with the most accepted tokens, ties breaking toward the
    earlier (higher temporal locality) candidate; an empty draft set
    degenerates to one autoregressive step. The model reads no more than
    its last ``k - 1`` tokens, so the path starts from the last ``k`` of
    ``context`` instead of a copy of all of it.
    """
    counter.bump()
    path = context[-model.k:]
    base = len(path)
    path.append(draw(path))
    accepted: list[int] = []
    lens: list[int] = []
    for tokens, _source in draft_set:
        lens.append(len(tokens))
        length = 0
        for token in tokens:
            if token != path[base + length]:
                break
            length += 1
            if base + length == len(path):
                path.append(draw(path))
        accepted.append(length)
    winner = accepted.index(max(accepted)) if accepted else None
    source = None if winner is None else draft_set[winner][1]
    # Positional: keyword arguments double the cost of building the outcome.
    return StepOutcome(accepted, lens, winner, source, path[base:], sum(lens))


def verify_greedy(
    model: KGramModel,
    context: list[int],
    draft_set: list[DraftCandidate],
    counter: ModelCallCounter,
) -> StepOutcome:
    """Accept the longest argmax-matching prefix; emit it plus one model token.

    The step makes ``max(accepted) + 1`` argmax calls.
    """
    return _verify(model, context, draft_set, counter, model.argmax_token)


def verify_sampling(
    model: KGramModel,
    context: list[int],
    draft_set: list[DraftCandidate],
    temperature: float,
    rng: np.random.Generator,
    counter: ModelCallCounter,
) -> StepOutcome:
    """Sample-then-match verification at temperature T > 0.

    Each path token is drawn from the exact temperature-scaled target
    distribution given everything before it. Drafts have probability one
    under their proposal, so this emits the same law as speculative
    sampling with point-mass drafts, and therefore the same law as
    autoregressive sampling; a fully accepted candidate earns a bonus
    draw, as in greedy mode. Each draw is one ``model.sample`` call.
    """
    if temperature <= 0:
        raise ValueError("verify_sampling requires temperature > 0; use verify_greedy")
    return _verify(
        model, context, draft_set, counter, lambda path: model.sample(path, temperature, rng)
    )
