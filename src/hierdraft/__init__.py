"""Lossless speculative decoding via hierarchical draft-token databases.

Three databases hold draft continuations at decreasing temporal locality:
a per-session LRU table fed by the current prompt and generation, a static
table of a model's most frequent output sequences, and a suffix-array
index over a large corpus. Drafting probes them in locality order until
the draft set is full; a single verification step then accepts the longest
model-consistent candidate prefix, so greedy output is token-identical to
autoregressive decoding at a fraction of the model calls.
"""

from .analysis import accepted_events, coverage_report, locality_stats
from .bench import MethodSpec, run_bench
from .context_db import ContextDB
from .corpus import (
    EOS,
    SEP,
    UNK,
    Corpus,
    Vocab,
    build_vocab,
    corpus_from_texts,
    detokenize,
    load_corpus,
    tokenize,
)
from .drafting import (
    AccessRecord,
    DatabaseSet,
    DraftCandidate,
    HierarchyConfig,
    hierarchical_draft,
)
from .engine import (
    DecodeConfig,
    DecodeMetrics,
    DecodeTrace,
    StepRecord,
    aggregate_traces,
    autoregressive_decode,
    decode,
    load_traces,
    save_traces,
)
from .kgram import (
    KGramModel,
    ModelCallCounter,
    fit_kgram,
    load_kgram,
    save_kgram,
)
from .model_db import ModelDB, build_model_db, load_model_db, save_model_db
from .stats_db import (
    StatsDB,
    build_stats_db,
    build_suffix_array,
    load_stats_db,
    save_stats_db,
)
from .verification import StepOutcome, verify_greedy, verify_sampling

__version__ = "0.1.0"

__all__ = [
    "AccessRecord",
    "ContextDB",
    "Corpus",
    "DatabaseSet",
    "DecodeConfig",
    "DecodeMetrics",
    "DecodeTrace",
    "DraftCandidate",
    "EOS",
    "HierarchyConfig",
    "KGramModel",
    "MethodSpec",
    "ModelCallCounter",
    "ModelDB",
    "SEP",
    "StatsDB",
    "StepOutcome",
    "StepRecord",
    "UNK",
    "Vocab",
    "accepted_events",
    "aggregate_traces",
    "autoregressive_decode",
    "build_model_db",
    "build_stats_db",
    "build_suffix_array",
    "build_vocab",
    "corpus_from_texts",
    "coverage_report",
    "decode",
    "detokenize",
    "fit_kgram",
    "hierarchical_draft",
    "load_corpus",
    "load_kgram",
    "load_model_db",
    "load_stats_db",
    "load_traces",
    "locality_stats",
    "run_bench",
    "save_kgram",
    "save_model_db",
    "save_stats_db",
    "save_traces",
    "tokenize",
    "verify_greedy",
    "verify_sampling",
]
