"""Every loader fails closed: a damaged file loads or raises ``ValueError``.

Small valid files of each on-disk format (HDKG, HDMD, HDSA, vocab) and a
trace file are truncated, bit-flipped, byte-replaced or partly overwritten
with garbage. A load may succeed, as a flip inside a count or a token id
can leave a well-formed file, but it may raise nothing other than
``ValueError``. A trace file that loads must also replay through
``aggregate_traces``.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierdraft import (
    SEP,
    DecodeConfig,
    HierarchyConfig,
    Vocab,
    aggregate_traces,
    build_model_db,
    build_stats_db,
    corpus_from_texts,
    decode,
    fit_kgram,
    load_kgram,
    load_model_db,
    load_stats_db,
    load_traces,
    save_kgram,
    save_model_db,
    save_stats_db,
    save_traces,
)

from conftest import fresh_dbs

LOADERS = {
    "hdkg": load_kgram,
    "hdmd": load_model_db,
    "hdsa": load_stats_db,
    "vocab": Vocab.load,
    "trace": load_traces,
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("formats")
    corpus = corpus_from_texts(["a b c a b d", "b c a d a b c", "d a b c"])
    model = fit_kgram(corpus, k=3, alpha=0.01)
    save_kgram(model, root / "hdkg")
    save_model_db(build_model_db(corpus, window=2), root / "hdmd")
    save_stats_db(build_stats_db(corpus), root / "hdsa")
    corpus.vocab.save(root / "vocab")
    config = DecodeConfig(max_tokens=6, hierarchy=HierarchyConfig(order="c"), trace=True)
    _, _, trace = decode(model, corpus.docs[0][:3], fresh_dbs(), config)
    save_traces([trace], root / "trace")
    for name, load in LOADERS.items():
        load(root / name)  # every undamaged file loads
    return {name: (root / name).read_bytes() for name in LOADERS}


def _damage(data: bytes, draw) -> bytes:
    at = draw(st.integers(0, len(data) - 1))
    kind = draw(st.sampled_from(["truncate", "bit-flip", "replace", "garbage"]))
    if kind == "truncate":
        return data[:at]
    if kind == "bit-flip":
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    if kind == "replace":
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    garbage = draw(st.binary(min_size=1, max_size=32))
    return data[:at] + garbage + data[at + len(garbage):]


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_value_error(originals, tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / f"damaged-{name}"
    path.write_bytes(_damage(originals[name], data.draw))
    try:
        loaded = LOADERS[name](path)
    except ValueError:
        return
    if name == "trace" and loaded:
        aggregate_traces(loaded)  # a trace file that loads replays


@pytest.mark.parametrize(
    "tokens, sa",
    [([], []), ([SEP], [0]), ([3, SEP], [1, 0])],
    ids=["empty", "one-sep", "one-final-sep"],
)
def test_hdsa_without_its_two_final_seps_is_rejected(tmp_path, tokens, sa):
    """The builder's text always ends with a document's SEP and the
    terminator. Shorter texts loaded as an index that answers nothing."""
    path = tmp_path / "short.hdsa"
    n = len(tokens)
    path.write_bytes(struct.pack(f"<4sIIQ{2 * n}I", b"HDSA", 1, 10, n, *tokens, *sa))
    with pytest.raises(ValueError, match="does not end with SEP SEP"):
        load_stats_db(path)
