"""Every loader fails closed on a damaged file.

Small valid files of each on-disk format (HDKG, HDMD, HDSA, vocab) and a
trace file are truncated, bit-flipped, byte-replaced or partly overwritten
with garbage. HDKG, HDMD and HDSA files carry a CRC32 over every byte past
it, so each of them whose bytes differ from the original must raise
``ValueError``; with its CRC restamped, it may load or raise
``ValueError``, so the checks past the CRC are tried too. A vocab or
trace file may still load, as a changed letter can leave a well-formed
file, but it may raise nothing other than ``ValueError``, and a trace
file that loads must also replay through ``aggregate_traces``.
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

from conftest import container, fresh_dbs, restamp

# The formats whose every damaged file must raise.
CHECKSUMMED = {"hdkg", "hdmd", "hdsa"}
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
    damaged = _damage(originals[name], data.draw)
    path.write_bytes(damaged)
    if name in CHECKSUMMED and damaged != originals[name]:
        with pytest.raises(ValueError):
            LOADERS[name](path)
        # Past a restamped CRC, the checks behind it still fail closed.
        path.write_bytes(restamp(damaged) if len(damaged) >= 12 else damaged)
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
    arrays = [struct.pack(f"<{n}I", *tokens), struct.pack(f"<{n}I", *sa)]
    path.write_bytes(container(b"HDSA", 2, struct.pack("<I", 10), arrays))
    with pytest.raises(ValueError, match="does not end with SEP SEP"):
        load_stats_db(path)


def _v1_hdkg() -> bytes:
    """A v1 HDKG file of one unigram table: header, then per order a
    ``u64`` table count and each table's head and entries."""
    return b"HDKG" + struct.pack("<IIIdQIIQ", 1, 1, 5, 0.5, 1, 1, 3, 2)


def _v1_hdsa() -> bytes:
    """A v1 HDSA file of the text [3, SEP, SEP]."""
    return struct.pack("<4sIIQ6I", b"HDSA", 1, 5, 3, 3, SEP, SEP, 2, 1, 0)


@pytest.mark.parametrize(
    "name, data, match",
    [
        ("hdkg", _v1_hdkg(), "^unsupported k-gram model file: version 1$"),
        ("hdsa", _v1_hdsa(), "^unsupported stats-db file: version 1$"),
        ("hdmd", b'{"magic":"HDMD","version":1,"m":1,"records":1}\n'
                 b'{"key":3,"values":[[4]],"counts":[2]}\n', "^unsupported model-db file"),
    ],
    ids=["hdkg", "hdsa", "hdmd-json-lines"],
)
def test_a_v1_file_is_refused(tmp_path, name, data, match):
    """Nothing falls back to reading the v1 formats. A v1 HDKG or HDSA
    file is refused by its version; a v1 HDMD file was JSON lines, whose
    first bytes are no magic."""
    path = tmp_path / f"v1.{name}"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        LOADERS[name[:4]](path)
