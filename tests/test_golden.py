"""The same results: every corpus entry of tests/golden/ reproduces.

The corpus was written at one BLAS thread; this test runs at the
default thread count, whose results may differ in the last bits, so it
allows BOUND relative to each coefficient block's (or error column's)
largest value.  The widest 1- vs 2-thread difference on the corpus is
far below it.  GMRES iteration counts and the eigencheck text must
match exactly; they agree at 1 and 2 threads.  A change that means to
move results regenerates the corpus with tests/golden/generate.py and
says by how much.
"""

import importlib.util
import json
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

CORPUS = json.loads((GOLDEN / "corpus.json").read_text())
BOUND = 1e-15


def test_corpus_lists_every_entry():
    assert list(CORPUS) == list(generate.ENTRIES)
    assert all(entry["argv"] == generate.argv(*generate.ENTRIES[name]) for name, entry in CORPUS.items())


@pytest.mark.parametrize("name", list(CORPUS))
def test_entry_reproduces(name):
    entry = CORPUS[name]
    got = generate.results(entry["argv"])
    assert generate.largest_difference(entry, got) <= BOUND
