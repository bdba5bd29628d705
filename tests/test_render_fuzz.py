"""render on mutated matrix files: exit 0 or 2, never a traceback, no stray SVG.

Each example takes the golden matrix_XX.json, changes a few of its values to
another JSON type, to a number that does not fit (1e400, NaN) or to an array
nested too deep for the decoder, or deletes keys, and runs the render command
in-process on the result.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyeball_jedi.cli import EXIT_INPUT, EXIT_OK, main

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "matrix_XX.json"
DOC = json.loads(GOLDEN.read_text(encoding="utf-8"))

#: tokens json.dumps cannot write; a mutation stores a placeholder string instead
RAW_TOKENS = ["1e400", "-1e400", "NaN", "Infinity", "[" * 5000 + "]" * 5000]


def locations(value, prefix=()):
    """The path of every value in a decoded document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from locations(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from locations(child, prefix + (index,))


LOCATIONS = list(locations(DOC))

replacement = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from(range(len(RAW_TOKENS))).map(lambda i: f"\x00raw{i}\x00"),
)
mutation = st.tuples(st.sampled_from(LOCATIONS), st.one_of(st.just(None), st.tuples(replacement)))


def mutate(mutations) -> str:
    """The golden document with each (path, None: delete | (value,)) applied, as text."""
    doc = copy.deepcopy(DOC)
    for path, change in mutations:
        if not path:
            if change is not None:
                doc = change[0]
            continue
        parent = doc
        try:
            for step in path[:-1]:
                parent = parent[step]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed this location
        if change is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = change[0]
    text = json.dumps(doc, indent=2)
    for i, token in enumerate(RAW_TOKENS):
        text = text.replace(json.dumps(f"\x00raw{i}\x00"), token)
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("render_fuzz")
    out_dir = root / "out"
    out_dir.mkdir()
    conf = root / "run.conf"
    conf.write_text(f"out_dir = {out_dir}\n", encoding="utf-8")
    return conf, out_dir


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(mutation, min_size=1, max_size=3))
def test_render_never_raises_on_a_mutated_matrix(workdir, mutations):
    conf, out_dir = workdir
    for stale in out_dir.iterdir():
        stale.unlink()
    (out_dir / "matrix_XX.json").write_text(mutate(mutations), encoding="utf-8")
    code = main(["render", "--config", str(conf), "--country", "XX"])
    assert code in (EXIT_OK, EXIT_INPUT)
    written = sorted(p.name for p in out_dir.iterdir())
    if code == EXIT_INPUT:
        assert written == ["matrix_XX.json"]
    else:
        assert written == ["matrix_XX.json", "matrix_XX.svg"]
