"""Hypothesis strategies that mutate decoded JSON documents, for the fuzz tests.

A mutation is (path, None) to delete the value at path, or (path, (value,))
to replace it. Replacements change a value's JSON type, write a number that
does not fit (1e400, NaN) or nest an array too deep for the decoder.
"""

import copy
import json

from hypothesis import strategies as st

#: tokens json.dumps cannot write; a mutation stores a placeholder string instead
RAW_TOKENS = ["1e400", "-1e400", "NaN", "Infinity", "[" * 5000 + "]" * 5000]

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


def locations(value, prefix=()):
    """The path of every value in a decoded document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from locations(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from locations(child, prefix + (index,))


def mutations(doc, max_size=3):
    """Lists of one to max_size mutations of doc."""
    one = st.tuples(
        st.sampled_from(list(locations(doc))), st.one_of(st.just(None), st.tuples(replacement))
    )
    return st.lists(one, min_size=1, max_size=max_size)


def mutate(doc, changes, indent=None) -> str:
    """doc with each (path, None: delete | (value,)) applied, as JSON text."""
    doc = copy.deepcopy(doc)
    for path, change in changes:
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
    text = json.dumps(doc, indent=indent)
    for i, token in enumerate(RAW_TOKENS):
        text = text.replace(json.dumps(f"\x00raw{i}\x00"), token)
    return text
