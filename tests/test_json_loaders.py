"""Property tests of the spec and config JSON loaders: with one field, at
any depth, replaced by a small JSON value, a loader returns an object that
writes back to its input, or raises ValidationError. Nothing is generated
or trained, so fuzzed sizes allocate nothing."""

import copy
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from boda.datagen import spec_from_dict, spec_to_dict
from boda.errors import ValidationError
from boda.trainer import TrainConfig, config_from_dict, config_to_dict

from conftest import tiny_spec

SPEC = spec_to_dict(dataclasses.replace(tiny_spec(seed=5),
                                        zero_pairs=frozenset({(1, 2)})))
CONFIG = config_to_dict(TrainConfig())

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def paths(value, prefix=()):
    """The path of ``value`` and of every field and item inside it."""
    yield prefix
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from paths(inner, prefix + (key,))


def replaced(document, path, value):
    if not path:
        return value
    out = copy.deepcopy(document)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def edits(document):
    return st.tuples(st.sampled_from(list(paths(document))), JSON_VALUES)


# derandomize: the same examples on every run; about 1 s for both
FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


@FUZZ
@given(edits(SPEC))
def test_spec_loader_accepts_exactly_or_rejects(edit):
    data = replaced(SPEC, *edit)
    try:
        spec = spec_from_dict(copy.deepcopy(data))
    except ValidationError:
        return
    out = spec_to_dict(spec)
    # zero_pairs is a set: written back sorted, without repeats
    assert {tuple(p) for p in out.pop("zero_pairs")} \
        == {tuple(p) for p in data.pop("zero_pairs", [])}
    assert out == data


@FUZZ
@given(edits(CONFIG))
def test_config_loader_accepts_exactly_or_rejects(edit):
    data = replaced(CONFIG, *edit)
    try:
        cfg = config_from_dict(copy.deepcopy(data))
    except ValidationError:
        return
    assert config_to_dict(cfg) == data
