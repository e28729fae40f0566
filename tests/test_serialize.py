"""The document writer against its literal definition, and the reader's
error contract on broken subdivision documents."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsub.complexes import simplex
from flagsub.constructions import FIXTURE_NAMES, ball_to_sphere, example_complexes
from flagsub.errors import InvalidCarrier, MalformedInstance, UnknownVertex
from flagsub.harness import (
    EDGE_SUBDIVIDE,
    JOIN_WITH_S0,
    GeneratorSpec,
    random_flag_sphere,
    random_simplex_subdivision,
)
from flagsub.serialize import complex_to_doc, subdivision_from_doc, subdivision_to_doc
from flagsub.subdivisions import stellar_subdivision

from conftest import literal_complex_doc, literal_subdivision_doc


def _assert_writer_matches_literal(s):
    doc = subdivision_to_doc(s)
    want = literal_subdivision_doc(s)
    assert doc == want
    assert json.dumps(doc, indent=2) == json.dumps(want, indent=2)
    for K in (s.total, s.base):
        assert complex_to_doc(K) == literal_complex_doc(K)
        assert json.dumps(complex_to_doc(K), indent=2) == json.dumps(
            literal_complex_doc(K), indent=2
        )
    # No two entries share a list, so editing one leaves the rest.
    values = list(doc["carrier"].values())
    assert len({id(v) for v in values}) == len(values)
    assert subdivision_from_doc(json.loads(json.dumps(doc))) == s
    return doc


def test_writer_matches_literal_on_fixtures():
    for name in FIXTURE_NAMES:
        s = example_complexes(name)
        _assert_writer_matches_literal(s)
        _assert_writer_matches_literal(ball_to_sphere(s))


@st.composite
def _specs(draw):
    """Generator specs of both move sets.  Joins triple the face count,
    so trails that may join stay short."""
    moves = draw(st.sampled_from([(EDGE_SUBDIVIDE,), (EDGE_SUBDIVIDE, JOIN_WITH_S0)]))
    dim = draw(st.integers(2, 4))
    steps = draw(st.integers(0, 12 if len(moves) == 1 else 7 - dim))
    return GeneratorSpec(dim, steps, draw(st.integers(0, 10**6)), moves)


@settings(max_examples=40, deadline=None)
@given(_specs())
def test_writer_matches_literal_on_random_trails(spec):
    K, trail = random_flag_sphere(spec)
    _assert_writer_matches_literal(trail)
    assert complex_to_doc(K) == literal_complex_doc(K)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(0, 8), st.integers(0, 10**6))
def test_writer_matches_literal_on_simplex_subdivisions(n, steps, seed):
    s = random_simplex_subdivision(("q1", "q2", "q3", "q4")[:n], steps, seed)
    _assert_writer_matches_literal(s)
    _assert_writer_matches_literal(ball_to_sphere(s))


def test_keys_are_sorted_by_string_not_by_label():
    # String order ('', '10', '9', 'a', 'b') differs from label order.
    s = stellar_subdivision(simplex(["", "9", "10", "b"]), 0b1111, "a")
    assert s.total.labels == ("", "9", "10", "b", "a")
    doc = _assert_writer_matches_literal(s)
    assert list(doc["carrier"])[:8] == ["", "9", "10", "b", "a", ",9", ",10", "10,9"]
    assert doc["carrier"]["10,9"] == ["10", "9"]
    assert doc["carrier"]["a"] == ["", "10", "9", "b"]


# -- the reader's error contract -------------------------------------------


def _rem():
    return json.loads(json.dumps(subdivision_to_doc(example_complexes("rem-4.5"))))


def _rename(old, new):
    doc = _rem()
    doc["carrier"] = {(new if k == old else k): v for k, v in doc["carrier"].items()}
    return doc


def _put(key, value):
    doc = _rem()
    doc["carrier"][key] = value
    return doc


def _drop(key):
    doc = _rem()
    del doc["carrier"][key]
    return doc


def _not_a_list(key):
    return MalformedInstance, f"carrier of {key!r} must be a name list"


# Each broken document of the `rem-4.5` fixture, with the exception type
# and message the reader raises; the messages were recorded from the
# reader that parses every entry through `SimplicialComplex.mask`.
BROKEN = {
    "unknown-name-in-key": (
        lambda: _rename("v2,v4", "v2,zz"), (UnknownVertex, "unknown vertex 'zz'")
    ),
    "empty-key": (lambda: _rename("v4", ""), (UnknownVertex, "unknown vertex ''")),
    "zz-in-carrier-list": (
        lambda: _put("v4", ["v2", "zz"]), (UnknownVertex, "unknown vertex 'zz'")
    ),
    "non-string-in-carrier-list": (lambda: _put("v4", ["v2", 3]), _not_a_list("v4")),
    "list-in-carrier-list": (lambda: _put("v4", [["v2"], "v3"]), _not_a_list("v4")),
    "string-carrier-value": (lambda: _put("v4", "v2,v3"), _not_a_list("v4")),
    "object-carrier-value": (lambda: _put("v4", {"v2": 1}), _not_a_list("v4")),
    "null-carrier-value": (lambda: _put("v4", None), _not_a_list("v4")),
    "reordered-duplicate-key": (
        lambda: _put("v4,v2", ["v2", "v3"]),
        (MalformedInstance, "carrier key 'v4,v2' names a face twice"),
    ),
    "repeated-name-duplicate-key": (
        lambda: _put("v1,v1", ["v1"]),
        (MalformedInstance, "carrier key 'v1,v1' names a face twice"),
    ),
    "duplicate-key-with-bad-value": (
        lambda: _put("v3,v2", 7),
        (MalformedInstance, "carrier key 'v3,v2' names a face twice"),
    ),
    "missing-entry": (
        lambda: _drop("v3,v4"),
        (MalformedInstance, "carrier missing for 1 faces, first: ['v3', 'v4']"),
    ),
    "key-names-a-non-face": (
        lambda: _put("v1,v4", ["v1", "v2", "v3"]),
        (InvalidCarrier, "carrier defined on non-faces"),
    ),
    "non-monotone-carrier": (
        lambda: _put("v1,v2", ["v1", "v3"]),
        (InvalidCarrier, "carrier not monotone at ('v1', 'v2')"),
    ),
    "smaller-carrier": (
        lambda: _put("v2,v4", ["v2"]),
        (InvalidCarrier, "carrier of ('v2', 'v4') has smaller dimension"),
    ),
    "carrier-not-an-object": (
        lambda: dict(_rem(), carrier=[]),
        (MalformedInstance, "'carrier' must be an object"),
    ),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_reader_errors_are_pinned(case):
    make, (kind, message) = BROKEN[case]
    with pytest.raises(Exception) as info:
        subdivision_from_doc(make())
    assert type(info.value) is kind
    assert str(info.value) == message


def test_repeated_names_read_as_one_vertex():
    doc = _rename("v1", "v1,v1")
    doc["carrier"]["v4"] = ["v3", "v2", "v3"]
    assert subdivision_from_doc(doc) == example_complexes("rem-4.5")
