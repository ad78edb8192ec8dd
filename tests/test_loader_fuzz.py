"""The CLI on random graph and complex JSON: every input exits 0, 3, 4 or 5.

The inputs are well-formed documents, some with repeated edges or facets,
and the same with up to two mutations: values of the wrong type, negative,
zero or huge, missing keys, out-of-range indices, a repeated color, a
broken antichain, a wrong dim, a huge color, or a document that is not an
object; and text that is not JSON. A command may exit 0 only on a document
that ``valid_graph`` or ``valid_complex`` accepts; those follow the JSON
formats in the README and share no code with the loaders. Each example has
a deadline of a few seconds and the module runs with at most 1 GiB more
address space than it started with, so a size that slips past the caps
shows as a failure, not as a hang or a machine out of memory.
"""

import contextlib
import io
import json
import resource
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balrig.cli import main

@pytest.fixture(autouse=True, scope="module")
def bounded_memory():
    status = Path("/proc/self/status")
    if not status.exists():
        yield
        return
    size_kb = next(int(line.split()[1]) for line in status.read_text().splitlines() if line.startswith("VmSize:"))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size_kb * 1024 + (1 << 30)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


#: Values that are wrong for every key: other JSON types, and integers that
#: are negative, zero or huge.
BAD = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    st.sampled_from([-1, 0, 10**8, 10**30]),
)


def is_int(x) -> bool:
    return type(x) is int


def is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(is_int, x))


def valid_graph(data) -> bool:
    if not (isinstance(data, dict) and {"a_size", "b_size", "edges"} <= set(data)):
        return False
    a, b, edges = data["a_size"], data["b_size"], data["edges"]
    return (
        is_int(a) and is_int(b) and a >= 0 and b >= 0
        and isinstance(edges, list)
        and all(is_pair(e) and 1 <= e[0] <= a and 1 <= e[1] <= b for e in edges)
    )


def valid_complex(data) -> bool:
    if not (isinstance(data, dict) and {"color_sizes", "facets"} <= set(data)):
        return False
    sizes, facets = data["color_sizes"], data["facets"]
    if not (isinstance(sizes, list) and all(is_int(s) and s >= 0 for s in sizes)):
        return False
    if not (isinstance(facets, list) and facets and all(isinstance(f, list) for f in facets)):
        return False
    faces = set()
    for f in facets:
        if not all(is_pair(v) and 1 <= v[0] <= len(sizes) and 1 <= v[1] <= sizes[v[0] - 1] for v in f):
            return False
        if len({c for c, _ in f}) != len(f):
            return False
        faces.add(frozenset(map(tuple, f)))
    if any(f < h for f in faces for h in faces):
        return False
    dim = max(map(len, faces)) - 1
    return "dim" not in data or (is_int(data["dim"]) and data["dim"] == dim)


def append(data: dict, key: str, item) -> None:
    """Append ``item`` to ``data[key]``, which an earlier mutation may have
    dropped or replaced."""
    items = data.get(key)
    data[key] = (items if isinstance(items, list) else []) + [item]


def spoiled(draw, data: dict, items: str, mutations) -> object:
    """``data`` with 0-2 mutations: a key set to a bad value or dropped, an
    entry of ``data[items]`` replaced, a mutation from ``mutations``, or the
    whole document replaced by a bad value."""
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("key", "drop", "item", "extra", "top")))
        if kind == "top":
            return draw(BAD)
        if not isinstance(data, dict):
            break
        if kind == "key":
            data[draw(st.sampled_from(sorted(data)))] = draw(BAD)
        elif kind == "drop":
            data.pop(draw(st.sampled_from(sorted(data))))
        elif kind == "item" and isinstance(data.get(items), list) and data[items]:
            index = draw(st.integers(0, len(data[items]) - 1))
            data[items][index] = draw(st.one_of(BAD, st.lists(BAD, max_size=3)))
        elif kind == "extra":
            draw(mutations)(data)
    return data


@st.composite
def graph_documents(draw):
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    pairs = [[i, j] for i in range(1, a + 1) for j in range(1, b + 1)]
    # sampling with replacement repeats edges at times
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8)) if pairs else []

    def out_of_range(data):
        append(data, "edges", [a + 1, 1])

    return spoiled(draw, {"a_size": a, "b_size": b, "edges": edges}, "edges", st.just(out_of_range))


@st.composite
def complex_documents(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    faces = set()
    for _ in range(draw(st.integers(1, 5))):
        colors = draw(st.lists(st.integers(1, len(sizes)), unique=True, max_size=len(sizes)))
        faces.add(frozenset((c, draw(st.integers(1, sizes[c - 1]))) for c in colors))
    facets = [sorted(map(list, f)) for f in faces if not any(f < h for h in faces)]
    # sampling with replacement repeats facets at times
    facets += draw(st.lists(st.sampled_from(facets), max_size=2))
    # a copy: a spoiled entry of data["facets"] must not reach the
    # mutations below, which read the drawn facets
    data = {"color_sizes": sizes, "facets": list(facets)}
    if draw(st.booleans()):
        data["dim"] = max(map(len, facets)) - 1

    def subface(data):  # breaks the antichain unless the facet is empty
        append(data, "facets", facets[0][1:])

    def repeated_color(data):
        append(data, "facets", [[1, 1], [1, 1]])

    def out_of_range(data):
        append(data, "facets", [[1, sizes[0] + 1]])

    def wrong_dim(data):
        data["dim"] = len(sizes) + 1

    def huge_color(data):  # valid, but over the caps
        data["color_sizes"] = [10**8] + sizes[1:]

    mutations = st.sampled_from((subface, repeated_color, out_of_range, wrong_dim, huge_color))
    return spoiled(draw, data, "facets", mutations)


def run(argv, document) -> int:
    text = document if isinstance(document, str) else json.dumps(document)
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


GRAPH_COMMANDS = [
    ["analyze", "--graph", "-", "-k", "2", "-l", "2"],
    ["analyze", "--graph", "-", "-k", "100000000", "-l", "1"],
    ["shift", "--graph", "-"],
    ["laman", "--graph", "-", "-k", "1", "-l", "1"],
]
COMPLEX_COMMANDS = [["shift", "--complex", "-"], ["mcheck", "--complex", "-", "-l", "2"]]


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(graph_documents(), st.sampled_from(GRAPH_COMMANDS))
def test_graph_documents_exit_with_a_documented_code(document, argv):
    code = run(argv, document)
    assert code in (0, 3, 4, 5)
    if code == 0:
        assert valid_graph(document)


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(complex_documents(), st.sampled_from(COMPLEX_COMMANDS))
def test_complex_documents_exit_with_a_documented_code(document, argv):
    code = run(argv, document)
    assert code in (0, 3, 4, 5)
    if code == 0:
        assert valid_complex(document)


@settings(max_examples=30, deadline=timedelta(seconds=5))
@given(st.text(max_size=20), st.sampled_from(GRAPH_COMMANDS + COMPLEX_COMMANDS))
def test_text_that_is_not_json_exits_3(text, argv):
    try:
        json.loads(text)
    except ValueError:
        assert run(argv, text) == 3
