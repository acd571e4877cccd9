"""``render(report, "json")`` is ``json.dumps(report, indent=2, sort_keys=True)``.

The renderer walks containers in Python only down to the first one that
holds nothing but scalars and hands that one to json's C encoder. The oracle
is the call it replaces, whose ``indent`` runs json's pure-Python encoder.
The trees below mix every type that call accepts (non-``str`` keys, NaN and
infinities, non-ASCII strings, tuples, empty containers, ``int`` and
``float`` subclasses such as ``np.float64``), and the trees it refuses must
be refused with the same exception type. Text and TSV are checked against
the walk they replace, which encodes one leaf at a time.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brieskorn import cli
from brieskorn.cli import render


def oracle(tree) -> str:
    return json.dumps(tree, indent=2, sort_keys=True)


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


class Measure(float):
    def __repr__(self):  # json writes float.__repr__, never this
        return "Measure(...)"


_floats = st.floats(allow_nan=True, allow_infinity=True)
_text = st.text(st.characters(blacklist_categories=()), max_size=6)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**30), 10**30), _floats, _text,
    _floats.map(np.float64), _floats.map(Measure), st.sampled_from(list(Level)),
)
# keys of one dict must compare with each other for sort_keys
_key_kinds = st.sampled_from([
    st.text(max_size=4),
    _text,
    st.one_of(st.integers(-50, 50), st.booleans(), _floats, _floats.map(np.float64),
              st.sampled_from(list(Level))),
    st.none(),
])


def _containers(children):
    dicts = _key_kinds.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5))
    return st.one_of(dicts, st.lists(children, max_size=5),
                     st.lists(children, max_size=4).map(tuple))


_plain_trees = st.recursive(_scalars, _containers, max_leaves=40)
# one container object, empty or not, of scalars or not, that a tree holds
# at any number of places and depths
_shared = st.one_of(_containers(_scalars), _containers(_plain_trees))
_trees = st.one_of(
    _plain_trees,
    _shared.flatmap(lambda shared: st.recursive(
        st.one_of(_scalars, st.just(shared)), _containers, max_leaves=20)),
)

# shared containers for the explicit examples
_FLAT = {"-2": 10, "-4": 11, "é": "a\nb"}
_NESTED = {"a": [1, {"b": 2.5}], "c": {}, "d": _FLAT}
_EMPTY: dict = {}
_PAIR = [1, "x"]
_SHARED_EXAMPLES = [
    {"homology": {"dims": _FLAT}, "oracle": _FLAT},   # depths 2 and 1
    {"x": _FLAT, "y": _FLAT, "z": [[_FLAT]]},         # equal depths, then deeper
    [_NESTED, {"k": _NESTED}, _NESTED, _FLAT],
    {"e": _EMPTY, "f": [_EMPTY, ()], "g": _EMPTY},
    [_PAIR, [_PAIR, (_PAIR,)], {"p": _PAIR}],
]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_trees)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": ()})
@example({"dims": {"-10": 1, "-2": 3}, "x": [[1, 2], [3]], "é": "ü\n\"", "n": None})
@example({2.5: [math.nan, -math.inf], 1: {True: "t", 0.5: -0.0}, math.nan: ()})
@example([np.float64(0.1), Measure(1e300), Level.HIGH, {"k": np.float64(-0.0)}])
@example({None: {"z": 1, "a": {"m": [1, {"q": math.inf}]}}})
@example(_SHARED_EXAMPLES[0])
@example(_SHARED_EXAMPLES[1])
@example(_SHARED_EXAMPLES[2])
@example(_SHARED_EXAMPLES[3])
@example(_SHARED_EXAMPLES[4])
def test_render_equals_json_dumps_with_indent(tree):
    assert render(tree, "json") == oracle(tree)


_refused = [
    {"a": 1, 2: 3},                      # keys that do not sort
    {"a": {"b": 1}, 2: 3},
    {(1, 2): "tuple key"},
    {"x": {(1, 2): [1]}},
    {np.int64(3): 1},                    # not an int subclass
    {"v": np.int64(3)},
    {"v": [1, {2, 3}]},
    [object()],
    {"v": np.bool_(True)},
]


@pytest.mark.parametrize("tree", _refused, ids=range(len(_refused)))
def test_render_refuses_what_json_dumps_refuses(tree):
    with pytest.raises(Exception) as expected:
        oracle(tree)
    with pytest.raises(expected.type):
        render(tree, "json")


def test_render_refuses_a_circular_report():
    inner: dict = {"n": 1}
    tree = {"a": [inner, 2], "flat": _FLAT}
    inner["loop"] = tree
    inner["flat"] = _FLAT  # shared, not circular: met again, written again
    for cycle in (tree, [tree], {"list": (lambda x: (x.append(x), x)[1])([1])}):
        with pytest.raises(ValueError, match="Circular reference detected"):
            oracle(cycle)
        with pytest.raises(ValueError, match="Circular reference detected"):
            render(cycle, "json")


def test_flat_containers_go_to_the_c_encoder_whole(monkeypatch):
    # a deep report walks only the few containers above its dims dicts
    walked = []
    real = cli._indented

    def counting(node, *args):
        walked.append(type(node).__name__)
        return real(node, *args)

    monkeypatch.setattr(cli, "_indented", counting)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare",
                                         grading_floor=-4000))
    assert code == cli.EXIT_OK and len(report["oracle"]) == 2000
    assert render(report, "json") == oracle(report)
    assert len(walked) < 40


def leaves_one_by_one(node, path=""):
    """(path, compact JSON) per leaf, one generator frame and one encoder
    call per leaf: the text and TSV walk before dicts of scalars went to the
    C encoder whole."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from leaves_one_by_one(child, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list) and any(isinstance(child, dict) for child in node):
        for i, child in enumerate(node):
            yield from leaves_one_by_one(child, f"{path}[{i}]")
    else:
        yield path, json.dumps(node, separators=(",", ":"))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_trees)
@example({"s": "\x1e\x1f", "t": ["\x1e"], "u": {"v": "a\x1eb", "w": 1.5}})
@example({"dims": {"-10": 1, "-2": 3}, "x": [[1, 2], [3]], "é": "ü\n\"", "n": None})
@example({2.5: [math.nan, -math.inf], 1: {True: "t", 0.5: -0.0}, math.nan: ()})
@example([{"a": np.float64(0.1), "b": Measure(1e300), "c": Level.HIGH}, 3])
@example(_SHARED_EXAMPLES[0])
@example(_SHARED_EXAMPLES[1])
@example(_SHARED_EXAMPLES[2])
@example(_SHARED_EXAMPLES[3])
@example(_SHARED_EXAMPLES[4])
def test_text_and_tsv_print_one_line_per_leaf(tree):
    for fmt, separator in (("tsv", "\t"), ("text", " = ")):
        expected = "\n".join(f"{path}{separator}{value}"
                             for path, value in leaves_one_by_one(tree))
        assert render(tree, fmt) == expected


def test_text_walk_hands_dicts_of_scalars_to_the_c_encoder(monkeypatch):
    # a deep report's thousands of dims leaves cost no Python call each
    walked = []
    real = cli._leaf_lines

    def counting(node, path, *args):
        walked.append(path)
        return real(node, path, *args)

    monkeypatch.setattr(cli, "_leaf_lines", counting)
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare",
                                         grading_floor=-4000))
    assert code == cli.EXIT_OK and len(report["oracle"]) == 2000
    lines = render(report, "tsv").splitlines()
    assert len(lines) > 4000 and "oracle.-2\t10" in lines
    assert len(walked) < 40


class _CountingEncoder:
    """Stands for a C encoder and records the size of each container it encodes."""

    def __init__(self, real, sizes):
        self.real, self.sizes = real, sizes

    def encode(self, node):
        self.sizes.append(len(node))
        return self.real.encode(node)


def test_agreeing_dims_are_one_dict_encoded_once_per_render(monkeypatch):
    code, report = cli.run(cli.RunConfig(exponents=[2, 3, 7], mode="compare",
                                         grading_floor=-4000))
    assert code == cli.EXIT_OK and len(report["oracle"]) == 2000
    assert report["oracle"] is report["homology"]["dims"]
    expected = {fmt: "\n".join(f"{path}{separator}{value}"
                               for path, value in leaves_one_by_one(report))
                for fmt, separator in (("tsv", "\t"), ("text", " = "))}
    expected["json"] = oracle(report)

    sizes: list[int] = []
    real_flat = cli._flat_encoder
    monkeypatch.setattr(cli, "_flat_encoder",
                        lambda depth: _CountingEncoder(real_flat(depth), sizes))
    monkeypatch.setattr(cli, "_RECORD_ENCODER",
                        _CountingEncoder(cli._RECORD_ENCODER, sizes))
    for fmt in cli.FORMATS:
        sizes.clear()
        same = render(report, fmt) == expected[fmt]  # no diff of two long texts
        assert same and [size for size in sizes if size >= 100] == [2000], fmt
