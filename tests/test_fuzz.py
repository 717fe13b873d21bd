"""Fuzzing of the JSON loaders and the command line.

Every document below starts from a valid map or GPR-graph and gets one
mutation: a field of the wrong type or missing, a row of the wrong
length, a non-bijection, an out-of-range entry or base flag, a rank of
0 or 1, or deep nesting. The loaders must answer with a ``SchemaError``
or a loaded object, and the commands with an exit code, never a
traceback.
"""

import copy
import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chirex.cli import EXIT_IO, EXIT_OK, EXIT_PRECONDITION, main
from chirex.extend_db import extend_dually_bipartite
from chirex.serial import (SchemaError, gpr_from_json, gpr_to_json, maniplex_from_json,
                           maniplex_to_json, save_json)
from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient

# the keys of each document: (size field, rows field, every field)
MAP_KEYS = ("flags", "adjacency", ("rank", "flags", "adjacency", "base_flag"))
GPR_KEYS = ("vertices", "arrows", ("vertices", "rank", "arrows"))

# documents that load but have no facets to extend or check against
RANK_0_AND_1 = {
    MAP_KEYS: [{"rank": 0, "flags": 1, "adjacency": [], "base_flag": 0},
               {"rank": 1, "flags": 2, "adjacency": [[1, 0]], "base_flag": 0}],
    GPR_KEYS: [{"vertices": 1, "rank": 0, "arrows": []},
               {"vertices": 1, "rank": 1, "arrows": [[0]]}],
}

NEST = "@nest@"  # replaced in the file text by deeply nested brackets

junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                 st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@functools.cache
def documents():
    """The {4,4}_(3,1) map, its extension at s = 1 and its regular quotient."""
    K = build_toroidal_map(TorusParams("44", 3, 1))
    R = regular_quotient(TorusParams("44", 3, 1)).rooted
    return (maniplex_to_json(K), gpr_to_json(extend_dually_bipartite(K, 1).graph),
            maniplex_to_json(R))


def mutate(data, doc: dict, keys) -> tuple[object, int]:
    """One mutation of a valid document, and the nesting depth that
    replaces NEST when it is written as text (0 for none)."""
    size, rows_key, fields = keys
    doc = copy.deepcopy(doc)
    n = doc[size]
    rows = doc[rows_key]
    r = data.draw(st.integers(0, len(rows) - 1))
    i = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from([
        "field-type", "field-missing", "not-an-object", "entry-type", "row-length",
        "row-count", "non-bijection", "out-of-range", "size", "rank", "base-flag",
        "rank-0-or-1", "nesting"]))
    if kind == "field-type":
        doc[data.draw(st.sampled_from(fields))] = data.draw(junk)
    elif kind == "field-missing":
        del doc[data.draw(st.sampled_from(fields))]
    elif kind == "not-an-object":
        doc = data.draw(st.one_of(junk.filter(lambda v: not isinstance(v, dict)),
                                  st.just([doc])))
    elif kind == "entry-type":
        rows[r][i] = data.draw(junk.filter(lambda v: type(v) is not int))
    elif kind == "row-length":
        if data.draw(st.booleans()):
            rows[r].pop()
        else:
            rows[r].append(data.draw(st.integers(0, n - 1)))
    elif kind == "row-count":
        if data.draw(st.booleans()):
            rows.pop()
        else:
            rows.append(list(rows[r]))
    elif kind == "non-bijection":
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        rows[r][i] = rows[r][j]
    elif kind == "out-of-range":
        rows[r][i] = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=n)))
    elif kind == "size":
        doc[size] = data.draw(st.integers().filter(lambda v: v != n))
    elif kind == "rank":
        doc["rank"] = data.draw(st.integers().filter(lambda v: v != len(rows)))
    elif kind == "base-flag" and "base_flag" in doc:
        doc["base_flag"] = data.draw(st.one_of(st.integers(max_value=-1),
                                               st.integers(min_value=n)))
    elif kind == "rank-0-or-1":
        doc = copy.deepcopy(data.draw(st.sampled_from(RANK_0_AND_1[keys])))
    else:  # nesting: in place of a field, a row or an entry
        where = data.draw(st.sampled_from(["field", "row", "entry"]))
        if where == "field":
            doc[data.draw(st.sampled_from(fields))] = NEST
        elif where == "row":
            rows[r] = NEST
        else:
            rows[r][i] = NEST
        return doc, data.draw(st.sampled_from([2, 50, 5000, 100000]))
    return doc, 0


def nested(doc, depth: int):
    """The document with NEST replaced by ``depth`` nested lists."""
    deep = []
    for _ in range(depth - 1):
        deep = [deep]
    return _replace(doc, deep)


def _replace(value, deep):
    if value == NEST:
        return deep
    if isinstance(value, dict):
        return {k: _replace(v, deep) for k, v in value.items()}
    if isinstance(value, list):
        return [_replace(v, deep) for v in value]
    return value


def write(path, doc, depth: int) -> None:
    text = json.dumps(doc)
    path.write_text(text.replace(json.dumps(NEST), "[" * depth + "]" * depth))


def loads(loader, doc) -> bool:
    """True if the loader accepts the document; any error but a
    SchemaError fails the test."""
    try:
        loader(doc)
    except SchemaError:
        return False
    return True


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoaders:
    @FUZZ
    @given(st.data())
    def test_maniplex_from_json(self, data):
        doc, depth = mutate(data, documents()[0], MAP_KEYS)
        if loads(maniplex_from_json, nested(doc, depth)):
            assert doc in RANK_0_AND_1[MAP_KEYS]

    @FUZZ
    @given(st.data())
    def test_gpr_from_json(self, data):
        doc, depth = mutate(data, documents()[1], GPR_KEYS)
        if loads(gpr_from_json, nested(doc, depth)):
            assert doc in RANK_0_AND_1[GPR_KEYS]

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(junk, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.sampled_from(
            ["rank", "flags", "adjacency", "base_flag", "vertices", "arrows"]), inner,
            max_size=4)), max_leaves=12))
    def test_arbitrary_json(self, value):
        assert not loads(maniplex_from_json, value)
        assert not loads(gpr_from_json, value)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The three valid documents as files, and the path mutations go to."""
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, doc in zip(("k.json", "ext.json", "r.json"), documents()):
        save_json(str(folder / name), doc)
        paths.append(folder / name)
    return paths, folder


class TestCli:
    """A document that fails the schema exits 4; one that loads (rank 1)
    has nothing to extend, or is a quotient of the wrong rank, and exits 3."""

    @FUZZ
    @given(st.data())
    def test_commands(self, inputs, data):
        (facet, ext, quotient), folder = inputs
        bad = folder / "bad.json"
        out = str(folder / "out.json")
        command, slot = data.draw(st.sampled_from([
            ("extend-db", "facet"), ("verify-gpr", "facet"), ("verify-gpr", "ext"),
            ("mix-extend", "facet"), ("mix-extend", "ext"), ("mix-extend", "quotient")]))
        keys = GPR_KEYS if slot == "ext" else MAP_KEYS
        source = documents()[("facet", "ext", "quotient").index(slot)]
        doc, depth = mutate(data, source, keys)
        write(bad, doc, depth)
        paths = {"facet": facet, "ext": ext, "quotient": quotient, slot: bad}
        if command == "extend-db":
            argv = ["extend-db", str(paths["facet"]), "--s", "1", "-o", out]
        elif command == "verify-gpr":
            argv = ["verify-gpr", str(paths["ext"]), "--facet", str(paths["facet"])]
        else:
            argv = ["mix-extend", "--extension", str(paths["ext"]), "--facet",
                    str(paths["facet"]), "--quotient", str(paths["quotient"]), "--s", "2"]
        code = main(argv)
        if doc in RANK_0_AND_1[keys][1:]:
            assert code == EXIT_PRECONDITION
        else:
            assert code == EXIT_IO, (argv, doc if depth == 0 else depth)

    @FUZZ
    @given(st.data())
    def test_arguments(self, inputs, data):
        # small integers (|v| <= 4, so nothing large is built) and strings
        # that are no integers, for every numeric option of the commands
        # that build: each run ends in success, a precondition or a usage
        # error, never a verification failure
        (facet, ext, quotient), folder = inputs
        value = st.one_of(st.integers(-4, 4).map(str),
                          st.text(max_size=3).filter(lambda v: not _is_int(v)))
        out = str(folder / "out.json")
        command = data.draw(st.sampled_from(["extend-db", "two-sm", "mix-extend", "pipeline"]))
        if command == "extend-db":
            argv = ["extend-db", str(facet), "--s", data.draw(value), "-o", out]
        elif command == "two-sm":
            source = data.draw(st.sampled_from([facet, quotient]))
            argv = ["two-sm", str(source), "--s", data.draw(value), "-o", out]
        elif command == "mix-extend":
            argv = ["mix-extend", "--extension", str(ext), "--facet", str(facet),
                    "--quotient", str(quotient), "--s", data.draw(value)]
        else:
            argv = ["pipeline", "--family", data.draw(st.sampled_from(["44", "36", "63"])),
                    "--b", data.draw(value), "--c", data.draw(value),
                    "--db-s", data.draw(value)]
            if data.draw(st.booleans()):
                argv += ["--mix-s", data.draw(value)]
        assert main(argv) in (EXIT_OK, EXIT_PRECONDITION, EXIT_IO), argv


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True
