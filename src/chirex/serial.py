"""JSON round-tripping for maniplexes, GPR-graphs and reports.

Serialization is canonical (sorted keys, fixed separators) so that a
round trip reproduces files byte for byte. Loaders re-validate what
they read and raise :class:`SchemaError` with a field diagnostic.
"""

from __future__ import annotations

import json
from typing import Any

from .gpr import GprGraph
from .maniplex import Maniplex, RootedManiplex, validate
from .permcore import Perm


class SchemaError(ValueError):
    """A file does not match the expected JSON shape or invariants."""


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _require(data: dict, field: str, kind) -> Any:
    if not isinstance(data, dict):
        raise SchemaError("expected a JSON object, got %s" % type(data).__name__)
    if field not in data:
        raise SchemaError("missing field %r" % field)
    value = data[field]
    if not isinstance(value, kind) or (kind is int and not _is_int(value)):
        raise SchemaError("field %r: expected %s, got %s"
                          % (field, kind.__name__, type(value).__name__))
    return value


def _int_list(values, length: int, field: str) -> list[int]:
    if not isinstance(values, list) or len(values) != length:
        raise SchemaError("field %r: expected a list of %d integers" % (field, length))
    if not all(_is_int(v) for v in values):
        raise SchemaError("field %r: non-integer entry" % field)
    return values


def maniplex_to_json(M: RootedManiplex) -> dict:
    man = M.maniplex
    return {
        "rank": man.rank,
        "flags": man.num_flags,
        "adjacency": [list(r.images) for r in man.adjacency],
        "base_flag": M.base_flag,
    }


def maniplex_from_json(data: dict) -> RootedManiplex:
    rank = _require(data, "rank", int)
    flags = _require(data, "flags", int)
    adjacency = _require(data, "adjacency", list)
    base = _require(data, "base_flag", int)
    if rank < 1:
        raise SchemaError("rank must be at least 1, got %d" % rank)
    if len(adjacency) != rank:
        raise SchemaError("adjacency needs %d rows, found %d" % (rank, len(adjacency)))
    perms = []
    for i, row in enumerate(adjacency):
        images = _int_list(row, flags, "adjacency[%d]" % i)
        try:
            p = Perm(images)
        except ValueError as exc:
            raise SchemaError("adjacency[%d]: %s" % (i, exc)) from exc
        perms.append(p)
    if not 0 <= base < flags:
        raise SchemaError("base_flag out of range")
    man = Maniplex(rank=rank, adjacency=tuple(perms))
    report = validate(man)
    if not report.passed:
        raise SchemaError("maniplex axioms fail on load: %s" % ", ".join(report.failing()))
    return RootedManiplex(man, base)


def gpr_to_json(G: GprGraph) -> dict:
    return {
        "vertices": G.num_vertices,
        "rank": G.rank,
        "arrows": [list(a.images) for a in G.arrows],
    }


def gpr_from_json(data: dict) -> GprGraph:
    vertices = _require(data, "vertices", int)
    rank = _require(data, "rank", int)
    arrows_raw = _require(data, "arrows", list)
    if rank < 1 or vertices < 1:
        raise SchemaError("rank and vertices must be at least 1, got %d and %d"
                          % (rank, vertices))
    if len(arrows_raw) != rank:
        raise SchemaError("arrows needs %d rows, found %d" % (rank, len(arrows_raw)))
    arrows = []
    for k, row in enumerate(arrows_raw):
        images = _int_list(row, vertices, "arrows[%d]" % k)
        try:
            arrows.append(Perm(images))
        except ValueError as exc:
            raise SchemaError("arrows[%d]: %s" % (k, exc)) from exc
    return GprGraph(rank=rank, arrows=tuple(arrows))


def report_to_json(construction: str, params: dict, verdicts,
                   orders: dict | None = None, schlafli=None,
                   timing: float | None = None) -> dict:
    out = {
        "construction": construction,
        "params": params,
        "verdicts": [{"condition": name, "passed": ok, "detail": detail}
                     for name, ok, detail in verdicts],
        "passed": all(ok for _, ok, _ in verdicts),
    }
    if orders is not None:
        out["orders"] = {k: str(v) for k, v in orders.items()}
    if schlafli is not None:
        out["schlafli"] = list(schlafli)
    if timing is not None:
        out["timing_seconds"] = round(timing, 3)
    return out


def save_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(data))


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("%s: invalid JSON (%s)" % (path, exc)) from exc
