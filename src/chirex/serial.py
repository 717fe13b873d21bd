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


def _perm_rows(rows: list, count: int, degree: int, field: str) -> tuple[Perm, ...]:
    """The list ``field`` of JSON rows as ``count`` permutations of 0..degree-1."""
    if len(rows) != count:
        raise SchemaError("%s needs %d rows, found %d" % (field, count, len(rows)))
    perms = []
    for i, row in enumerate(rows):
        name = "%s[%d]" % (field, i)
        if not isinstance(row, list) or len(row) != degree:
            raise SchemaError("field %r: expected a list of %d integers" % (name, degree))
        if not all(_is_int(v) for v in row):
            raise SchemaError("field %r: non-integer entry" % name)
        try:
            perms.append(Perm(row))
        except ValueError as exc:
            raise SchemaError("%s: %s" % (name, exc)) from exc
    return tuple(perms)


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
    perms = _perm_rows(adjacency, rank, flags, "adjacency")
    if not 0 <= base < flags:
        raise SchemaError("base_flag out of range")
    man = Maniplex(rank=rank, adjacency=perms)
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
    arrows = _require(data, "arrows", list)
    if rank < 1 or vertices < 1:
        raise SchemaError("rank and vertices must be at least 1, got %d and %d"
                          % (rank, vertices))
    return GprGraph(rank=rank, arrows=_perm_rows(arrows, rank, vertices, "arrows"))


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
