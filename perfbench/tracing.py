"""Spans and call counters around the public functions of each chirex module.

The tracer lives in the benchmark, not in the program: it wraps functions
after import and puts the originals back when it is removed. Module-level
functions are wrapped by rebinding the same function object in every
``chirex.*`` namespace that imported it; the three hot methods are wrapped
on their class. Methods called far more often than the rest (``Perm.__mul__``
and ``PermGroup.__contains__``) keep a call count and a total, not a span
per call.

A span is ``[name, start, end, parent, job, aggregated_child_time]``, kept in
memory and written out by :meth:`Tracer.dump` when the run ends. A span's
self time is its duration minus the time its child spans and the aggregated
calls made directly inside it cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _distinct_primes(n: int) -> int:
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


# hooks run after a span closes: (tracer, call arguments, result)
def _on_order(tr, args, result):
    tr.counters["permcore.base_len_sum"] += len(args[0].base())


def _on_criterion(tr, args, report):
    q = report.data["last_entry"]
    tr.counters["gpr.meet_sifts"] += q - 1
    tr.counters["gpr.meet_primes"] += _distinct_primes(q)


def _on_extend(tr, args, result):
    tr.counters["extend_db.vertices"] += result.graph.num_vertices
    tr.counters["extend_db.last_entry_sum"] += result.last_entry


def _on_two_s_m(tr, args, result):
    tr.counters["two_s_m.flags"] += result.maniplex.num_flags


def _on_save(tr, args, result):
    tr.counters["serial.bytes_written"] += os.path.getsize(args[0])


COUNTERS = ("permcore.base_len_sum", "gpr.meet_sifts", "gpr.meet_primes",
            "extend_db.vertices", "extend_db.last_entry_sum", "two_s_m.flags",
            "serial.bytes_written")

# (module, function, span name, hook)
FUNCTIONS = [
    ("maniplex", "classify_symmetry", "maniplex.classify", None),
    ("maniplex", "validate", "maniplex.validate", None),
    ("maniplex", "rotation_system", "maniplex.rotation_system", None),
    ("maniplex", "dually_bipartite_colouring", "maniplex.colouring", None),
    ("toroidal", "build_toroidal_map", "toroidal.build", None),
    ("toroidal", "regular_quotient", "toroidal.quotient", None),
    ("gpr", "verify_extension_criterion", "gpr.criterion", _on_criterion),
    ("gpr", "rooted_digraph_isomorphic", "gpr.isomorphic", None),
    ("gpr", "components", "gpr.components", None),
    ("extend_db", "build_matching", "extend_db.matching", None),
    ("extend_db", "extend_dually_bipartite", "extend_db.extend", _on_extend),
    ("two_s_m", "build_two_s_m", "two_s_m.build", _on_two_s_m),
    ("two_s_m", "verify_aut_structure", "two_s_m.aut_scan", None),
    ("mix", "is_regular_via_mix", "mix.regular_test", None),
    ("mix", "intersection_property_group", "mix.ipg", None),
    ("mix", "regular_quotient_extension", "mix.pipeline", None),
    ("serial", "save_json", "serial.save", _on_save),
    ("serial", "load_json", "serial.load", None),
    ("cli", "main", "cli.command", None),
]

# (class, method, span name, hook); an aggregated method has no hook
METHODS = [
    ("PermGroup", "order", "permcore.order", _on_order),
]
AGGREGATED = [
    ("PermGroup", "__contains__", "permcore.contains"),
    ("Perm", "__mul__", "permcore.perm_mul"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.aggregates: dict[str, list] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.job: str | None = None
        self._undo: list[tuple] = []

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _aggregate(self, name, fn):
        spans, stack = self.spans, self.stack
        total = self.aggregates[name] = [0, 0.0]

        @functools.wraps(fn)
        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            total[0] += 1
            total[1] += dt
            if stack:
                spans[stack[-1]][5] += dt
            return result
        return wrapper

    def install(self) -> None:
        from chirex import permcore

        for cls_name, meth, name, hook in METHODS:
            cls = getattr(permcore, cls_name)
            self._rebind(cls, meth, self._span(name, getattr(cls, meth), hook))
        for cls_name, meth, name in AGGREGATED:
            cls = getattr(permcore, cls_name)
            self._rebind(cls, meth, self._aggregate(name, getattr(cls, meth)))
        modules = [m for key, m in sys.modules.items()
                   if key == "chirex" or key.startswith("chirex.")]
        for mod_name, func, name, hook in FUNCTIONS:
            orig = getattr(sys.modules["chirex." + mod_name], func)
            wrapper = self._span(name, orig, hook)
            for mod in modules:
                if getattr(mod, func, None) is orig:
                    self._rebind(mod, func, wrapper)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] - s[5] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-span-name inclusive time, self time and calls, plus the
        aggregated methods and the counters. Inclusive time counts only
        spans without an ancestor of the same name."""
        spans = self.spans
        selft = self.self_times()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            calls[name] += 1
            own[name] += selft[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                incl[name] += end - start
        out: dict[str, float] = {}
        names = [f[2] for f in FUNCTIONS] + [m[2] for m in METHODS]
        for name in names:
            out[name + "_s"] = incl[name]
            out[name + "_self_s"] = own[name]
            out[name + "_calls"] = calls[name]
        for name, (n, total) in self.aggregates.items():
            out[name + "_s"] = total
            out[name + "_calls"] = n
        out.update(self.counters)
        sifts = self.counters["gpr.meet_sifts"]
        out["gpr.meet_useful_ratio"] = (self.counters["gpr.meet_primes"] / sifts
                                        if sifts else 0.0)
        return out

    def dump(self, path: str, **run_info) -> None:
        """Write the spans (in measured seconds) with ``run_info``."""
        selft = self.self_times()
        with open(path, "w") as fh:
            json.dump({
                "run": run_info,
                "fields": ["name", "start", "end", "parent", "job", "self"],
                "spans": [s[:5] + [selft[i]] for i, s in enumerate(self.spans)],
                "aggregates": self.aggregates,
                "counters": self.counters,
            }, fh)
