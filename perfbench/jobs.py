"""The four benchmark workloads: input set-up, job lists and output checks.

A job is timed from the call of ``run`` to its return. ``summarise`` then
turns the result into plain JSON values outside the timed region, and the
job passes when that summary equals the expected one. Expected summaries
come from ``expected.json``, recorded at the seed commit by
``record_expected.py``; the ``seeded-extend`` jobs check only what holds for
every Step-3 seed.

Jobs call chirex through module attributes, for example
``extend_db.extend_dually_bipartite``, so that the traced run's rebound
wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from chirex import cli, extend_db, maniplex, serial, toroidal, two_s_m
from chirex.permcore import Perm

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# extend-order: (b, c, s) on {4,4}_(b,c), Step 3 unseeded
EXTEND_ORDER = [(3, 1, 1), (3, 1, 2), (3, 1, 3), (4, 2, 1), (5, 1, 1)]
# mix-pipeline: --mix-s values for the {4,4}_(3,1) pipeline with --db-s 1
MIX_S = list(range(2, 13))
# construct-verify
SWEEP_RANGE = range(-6, 7)
CONSTRUCT_MAPS = [(3, 1), (5, 1), (7, 1), (4, 2), (6, 2), (5, 3), (9, 1)]
CONSTRUCT_S = (1, 2, 4, 8)
AUT_S = (2, 3, 4)
# seeded-extend: per (b, c, s), the last entries q whose Step-3 seeds are
# drawn. Every run draws one seed per level, so the inputs change with the
# workload seed while the meet loop (q - 1 products and sifts) does not.
SEEDED_LEVELS = {
    (3, 1, 2): (12, 120, 420),
    (3, 1, 3): (36, 180, 360),
    (5, 1, 2): (240, 1680, 9240),
    (5, 1, 3): (720, 2520, 27720),
}


class JobFailed(RuntimeError):
    """A chirex command exited with a non-zero code."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    summarise: Callable[[Any], dict]
    expected: dict | None = None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def file_digest(path: str) -> str:
    """SHA-256 of a JSON output file, canonicalised, without its timing."""
    data = _read(path)
    data.pop("timing_seconds", None)
    return digest(data)


def _cli(*argv) -> None:
    with redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed("chirex %s exited with code %d" % (argv[0], code))


def _map_path(work: str, b: int, c: int) -> str:
    return os.path.join(work, "map_44_%d_%d.json" % (b, c))


def _load_map(path: str):
    return serial.maniplex_from_json(serial.load_json(path))


def _write_maps(work: str, pairs) -> None:
    for b, c in pairs:
        rooted = toroidal.build_toroidal_map(toroidal.TorusParams("44", b, c))
        serial.save_json(_map_path(work, b, c), serial.maniplex_to_json(rooted))


# --- extend-order -------------------------------------------------------

def _extend_order(work: str, cases) -> list[Job]:
    jobs = []
    for b, c, s in cases:
        stem = os.path.join(work, "eo_%d_%d_s%d" % (b, c, s))

        def run(b=b, c=c, s=s, stem=stem):
            _cli("build-map", "--family", "44", "--b", b, "--c", c, "-o", stem + ".map.json")
            _cli("extend-db", stem + ".map.json", "--s", s, "-o", stem + ".ext.json",
                 "--report", stem + ".report.json")
            return stem

        def summarise(stem):
            report = _read(stem + ".report.json")
            return {"group_order": int(report["orders"]["group"]),
                    "last_entry": report["last_entry"],
                    "passed": report["passed"],
                    "sha256": [file_digest(stem + ext)
                               for ext in (".map.json", ".ext.json", ".report.json")]}

        jobs.append(Job("extend-order/44_%d_%d_s%d" % (b, c, s), run, summarise))
    return jobs


# --- mix-pipeline -------------------------------------------------------

def _mix_pipeline(work: str, mix_s) -> list[Job]:
    jobs = []
    for s in mix_s:
        prefix = os.path.join(work, "pl_s%d" % s)

        def run(s=s, prefix=prefix):
            _cli("pipeline", "--family", "44", "--b", 3, "--c", 1, "--db-s", 1,
                 "--mix-s", s, "--out-prefix", prefix)
            return prefix

        def summarise(prefix):
            files = [prefix + ext for ext in
                     (".extension.json", ".extend-db.report.json", ".mix.report.json")]
            ext_report, mix_report = _read(files[1]), _read(files[2])
            return {"extension_order": int(ext_report["orders"]["group"]),
                    "group_order": int(mix_report["orders"]["group"]),
                    "schlafli": mix_report["schlafli"],
                    "passed": ext_report["passed"] and mix_report["passed"],
                    "sha256": [file_digest(f) for f in files]}

        jobs.append(Job("mix-pipeline/44_3_1_mix_s%d" % s, run, summarise))
    return jobs


# --- construct-verify ---------------------------------------------------

def _sweep(family: str) -> list:
    rows = []
    for b in SWEEP_RANGE:
        for c in SWEEP_RANGE:
            if (b, c) == (0, 0):
                continue
            params = toroidal.TorusParams(family, b, c)
            rooted = toroidal.build_toroidal_map(params)
            sym = maniplex.classify_symmetry(rooted)
            symbol = None if sym is maniplex.Symmetry.OTHER else maniplex.schlafli(rooted)
            colouring = maniplex.dually_bipartite_colouring(rooted.maniplex, rooted.base_flag)
            quotient = toroidal.regular_quotient(params)
            rows.append([b, c, rooted.maniplex.num_flags, sym.value, symbol, colouring,
                         None if quotient is None else str(quotient.params)])
    return rows


def _summarise_sweep(rows) -> dict:
    return {"maps": len(rows),
            "chiral": sum(r[3] == "Chiral" for r in rows),
            "dually_bipartite": sum(r[5] is not None for r in rows),
            "sha256": digest(rows)}


def _summarise_extension(result) -> dict:
    return {"last_entry": result.last_entry,
            "vertices": result.graph.num_vertices,
            "passed": result.report.passed,
            "perfect": result.matching.is_perfect(),
            "sha256": digest([list(a.images) for a in result.graph.arrows])}


def _summarise_aut(report) -> dict:
    return {"automorphisms": report.automorphism_count, "expected": report.expected,
            "flags": report.flags, "symbol": report.symbol, "passed": report.passed}


def _construct_verify(work: str, families, maps, svals, aut_s) -> list[Job]:
    jobs = [Job("construct-verify/sweep_%s" % fam, lambda fam=fam: _sweep(fam),
                _summarise_sweep) for fam in families]
    for b, c in maps:
        for s in svals:
            jobs.append(Job(
                "construct-verify/extend_44_%d_%d_s%d" % (b, c, s),
                lambda path=_map_path(work, b, c), s=s:
                    extend_db.extend_dually_bipartite(_load_map(path), s),
                _summarise_extension))
    for s in aut_s:
        jobs.append(Job(
            "construct-verify/aut_44_2_0_s%d" % s,
            lambda path=_map_path(work, 2, 0), s=s:
                two_s_m.verify_aut_structure(_load_map(path), s),
            _summarise_aut))
    return jobs


# --- seeded-extend ------------------------------------------------------

def _summarise_seeded(result) -> dict:
    copies = 2 * result.s
    return {"passed": result.report.passed,
            "copies_divide_q": result.last_entry % copies == 0,
            "perfect": result.matching.is_perfect(),
            "q": result.last_entry}


def pool_key(b: int, c: int, s: int, q: int) -> str:
    return "44_%d_%d_s%d_q%d" % (b, c, s, q)


def seeded_extend_jobs(work: str, levels, pools, draw) -> list[Job]:
    """One job per Step-3 seed that ``draw`` picks from each level's pool."""
    _write_maps(work, sorted({(b, c) for b, c, _ in levels}))
    jobs = []
    for (b, c, s), qs in levels.items():
        for q in qs:
            for step3 in draw(pools[pool_key(b, c, s, q)]):
                jobs.append(Job(
                    "seeded-extend/%s_seed%d" % (pool_key(b, c, s, q), step3),
                    lambda path=_map_path(work, b, c), s=s, step3=step3:
                        extend_db.extend_dually_bipartite(_load_map(path), s, seed=step3),
                    _summarise_seeded,
                    {"passed": True, "copies_divide_q": True, "perfect": True, "q": q}))
    return jobs


# --- assembly -----------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def make_jobs(workload: str, work: str, seed: int, expected: dict,
              smoke: bool = False) -> list[Job]:
    """Write the workload's input maps into ``work`` and return its jobs in
    the order the workload seed gives. ``smoke`` selects the tiny version.
    ``expected`` holds the Step-3 seed pools and the expected summaries; a
    job without a recorded summary has ``expected`` None."""
    rng = random.Random(seed)
    if workload == "extend-order":
        jobs = _extend_order(work, EXTEND_ORDER[:1] if smoke else EXTEND_ORDER)
    elif workload == "mix-pipeline":
        jobs = _mix_pipeline(work, MIX_S[:1] if smoke else MIX_S)
    elif workload == "construct-verify":
        if smoke:
            jobs = _construct_verify(work, (), (), (), AUT_S[:1])
        else:
            _write_maps(work, CONSTRUCT_MAPS)
            jobs = _construct_verify(work, toroidal.FAMILIES, CONSTRUCT_MAPS,
                                     CONSTRUCT_S, AUT_S)
        _write_maps(work, [(2, 0)])
    elif workload == "seeded-extend":
        levels = {(3, 1, 2): (12,)} if smoke else SEEDED_LEVELS
        jobs = seeded_extend_jobs(work, levels, expected["pools"],
                                  lambda pool: [rng.choice(pool)])
    else:
        raise ValueError("unknown workload %r" % workload)
    for job in jobs:
        if job.expected is None:
            job.expected = expected["jobs"].get(job.name)
    rng.shuffle(jobs)
    return jobs


POOL_SCAN = 400  # Step-3 seeds tried per case
POOL_KEEP = 8  # seeds kept per level


def record_pools(levels) -> dict:
    """The first ``POOL_KEEP`` Step-3 seeds in ``range(POOL_SCAN)`` whose
    extension has each level's last entry. Only the last entry is computed
    here (the order of s_n = t s_{n-1}^{-1}); the meet loop is not run."""
    pools = {}
    for b, c, s in levels:
        rooted = toroidal.build_toroidal_map(toroidal.TorusParams("44", b, c))
        colouring = maniplex.dually_bipartite_colouring(rooted.maniplex, rooted.base_flag)
        rs = maniplex.rotation_system(rooted)
        W, copies = rs.degree, 2 * s
        last_inv = rs.sigma[rooted.rank - 2].inverse().images
        widened = Perm([ell * W + last_inv[f] for ell in range(copies) for f in range(W)])
        found: dict[int, list[int]] = {}
        for step3 in range(POOL_SCAN):
            matching = extend_db.build_matching(rooted, colouring, s, step3)
            q = (Perm(matching.partner) * widened).order()
            found.setdefault(q, []).append(step3)
        for q in levels[(b, c, s)]:
            pools[pool_key(b, c, s, q)] = found.get(q, [])[:POOL_KEEP]
    return pools
