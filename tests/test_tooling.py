"""Checks on the source tree itself rather than on its behaviour."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chirex"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one
    # silently disappears; every check must raise an exception instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_sympy_is_not_imported_by_the_package():
    # sympy is an independent oracle for the tests, never a runtime
    # dependency of chirex
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name.split(".")[0] == "sympy"]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = {}  # bound name -> line of the import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports_in_the_package():
    # no linter is installed, so this stands in for pyflakes' F401; the
    # package __init__ re-exports by design and is left out
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = []
    for path in modules:
        found += _unused_imports(path)
    assert found == []


def _referenced_names(tree: ast.AST) -> Counter:
    # names, attributes, imported names and string constants (the
    # benchmark's tracer names the functions it wraps as strings), each
    # counted as often as it occurs
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def test_no_test_only_names_in_the_package():
    # a module-level function or class of the package must be used by the
    # package itself (outside its own definition and the __init__
    # re-exports), by scripts/ or by perfbench/; oracles that only tests
    # call belong in tests/helpers.py. Each tree is counted once, and a
    # definition's own references are subtracted from the total.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    outside = [path for folder in ("scripts", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    counts = Counter()
    for tree in [ast.parse(path.read_text(), filename=str(path)) for path in outside]:
        counts += _referenced_names(tree)
    for tree in trees.values():
        counts += _referenced_names(tree)
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and counts[node.name] == _referenced_names(node)[node.name]):
                found.append("%s.%s" % (path.stem, node.name))
    assert found == []


def test_traced_names_exist_in_the_package():
    # the benchmark's tracer wraps chirex functions and methods by name; a
    # rename must fail here, not only in the benchmark's own tests
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    permcore = importlib.import_module("chirex.permcore")
    missing = ["%s.%s" % (mod, func) for mod, func, _, _ in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module("chirex." + mod), func, None))]
    missing += ["%s.%s" % (cls, meth) for cls, meth, *_ in tracing.METHODS + tracing.AGGREGATED
                if meth not in vars(getattr(permcore, cls))]  # rebound on the class itself
    assert tracing.FUNCTIONS and missing == []


def test_benchmark_jobs_match_their_expected_summaries(tmp_path, monkeypatch):
    # every job of the four benchmark workloads, run once in-process and
    # compared with perfbench/expected.json, so a changed output fails here
    # before it fails the benchmark; jobs.py is loaded read-only, and
    # registered first because its dataclass looks its module up
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, jobs)
    spec.loader.exec_module(jobs)
    expected = jobs.load_expected()
    mismatches, count = [], 0
    for workload in ("extend-order", "mix-pipeline", "construct-verify", "seeded-extend"):
        work = tmp_path / workload
        work.mkdir()
        for job in jobs.make_jobs(workload, str(work), 1, expected):
            count += 1
            summary = json.loads(json.dumps(job.summarise(job.run())))
            if job.expected is None or summary != job.expected:
                mismatches.append(job.name)
    assert count == 62 and mismatches == []


def test_verification_survives_python_O(tmp_path):
    # python -O strips asserts; a graph that fails the criterion must still
    # fail in a fresh interpreter under -O, so no check depends on assert
    from chirex.extend_db import extend_dually_bipartite
    from chirex.serial import gpr_to_json, maniplex_to_json, save_json
    from chirex.toroidal import TorusParams, build_toroidal_map

    K = build_toroidal_map(TorusParams("44", 3, 1))
    graph = gpr_to_json(extend_dually_bipartite(K, 1).graph)
    graph["arrows"][-1] = list(range(graph["vertices"]))  # an identity last arrow
    facet, ext = tmp_path / "k.json", tmp_path / "ext.json"
    save_json(str(facet), maniplex_to_json(K))
    save_json(str(ext), graph)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-m", "chirex.cli", "verify-gpr", str(ext),
                           "--facet", str(facet)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert any(" FAIL " in line for line in done.stdout.splitlines()), done.stdout
    assert "Traceback" not in done.stderr


def test_classify_survives_python_O(tmp_path):
    # the rotary test's r_0 comparison and the colouring's proof carry no
    # assert: classify prints the same line and exits alike under -O, on a
    # chiral torus (bipartite) and on the hemicube (r_0(base) an even word)
    from helpers import hemicube
    from chirex.serial import maniplex_to_json, save_json
    from chirex.toroidal import TorusParams, build_toroidal_map

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    expected = {"torus": "Chiral rank=3 flags=80 type=[4, 4]",
                "hemicube": "Regular rank=3 flags=24 type=[4, 3]"}
    for name, rooted in (("torus", build_toroidal_map(TorusParams("44", 3, 1))),
                         ("hemicube", hemicube())):
        path = tmp_path / ("%s.json" % name)
        save_json(str(path), maniplex_to_json(rooted))
        runs = [subprocess.run([sys.executable, *flags, "-m", "chirex.cli", "classify", str(path)],
                               cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
                for flags in ([], ["-O"])]
        assert [(r.returncode, r.stdout.strip()) for r in runs] == [(0, expected[name])] * 2, \
            [r.stderr for r in runs]


def test_importing_the_package_leaves_numpy_unloaded():
    # numpy is imported inside the functions that use it (the chain, the
    # GPR rows, the torus builder), so the CLI starts without paying for it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c",
                           "import sys, chirex, chirex.cli; print('numpy' in sys.modules)"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def _run_script(*argv) -> list[str]:
    # each script as a user runs it: a fresh interpreter, chirex from src/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_torus_sweep_script_runs():
    lines = _run_script("torus_sweep.py")
    assert lines[0].split() == ["map", "flags", "type", "symmetry", "db", "quotient"]
    assert len(lines) == 1 + 3 * 24  # three families, 0 <= b, c <= 4, (b, c) != (0, 0)


def test_db_extension_sweep_script_runs():
    # the verified q by default; the group order only with --order
    lines = _run_script("db_extension_sweep.py", "--smax", "1")
    assert lines[0] == "base map {4,4}_(3,1) with 80 flags"
    assert lines[1].split() == ["s", "vertices", "last", "entry", "time"]
    assert lines[2].split()[:3] == ["1", "80", "8"] and len(lines[2].split()) == 4
    lines = _run_script("db_extension_sweep.py", "--smax", "1", "--order")
    assert lines[1].split() == ["s", "vertices", "last", "entry", "group", "order", "base",
                                "schreier", "rounds", "time"]
    assert lines[2].split()[:4] == ["1", "80", "8", "414720000"]


def test_db_extension_sweep_reports_the_chain():
    # the seeded (3,1) s = 2 order of TestChainPins, with its chain's counters
    lines = _run_script("db_extension_sweep.py", "--smax", "2", "--seed", "7", "--order")
    order = 4414470040173601417374086055489297098873239184215996534673238279585792 * 10 ** 32
    s, _, _, printed, base, sifts, rounds = lines[3].split()[:7]
    assert (s, int(printed), int(base), int(sifts)) == ("2", order, 129, 24157)
    assert 0 < int(rounds) < int(sifts)


def test_mix_pipeline_demo_script_runs():
    # the demo's facets-of-extension check goes through
    # gpr.facet_components_isomorphic
    lines = _run_script("mix_pipeline_demo.py")
    assert lines[0] == "base map {4,4}_(4,2), 160 flags"
    verdicts = [line.split() for line in lines if line.startswith("  ")]
    assert ["facets-of-extension", "pass"] in verdicts
    assert all(v[1] == "pass" for v in verdicts)


def test_order_probe_script_runs():
    # one dense and one product process on {4,4}_(3,1) s = 1, then the medians
    lines = [json.loads(line) for line in
             _run_script("order_probe.py", "--case", "44:3:1:1", "--repeats", "1")]
    assert [(r["kind"], r["degree"], r["order"]) for r in lines[:2]] == [
        ("dense", 80, "414720000"), ("product", 42, "414720000")]
    assert lines[2]["case"] == "44:3:1:1" and set(lines[2]["median_s"]) == {"dense", "product"}
