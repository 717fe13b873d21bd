import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chirex.cli import main
from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import cayley_gpr
from chirex.serial import (SchemaError, canonical_dumps, gpr_from_json,
                           gpr_to_json, load_json, maniplex_from_json,
                           maniplex_to_json, report_to_json, save_json)
from chirex.toroidal import TorusParams, build_toroidal_map

from helpers import polygon


class TestRoundTrips:
    def test_maniplex_bytes(self, tmp_path):
        rooted = build_toroidal_map(TorusParams("44", 2, 1))
        path = tmp_path / "m.json"
        save_json(str(path), maniplex_to_json(rooted))
        first = path.read_bytes()
        loaded = maniplex_from_json(load_json(str(path)))
        save_json(str(path), maniplex_to_json(loaded))
        assert path.read_bytes() == first
        assert loaded.maniplex.adjacency == rooted.maniplex.adjacency
        assert loaded.base_flag == rooted.base_flag

    def test_gpr(self):
        G = cayley_gpr(build_toroidal_map(TorusParams("44", 3, 1)))
        data = gpr_to_json(G)
        assert gpr_from_json(json.loads(canonical_dumps(data))) == G

    def test_canonical_dumps_is_stable(self):
        a = canonical_dumps({"b": 1, "a": [2, 3]})
        b = canonical_dumps({"a": [2, 3], "b": 1})
        assert a == b
        assert a.endswith("\n")


class TestSchemaErrors:
    def _maniplex_data(self):
        return maniplex_to_json(build_toroidal_map(TorusParams("44", 2, 0)))

    def test_missing_field(self):
        data = self._maniplex_data()
        del data["rank"]
        with pytest.raises(SchemaError, match="rank"):
            maniplex_from_json(data)

    def test_wrong_row_count(self):
        data = self._maniplex_data()
        data["adjacency"] = data["adjacency"][:2]
        with pytest.raises(SchemaError, match="adjacency"):
            maniplex_from_json(data)

    def test_fixed_point_rejected(self):
        data = self._maniplex_data()
        row = data["adjacency"][0]
        a = row[0]
        # unpair 0 and a: still a bijection but with two fixed points
        row[0], row[a] = 0, a
        with pytest.raises(SchemaError, match="involution"):
            maniplex_from_json(data)

    def test_base_flag_range(self):
        data = self._maniplex_data()
        data["base_flag"] = 10 ** 6
        with pytest.raises(SchemaError, match="base_flag"):
            maniplex_from_json(data)

    def test_non_integer_entries(self):
        data = self._maniplex_data()
        data["adjacency"][0][0] = "x"
        with pytest.raises(SchemaError, match="adjacency\\[0\\]"):
            maniplex_from_json(data)

    def test_gpr_errors(self):
        with pytest.raises(SchemaError, match="arrows"):
            gpr_from_json({"vertices": 2, "rank": 2, "arrows": [[0, 1]]})
        for data in ({"vertices": 1, "rank": 0, "arrows": []},
                     {"vertices": 0, "rank": 2, "arrows": [[], []]}):
            with pytest.raises(SchemaError, match="at least 1"):
                gpr_from_json(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_json(str(path))


class TestReport:
    def test_orders_become_strings(self):
        out = report_to_json("demo", {"s": 1}, [("check", True, "")],
                             orders={"group": 2 ** 100}, schlafli=[4, 4, 8],
                             timing=1.23456)
        assert out["orders"]["group"] == str(2 ** 100)
        assert out["passed"] is True
        assert out["schlafli"] == [4, 4, 8]
        assert out["timing_seconds"] == 1.235


class TestCli:
    def _build(self, tmp_path, family="44", b=3, c=1):
        path = tmp_path / ("%s_%d_%d.json" % (family, b, c))
        assert main(["build-map", "--family", family, "--b", str(b),
                     "--c", str(c), "-o", str(path)]) == 0
        return path

    def test_build_and_classify(self, tmp_path, capsys):
        path = self._build(tmp_path)
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Chiral" in out and "flags=80" in out and "[4, 4]" in out

    def test_extend_and_verify(self, tmp_path, capsys):
        path = self._build(tmp_path)
        ext = tmp_path / "ext.json"
        rep = tmp_path / "rep.json"
        assert main(["extend-db", str(path), "--s", "1", "-o", str(ext),
                     "--report", str(rep)]) == 0
        report = json.loads(rep.read_text())
        assert report["passed"] and report["last_entry"] == 8
        assert main(["verify-gpr", str(ext), "--facet", str(path)]) == 0
        assert capsys.readouterr().out.count("pass") >= 4

    def test_verify_rejects_tampering(self, tmp_path, capsys):
        path = self._build(tmp_path)
        ext = tmp_path / "ext.json"
        assert main(["extend-db", str(path), "--s", "1", "-o", str(ext)]) == 0
        data = json.loads(ext.read_text())
        # replace the last arrow by the identity
        data["arrows"][-1] = list(range(data["vertices"]))
        save_json(str(ext), data)
        assert main(["verify-gpr", str(ext), "--facet", str(path)]) == 2

    def test_two_sm_with_sidecar(self, tmp_path, capsys):
        path = self._build(tmp_path, b=2, c=0)
        out = tmp_path / "tsm.json"
        assert main(["two-sm", str(path), "--s", "2", "-o", str(out)]) == 0
        meta = json.loads((tmp_path / "tsm.json.meta.json").read_text())
        assert meta == {"construction": "two_s_m", "m": 4, "s": 2}
        assert main(["classify", str(out)]) == 0
        assert "Regular" in capsys.readouterr().out

    def test_two_sm_too_many_flags(self, tmp_path, capsys):
        # 2s^M over {4,4}_(9,1), with 82 facets, would have 656 * 2 * 2^81
        # flags; the size is refused before any list is allocated
        path = self._build(tmp_path, b=9, c=1)
        out = tmp_path / "tsm.json"
        assert main(["two-sm", str(path), "--s", "2", "-o", str(out)]) == 3
        assert "precondition failure: 2s^M would have" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_arguments_exit_3(self, tmp_path):
        # a fresh interpreter with its address space capped at 2 GiB: an
        # allocation sized by the arguments fails fast there with a
        # MemoryError (exit 1) instead of filling the machine's memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        k31, out = str(self._build(tmp_path)), str(tmp_path / "x.json")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1")
        for argv in (["build-map", "--family", "44", "--b", "100000", "--c", "0", "-o", out],
                     ["extend-db", k31, "--s", "1000000000", "-o", out],
                     ["pipeline", "--family", "36", "--b", "100000", "--c", "1", "--db-s", "1"],
                     ["pipeline", "--family", "44", "--b", "3", "--c", "1",
                      "--db-s", "1000000000", "--mix-s", "2"]):
            done = subprocess.run([sys.executable, "-m", "chirex.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120, preexec_fn=cap)
            assert done.returncode == 3, (argv, done.stderr)
            assert done.stderr.splitlines() == [done.stderr.strip()], done.stderr
            assert "more than the 1048576 allowed" in done.stderr
        assert not os.path.exists(out)

    def test_usage_errors_exit_4(self, tmp_path, capsys):
        # a bad or missing argument is a usage error (exit 4), since 2 is
        # kept for a failed verification; --help still succeeds
        path = self._build(tmp_path)
        out = str(tmp_path / "x.json")
        for argv in (["extend-db", str(path), "--s", "abc", "-o", out],
                     ["extend-db", str(path), "-o", out], ["no-such-command"], []):
            assert main(argv) == 4, argv
        assert "usage:" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert main(["pipeline", "--help"]) == 0
        assert "--mix-s" in capsys.readouterr().out

    def test_quotient_of_the_wrong_rank_exit_3(self, tmp_path, capsys):
        ext, facet, _ = _mix_inputs(tmp_path)
        square = tmp_path / "square.json"
        save_json(str(square), maniplex_to_json(polygon(4)))
        capsys.readouterr()
        assert main(["mix-extend", "--extension", str(ext), "--facet", str(facet),
                     "--quotient", str(square), "--s", "2"]) == 3
        assert "quotient rank 2 differs from the facet rank 3" in capsys.readouterr().err

    def test_precondition_exit_code(self, tmp_path):
        path = self._build(tmp_path, b=2, c=0)  # regular, not chiral
        assert main(["extend-db", str(path), "--s", "1",
                     "-o", str(tmp_path / "x.json")]) == 3

    def test_pipeline_fails_fast_without_quotient(self, capsys):
        # (2,1) has no regular quotient with two facets
        assert main(["pipeline", "--family", "44", "--b", "2", "--c", "1",
                     "--db-s", "1", "--mix-s", "2"]) == 3

    def test_io_exit_codes(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert main(["classify", str(missing)]) == 4
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["classify", str(bad)]) == 4
        garbled = tmp_path / "garbled.json"
        garbled.write_text("[1,")
        assert main(["classify", str(garbled)]) == 4

    def test_top_level_not_an_object(self, tmp_path):
        for text in ("5", "null", "[1, 2]"):
            path = tmp_path / "scalar.json"
            path.write_text(text)
            assert main(["classify", str(path)]) == 4

    def test_booleans_are_not_integers(self, tmp_path, capsys):
        path = tmp_path / "bools.json"
        path.write_text('{"rank":1,"flags":2,"adjacency":[[true,false]],"base_flag":false}')
        assert main(["classify", str(path)]) == 4
        assert "base_flag" in capsys.readouterr().err
        path.write_text('{"rank":1,"flags":2,"adjacency":[[true,false]],"base_flag":0}')
        assert main(["classify", str(path)]) == 4

    def test_deep_nesting_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["classify", str(path)]) == 4
        assert "invalid JSON" in capsys.readouterr().err

    def test_verify_gpr_degenerate_graphs(self, tmp_path, capsys):
        # a 0-vertex graph would pass all four conditions vacuously, and a
        # rank-1 graph has no facet arrows to read a vertex count from
        square = tmp_path / "square.json"
        save_json(str(square), maniplex_to_json(polygon(4)))
        empty = tmp_path / "empty.json"
        save_json(str(empty), {"vertices": 0, "rank": 2, "arrows": [[], []]})
        assert main(["verify-gpr", str(empty), "--facet", str(square)]) == 4
        segment = tmp_path / "segment.json"
        save_json(str(segment), {"rank": 1, "flags": 2, "adjacency": [[1, 0]],
                                 "base_flag": 0})
        one = tmp_path / "one.json"
        save_json(str(one), {"vertices": 1, "rank": 1, "arrows": [[0]]})
        assert main(["verify-gpr", str(one), "--facet", str(segment)]) == 3
        assert "pass" not in capsys.readouterr().out

    def test_mix_extend_rank_one_rejected(self, tmp_path, capsys):
        # a rank-1 extension has a rank-0 facet subgraph, which has no
        # arrows to read a vertex count from
        segment = tmp_path / "segment.json"
        save_json(str(segment), {"rank": 1, "flags": 2, "adjacency": [[1, 0]],
                                 "base_flag": 0})
        one = tmp_path / "one.json"
        save_json(str(one), {"vertices": 1, "rank": 1, "arrows": [[0]]})
        assert main(["mix-extend", "--extension", str(one), "--facet", str(segment),
                     "--quotient", str(segment), "--s", "2"]) == 3
        assert "two labels" in capsys.readouterr().err

    def test_rank_zero_rejected(self, tmp_path, capsys):
        # a rank-0 file has no adjacency rows to index, so it must fail
        # the schema check instead of reaching the commands
        path = tmp_path / "rank0.json"
        path.write_text('{"rank": 0, "flags": 1, "adjacency": [], "base_flag": 0}')
        assert main(["classify", str(path)]) == 4
        assert main(["extend-db", str(path), "--s", "1",
                     "-o", str(tmp_path / "x.json")]) == 4
        assert "rank" in capsys.readouterr().err

    def test_mix_extend_bad_input_exit_codes(self, tmp_path, capsys):
        ext, facet, quotient = _mix_inputs(tmp_path)
        args = ["--quotient", str(quotient), "--s", "2"]
        # an identity last arrow keeps every facet component a Cayley
        # graph but fails the criterion, so the rank-4 certificate fails
        data = json.loads(ext.read_text())
        data["arrows"][-1] = list(range(data["vertices"]))
        tampered = tmp_path / "tampered.json"
        save_json(str(tampered), data)
        capsys.readouterr()
        assert main(["mix-extend", "--extension", str(tampered), "--facet", str(facet)] + args) == 2
        assert "intersection-property" in capsys.readouterr().err
        # the facets of a (3,1) extension are not copies of {4,4}_(4,2)
        other = tmp_path / "other.json"
        assert main(["extend-db", str(self._build(tmp_path)), "--s", "1", "-o", str(other)]) == 0
        capsys.readouterr()
        assert main(["mix-extend", "--extension", str(other), "--facet", str(facet)] + args) == 2
        assert "facets-of-extension" in capsys.readouterr().err
        square = tmp_path / "square.json"
        save_json(str(square), maniplex_to_json(polygon(4)))
        assert main(["mix-extend", "--extension", str(ext), "--facet", str(square)] + args) == 3
        missing = tmp_path / "missing.json"
        assert main(["mix-extend", "--extension", str(missing), "--facet", str(facet)] + args) == 4


def _mix_inputs(tmp_path):
    """The criterion-5 input: {4,4}_(4,2), its extension at s = 1 and its
    regular quotient {4,4}_(2,0)."""
    facet, quotient, ext = (tmp_path / name for name in ("k42.json", "r20.json", "ext.json"))
    for path, b, c in ((facet, 4, 2), (quotient, 2, 0)):
        assert main(["build-map", "--family", "44", "--b", str(b), "--c", str(c),
                     "-o", str(path)]) == 0
    assert main(["extend-db", str(facet), "--s", "1", "-o", str(ext)]) == 0
    return ext, facet, quotient


def _digest(path) -> str:
    """SHA-256 of a canonical JSON report without its timing."""
    data = json.loads(path.read_text())
    data.pop("timing_seconds", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


class TestGoldenReports:
    """Digests of CLI reports recorded when the mix pipeline still ran the
    direct checks on the whole mix (subgroup enumeration, the full mirror
    diamond, the group order in the library); the files must stay
    byte-identical apart from the timing."""

    def test_mix_extend_criterion_5(self, tmp_path, capsys):
        ext, facet, quotient = _mix_inputs(tmp_path)
        report = tmp_path / "mix.json"
        assert main(["mix-extend", "--extension", str(ext), "--facet", str(facet),
                     "--quotient", str(quotient), "--s", "2", "--report", str(report)]) == 0
        assert _digest(report) == "147e7e6d475fa275793ab8cfd233ee8faabae72869ea62c2943062d032054e12"
        assert "group order 2774419410043640217600000000" in capsys.readouterr().out

    def test_pipeline_mix_s_12(self, tmp_path):
        prefix = str(tmp_path / "pl")
        assert main(["pipeline", "--family", "44", "--b", "3", "--c", "1", "--db-s", "1",
                     "--mix-s", "12", "--out-prefix", prefix]) == 0
        digests = {ext: _digest(tmp_path / ("pl" + ext)) for ext in
                   (".extension.json", ".extend-db.report.json", ".mix.report.json")}
        assert digests == {
            ".extension.json": "552565cacd0f53b25ff5e369e1f1db094f91b8460cd52f1010e6d7a5a728d558",
            ".extend-db.report.json": "23f92b033f35831457d7c8aa15ad7170b7d61d4b97da975bc226420578ad0f72",
            ".mix.report.json": "cca5ba5bc9964358165174b5aeb40a9128604085e039ee90a19c3025c30d1320",
        }
