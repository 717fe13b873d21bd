import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from chirex import cli
from chirex.cli import main
from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import cayley_gpr
from chirex.permcore import Perm, PermGroup
from chirex.serial import (SchemaError, canonical_dumps, gpr_from_json,
                           gpr_to_json, load_json, maniplex_from_json,
                           maniplex_to_json, report_to_json, save_json)
from chirex.toroidal import TorusParams, build_toroidal_map
from chirex.two_s_m import build_two_s_m

from helpers import count_chains, polygon


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

    @staticmethod
    def _run_capped(argv):
        # a fresh interpreter with its address space capped at 2 GiB: an
        # allocation sized by the arguments fails fast there with a
        # MemoryError (exit 1) or an OSError (exit 4) instead of filling the
        # machine's memory
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "chirex.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120, preexec_fn=cap)

    def test_oversized_arguments_exit_3(self, tmp_path):
        k31, out = str(self._build(tmp_path)), str(tmp_path / "x.json")
        for argv in (["build-map", "--family", "44", "--b", "100000", "--c", "0", "-o", out],
                     ["extend-db", k31, "--s", "1000000000", "-o", out],
                     ["pipeline", "--family", "36", "--b", "100000", "--c", "1", "--db-s", "1"],
                     ["pipeline", "--family", "44", "--b", "3", "--c", "1",
                      "--db-s", "1000000000", "--mix-s", "2"]):
            done = self._run_capped(argv)
            assert done.returncode == 3, (argv, done.stderr)
            assert done.stderr.splitlines() == [done.stderr.strip()], done.stderr
            assert "more than the 1048576 allowed" in done.stderr
        assert not os.path.exists(out)

    def test_group_order_within_the_chain_budget(self, tmp_path):
        # at s = 512 the extension has 40960 vertices, and level 0 of its
        # chain would map 40960^2 int32 (6.7 GB): without a report no order
        # is taken, and with one the level is refused before it is mapped;
        # a refused order leaves none of the command's files behind
        k31, out = str(self._build(tmp_path)), str(tmp_path / "e.json")
        done = self._run_capped(["extend-db", k31, "--s", "512", "-o", out])
        assert done.returncode == 0, done.stderr
        assert done.stdout == "wrote %s: 40960 vertices, last entry 1024\n" % out
        prefix = str(tmp_path / "pl")
        for argv, written in (
                (["extend-db", k31, "--s", "512", "-o", str(tmp_path / "e2.json"),
                  "--report", str(tmp_path / "r.json")], ["e2.json", "r.json"]),
                (["pipeline", "--family", "44", "--b", "3", "--c", "1", "--db-s", "512",
                  "--out-prefix", prefix], ["pl.extension.json", "pl.extend-db.report.json"]),
                (["verify-gpr", out, "--facet", k31, "--report", str(tmp_path / "v.json")],
                 ["v.json"])):
            done = self._run_capped(argv)
            assert done.returncode == 3, (argv, done.stderr)
            assert done.stderr == ("precondition failure: a stabiliser chain level would map "
                                   "6710886400 bytes, more than the 1073741824 allowed\n")
            assert not any((tmp_path / name).exists() for name in written), argv
        done = self._run_capped(["verify-gpr", out, "--facet", k31])
        assert done.returncode == 0, done.stderr

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

    def test_pipeline_checks_the_mix_orbit(self, tmp_path, monkeypatch, capsys):
        # the extension report's order is the mix's order on the orbit of
        # point 0, so a mix whose orbit is not P's vertex set is refused
        # before any file is written
        real = cli.regular_quotient_extension

        def trivial_mix(*args):
            result = real(*args)
            result.group = PermGroup(result.group.degree, [Perm.identity(result.group.degree)])
            return result

        monkeypatch.setattr(cli, "regular_quotient_extension", trivial_mix)
        assert main(["pipeline", "--family", "44", "--b", "3", "--c", "1", "--db-s", "1",
                     "--mix-s", "2", "--out-prefix", str(tmp_path / "pl")]) == 2
        assert capsys.readouterr().err == ("verification failure: the mix's orbit of point 0 "
                                           "has 1 points, not P's 80 vertices\n")
        assert list(tmp_path.iterdir()) == []

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
        assert "rank-3 facets only, got rank 1" in capsys.readouterr().err

    def test_mix_extend_rank_4_rejected(self, tmp_path, capsys):
        # the mix certifies its intersection property at rank 4 only, so
        # rank-4 facets (a 2s^M of a map) are a precondition failure
        K = build_two_s_m(build_toroidal_map(TorusParams("44", 2, 0)), 2).rooted
        facet = tmp_path / "k4.json"
        save_json(str(facet), maniplex_to_json(K))
        ext = tmp_path / "p4.json"
        save_json(str(ext), {"vertices": 1, "rank": 4, "arrows": [[0]] * 4})
        capsys.readouterr()
        assert main(["mix-extend", "--extension", str(ext), "--facet", str(facet),
                     "--quotient", str(facet), "--s", "2"]) == 3
        assert capsys.readouterr().err == (
            "precondition failure: the mix is certified for rank-3 facets only, got rank 4\n")

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


    def test_files_that_do_not_belong_together_exit_2(self, tmp_path, capsys):
        # each file is valid alone; the commands check how they fit together
        # and refuse with one line, not with a DegreeMismatch (exit 4)
        ext31 = tmp_path / "ext31.json"
        assert main(["extend-db", str(self._build(tmp_path)), "--s", "1", "-o", str(ext31)]) == 0
        ext42, facet42, _ = _mix_inputs(tmp_path)
        cases = [(["verify-gpr", str(ext31), "--facet", str(self._build(tmp_path, f, b, c))],
                  "verification failure: extension criterion failed")
                 for f, b, c in (("44", 5, 1), ("36", 2, 1), ("44", 2, 0))]
        mix = ["mix-extend", "--extension", str(ext42), "--s", "2"]
        facet31, r20 = tmp_path / "44_3_1.json", tmp_path / "r20.json"
        not_covered = ("verification failure: covers-quotient: the input does not cover "
                       "the quotient")
        cases += [
            (mix + ["--facet", str(facet31), "--quotient", str(self._build(tmp_path, b=1, c=1))],
             "verification failure: facets-of-extension: a facet component of the "
             "extension is not the expected Cayley graph"),
            (mix + ["--facet", str(facet31), "--quotient", str(r20)], not_covered),
            (mix + ["--facet", str(facet42), "--quotient", str(self._build(tmp_path, b=3, c=0))],
             not_covered),
            (mix + ["--facet", str(facet42), "--quotient", str(facet31)],
             "verification failure: quotient-regular: quotient is not regular"),
        ]
        capsys.readouterr()
        for argv, err in cases:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == err + "\n", argv


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


class TestOneChainPerMix:
    """The mix's verdicts are certificates, so the mix's own order, which
    the commands report, is the only stabiliser chain they build."""

    def test_pipeline(self, tmp_path, monkeypatch):
        built = count_chains(monkeypatch)
        assert main(["pipeline", "--family", "44", "--b", "3", "--c", "1", "--db-s", "1",
                     "--mix-s", "2", "--out-prefix", str(tmp_path / "pl")]) == 0
        assert [gens for _, gens in built] == [3]

    def test_mix_extend_report(self, tmp_path, monkeypatch):
        ext, facet, quotient = _mix_inputs(tmp_path)
        built = count_chains(monkeypatch)
        assert main(["mix-extend", "--extension", str(ext), "--facet", str(facet),
                     "--quotient", str(quotient), "--s", "2",
                     "--report", str(tmp_path / "mix.json")]) == 0
        assert [gens for _, gens in built] == [3]


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

    def test_pipeline_4_2_mix_s_4(self, tmp_path, capsys):
        # recorded when the pipeline still built Gamma(P)'s chain for the
        # extension report beside the mix's, whose base mixed P's points
        # with 2s^R's
        prefix = str(tmp_path / "pl")
        assert main(["pipeline", "--family", "44", "--b", "4", "--c", "2", "--db-s", "1",
                     "--mix-s", "4", "--out-prefix", prefix]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [re.sub(r", [0-9.]+s$", "", line) for line in lines] == [
            "stage build: {4,4}_(4,2), 160 flags, Chiral",
            "stage quotient: {4,4}_(2,0)",
            "stage extend-db: s=1, last entry 18 (2s | 18)",
            "stage mix-extend: s=4, type [4, 4, 72], last entry lcm(18,8)=72"]
        digests = {ext: _digest(tmp_path / ("pl" + ext)) for ext in
                   (".extension.json", ".extend-db.report.json", ".mix.report.json")}
        assert digests == {
            ".extension.json": "a5dae2c64fab2dfcd129c5b7925b882cc84f5fe6ef73d7dc70d99940fd9d5177",
            ".extend-db.report.json": "85eb0658795198b7312988a8a20fff5094d367ef4ec439e61efe058c1c32c435",
            ".mix.report.json": "2a9cc46f88aed69b9376fd3147459cd4071d738b0acf27ea360aff4b7e04fe54",
        }

    def test_pipeline_4_2_without_mix(self, tmp_path):
        # without --mix-s the extension report takes Gamma(P)'s order from
        # a chain of P's own group; it equals the mix's orbit_order() above
        prefix = str(tmp_path / "pl")
        assert main(["pipeline", "--family", "44", "--b", "4", "--c", "2", "--db-s", "1",
                     "--out-prefix", prefix]) == 0
        digests = {ext: _digest(tmp_path / ("pl" + ext)) for ext in
                   (".extension.json", ".extend-db.report.json")}
        assert digests == {
            ".extension.json": "a5dae2c64fab2dfcd129c5b7925b882cc84f5fe6ef73d7dc70d99940fd9d5177",
            ".extend-db.report.json": "85eb0658795198b7312988a8a20fff5094d367ef4ec439e61efe058c1c32c435",
        }
        assert not (tmp_path / "pl.mix.report.json").exists()

    def test_verify_gpr_report_5_1(self, tmp_path):
        # the {4,4}_(5,1) extension at s = 1, whose group order the report
        # takes from the extension's own chain
        facet, ext, report = (tmp_path / name for name in ("k51.json", "ext.json", "v.json"))
        assert main(["build-map", "--family", "44", "--b", "5", "--c", "1",
                     "-o", str(facet)]) == 0
        assert main(["extend-db", str(facet), "--s", "1", "-o", str(ext)]) == 0
        assert main(["verify-gpr", str(ext), "--facet", str(facet),
                     "--report", str(report)]) == 0
        assert _digest(report) == "254c0ac332675bad60f7a63b4552a8879e14053bfde0cf4053dee598362f016c"

    def test_pipeline_36(self, tmp_path, capsys):
        # {3,6}_(2,1): the extension has last entry 30 and the mix with
        # {3,6}_(1,0) at s = 4 raises it to lcm(30, 8) = 120
        prefix = str(tmp_path / "pl")
        assert main(["pipeline", "--family", "36", "--b", "2", "--c", "1", "--db-s", "1",
                     "--mix-s", "4", "--out-prefix", prefix]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [re.sub(r", [0-9.]+s$", "", line) for line in lines] == [
            "stage build: {3,6}_(2,1), 84 flags, Chiral",
            "stage quotient: {3,6}_(1,0)",
            "stage extend-db: s=1, last entry 30 (2s | 30)",
            "stage mix-extend: s=4, type [3, 6, 120], last entry lcm(30,8)=120"]
        digests = {ext: _digest(tmp_path / ("pl" + ext)) for ext in
                   (".extension.json", ".extend-db.report.json", ".mix.report.json")}
        assert digests == {
            ".extension.json": "2df8c86bc036b65a93f07bf784f8c7ad919fe76045d406214447ffe6c5aa672e",
            ".extend-db.report.json": "6c0e883653e00e5d460da2e5d25b641ee7b5fba1ab888d5e1fa42d0058354ab2",
            ".mix.report.json": "cd96ce094663fe80c4e28faa1cae4ba8277347e87640e0b960e6d221e4cac5f5",
        }
