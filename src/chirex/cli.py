"""Command-line entry points.

Exit codes: 0 success, 2 verification failure, 3 precondition failure,
4 I/O, schema or usage error (a bad or missing argument).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .extend_db import extend_dually_bipartite
from .gpr import gpr_group, verify_extension_criterion
from .maniplex import (PreconditionError, Symmetry, VerificationError,
                       classify_symmetry, schlafli)
from .mix import regular_quotient_extension
from .serial import (SchemaError, gpr_from_json, gpr_to_json, load_json,
                     maniplex_from_json, maniplex_to_json, report_to_json,
                     save_json)
from .toroidal import FAMILIES, TorusParams, build_toroidal_map, regular_quotient
from .two_s_m import build_two_s_m

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4


def _cmd_build_map(args) -> int:
    params = TorusParams(args.family, args.b, args.c)
    rooted = build_toroidal_map(params)
    save_json(args.output, maniplex_to_json(rooted))
    print("wrote %s: %s with %d flags" % (args.output, params, rooted.maniplex.num_flags))
    return EXIT_OK


def _cmd_classify(args) -> int:
    rooted = maniplex_from_json(load_json(args.maniplex))
    sym = classify_symmetry(rooted)
    line = "%s rank=%d flags=%d" % (sym.value, rooted.rank, rooted.maniplex.num_flags)
    if sym is not Symmetry.OTHER:
        line += " type=%s" % (schlafli(rooted),)
    print(line)
    return EXIT_OK


def _cmd_extend_db(args) -> int:
    rooted = maniplex_from_json(load_json(args.maniplex))
    t0 = time.time()
    result = extend_dually_bipartite(rooted, args.s, seed=args.seed)
    # every value is taken before the first file is written, so a refused
    # group order leaves no file behind
    outputs = [(args.output, gpr_to_json(result.graph))]
    if args.report:  # the group order is taken for the report only
        report = report_to_json(
            "extend-db",
            {"s": args.s, "seed": args.seed, "input_flags": rooted.maniplex.num_flags},
            result.report.verdicts,
            orders={"group": gpr_group(result.graph).order()},
            timing=time.time() - t0,
        )
        report["last_entry"] = result.last_entry
        report["edge_count"] = len(result.matching.partner) // 2
        report["copies"] = 2 * args.s
        outputs.append((args.report, report))
    for path, data in outputs:
        save_json(path, data)
    print("wrote %s: %d vertices, last entry %d" %
          (args.output, result.graph.num_vertices, result.last_entry))
    return EXIT_OK


def _cmd_two_sm(args) -> int:
    rooted = maniplex_from_json(load_json(args.maniplex))
    tsm = build_two_s_m(rooted, args.s)
    save_json(args.output, maniplex_to_json(tsm.rooted))
    sidecar = args.output + ".meta.json" if args.sidecar is None else args.sidecar
    save_json(sidecar, {"m": tsm.m, "s": args.s, "construction": "two_s_m"})
    print("wrote %s (+ %s): %d flags" % (args.output, sidecar, tsm.maniplex.num_flags))
    return EXIT_OK


def _cmd_verify_gpr(args) -> int:
    graph = gpr_from_json(load_json(args.graph))
    facet = maniplex_from_json(load_json(args.facet))
    t0 = time.time()
    report = verify_extension_criterion(graph, facet)
    if args.report:
        save_json(args.report, report_to_json(
            "verify-gpr", {"vertices": graph.num_vertices, "rank": graph.rank},
            report.verdicts, orders={"group": gpr_group(graph).order()},
            timing=time.time() - t0))
    for name, ok, detail in report.verdicts:
        print("%-32s %s %s" % (name, "pass" if ok else "FAIL", detail))
    if not report.passed:
        raise VerificationError("extension criterion failed")
    return EXIT_OK


def _cmd_mix_extend(args) -> int:
    ext = gpr_from_json(load_json(args.extension))
    facet = maniplex_from_json(load_json(args.facet))
    quotient = maniplex_from_json(load_json(args.quotient))
    t0 = time.time()
    result = regular_quotient_extension(ext, facet, quotient, args.s)
    order = result.group.order()
    out = report_to_json(
        "mix-extend", {"s": args.s, "q": result.q},
        result.report.verdicts,
        orders={"group": order, "facet_subgroup": result.report.data["facet_order"]},
        schlafli=result.schlafli, timing=time.time() - t0)
    if args.report:
        save_json(args.report, out)
    print("type %s, group order %s" % (result.schlafli, order))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    params = TorusParams(args.family, args.b, args.c)
    rooted = build_toroidal_map(params)
    print("stage build: %s, %d flags, %s" %
          (params, rooted.maniplex.num_flags, classify_symmetry(rooted).value))

    if args.mix_s is not None:
        quotient = regular_quotient(params)
        if quotient is None:
            raise PreconditionError("%s has no regular quotient with two facets" % params)
        print("stage quotient: %s" % quotient.params)

    t0 = time.time()
    result = extend_dually_bipartite(rooted, args.db_s, seed=args.seed)
    q = result.last_entry
    print("stage extend-db: s=%d, last entry %d (2s | %d), %.1fs"
          % (args.db_s, q, q, time.time() - t0))
    if args.mix_s is not None:
        t0 = time.time()
        mix_result = regular_quotient_extension(result.graph, rooted,
                                                quotient.rooted, args.mix_s)
        print("stage mix-extend: s=%d, type %s, last entry lcm(%d,%d)=%d, %.1fs"
              % (args.mix_s, mix_result.schlafli, q, 2 * args.mix_s,
                 mix_result.schlafli[-1], time.time() - t0))
    if not args.out_prefix:
        return EXIT_OK
    # every order is taken before the first file is written
    if args.mix_s is None:
        order = gpr_group(result.graph).order()
    else:
        # the mix acts on P's vertices, the orbit of point 0, as Gamma(P), so
        # the mix's chain gives Gamma(P)'s order too; order() builds the chain
        mix_order = mix_result.group.order()
        orbit = mix_result.group.chain.orbit0
        if len(orbit) != result.graph.num_vertices:
            raise VerificationError("the mix's orbit of point 0 has %d points, not P's %d "
                                    "vertices" % (len(orbit), result.graph.num_vertices))
        order = mix_result.group.orbit_order()
    outputs = [(args.out_prefix + ".extension.json", gpr_to_json(result.graph)),
               (args.out_prefix + ".extend-db.report.json", report_to_json(
                   "extend-db", {"s": args.db_s, "seed": args.seed},
                   result.report.verdicts, orders={"group": order}))]
    if args.mix_s is not None:
        outputs.append((args.out_prefix + ".mix.report.json", report_to_json(
            "mix-extend", {"s": args.mix_s, "q": q}, mix_result.report.verdicts,
            orders={"group": mix_order}, schlafli=mix_result.schlafli)))
    for path, data in outputs:
        save_json(path, data)
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared, so callers must not
    change it: an argparse parser is a web of reference cycles that only the
    cyclic collector frees, and in-process callers run many commands."""
    parser = argparse.ArgumentParser(prog="chirex",
                                     description="chiral maniplex extension toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-map", help="build a toroidal map")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build_map)

    p = sub.add_parser("classify", help="classify a maniplex file")
    p.add_argument("maniplex")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("extend-db", help="dually-bipartite chiral extension")
    p.add_argument("maniplex")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_extend_db)

    p = sub.add_parser("two-sm", help="build the 2s^M maniplex")
    p.add_argument("maniplex")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=_cmd_two_sm)

    p = sub.add_parser("verify-gpr", help="verify the extension criterion")
    p.add_argument("graph")
    p.add_argument("--facet", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify_gpr)

    p = sub.add_parser("mix-extend", help="extension via a regular quotient")
    p.add_argument("--extension", required=True)
    p.add_argument("--facet", required=True)
    p.add_argument("--quotient", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_mix_extend)

    p = sub.add_parser("pipeline", help="build, extend and mix end to end")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--db-s", type=int, required=True)
    p.add_argument("--mix-s", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_IO
    try:
        return args.func(args)
    except VerificationError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    except PreconditionError as exc:
        print("precondition failure: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    except (SchemaError, OSError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
