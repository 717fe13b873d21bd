#!/usr/bin/env python3
"""Run the dually-bipartite matching extension for a range of s values
and report the verified last Schlafli entry q of each; with --order, also
the exact order of the rotation group (a stabiliser chain, the slow part
at large s) and its chain's base length, Schreier generators sifted and
sift rounds.

Usage: python3 scripts/db_extension_sweep.py [--b 3] [--c 1] [--smax 3] [--seed N] [--order]
"""

import argparse
import time

from chirex.extend_db import extend_dually_bipartite
from chirex.gpr import gpr_group
from chirex.toroidal import TorusParams, build_toroidal_map


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", default="44")
    ap.add_argument("--b", type=int, default=3)
    ap.add_argument("--c", type=int, default=1)
    ap.add_argument("--smax", type=int, default=3)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--order", action="store_true", help="also print the group order")
    args = ap.parse_args()

    p = TorusParams(args.family, args.b, args.c)
    K = build_toroidal_map(p)
    print("base map %s with %d flags" % (p, K.maniplex.num_flags))
    order_columns = " %16s %4s %8s %6s" % ("group order", "base", "schreier", "rounds") \
        if args.order else ""
    print("%3s %9s %11s%s %7s" % ("s", "vertices", "last entry", order_columns, "time"))
    for s in range(1, args.smax + 1):
        t0 = time.time()
        result = extend_dually_bipartite(K, s, seed=args.seed)
        row = "%3d %9d %11d" % (s, result.graph.num_vertices, result.last_entry)
        if args.order:
            group = gpr_group(result.graph)
            stats = group.chain.stats()
            row += " %16d %4d %8d %6d" % (group.order(), stats["base_length"],
                                          stats["schreier_sifts"], stats["sift_rounds"])
        print(row + " %6.1fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
