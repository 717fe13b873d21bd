#!/usr/bin/env python3
"""Full pipeline demo: chiral base map -> matching extension -> mix with
the regular quotient's 2s^R to land on a prescribed last entry.

Usage: python3 scripts/mix_pipeline_demo.py [--s 2]
"""

import argparse
import time

from chirex.extend_db import extend_dually_bipartite
from chirex.mix import regular_quotient_extension
from chirex.toroidal import TorusParams, build_toroidal_map, regular_quotient


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", default="44")
    ap.add_argument("--b", type=int, default=4)
    ap.add_argument("--c", type=int, default=2)
    ap.add_argument("--s", type=int, default=2)
    args = ap.parse_args()

    p = TorusParams(args.family, args.b, args.c)
    K = build_toroidal_map(p)
    print("base map %s, %d flags" % (p, K.maniplex.num_flags))

    quo = regular_quotient(p)
    if quo is None:
        raise SystemExit("%s has no regular quotient with two facets" % p)
    print("regular quotient %s" % quo.params)

    t0 = time.time()
    seed = extend_dually_bipartite(K, 1)
    print("seed extension: last entry q = %d (%.1fs)" % (seed.last_entry, time.time() - t0))

    t0 = time.time()
    result = regular_quotient_extension(seed.graph, K, quo.rooted, args.s)
    print("mixed extension: type %s, group order %d (%.1fs)" % (
        result.schlafli, result.group.order(), time.time() - t0))
    for name, ok, detail in result.report.verdicts:
        print("  %-32s %s %s" % (name, "pass" if ok else "FAIL", detail))


if __name__ == "__main__":
    main()
