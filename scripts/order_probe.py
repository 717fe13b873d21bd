#!/usr/bin/env python3
"""Time the group order of s = 1 extensions on the dense chain and on the
product form, each in a fresh process.

For every case and repeat the script starts one process per kind, and
alternates which kind starts first. A process builds the extension
untimed, then times the group's construction and its order with
``time.perf_counter``:

* ``dense`` is ``gpr_group(G).order()``, the chain on all 2sW vertices;
* ``product`` is ``faithful_group(G).order()``, the chain on W + 2 points
  where the extension is a product (every s = 1 extension), its product
  check included.

Each process prints one JSON line (case, kind, degree, order, order_s,
peak_rss_mb), and each case ends with a line of the medians. A case is
FAMILY:B:C:S or FAMILY:B:C:S:SEED, the last a Step-3 seed.

Usage: python3 scripts/order_probe.py [--case 44:5:1:1 ...] [--repeats 5]
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

DEFAULT_CASES = ["44:3:1:1", "44:5:1:1", "44:7:1:1", "44:7:1:1:3"]
KINDS = ("dense", "product")


def measure(case: str, kind: str) -> dict:
    from chirex.extend_db import extend_dually_bipartite
    from chirex.gpr import faithful_group, gpr_group
    from chirex.toroidal import TorusParams, build_toroidal_map

    family, b, c, s, *seed = case.split(":")
    K = build_toroidal_map(TorusParams(family, int(b), int(c)))
    G = extend_dually_bipartite(K, int(s), seed=int(seed[0]) if seed else None).graph
    t0 = time.perf_counter()
    group = (gpr_group if kind == "dense" else faithful_group)(G)
    order = group.order()
    elapsed = time.perf_counter() - t0
    return {"case": case, "kind": kind, "degree": group.degree, "order": str(order),
            "order_s": round(elapsed, 5),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", action="append", default=None)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--child", nargs=2, metavar=("CASE", "KIND"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(*args.child)))
        return
    for case in args.case or DEFAULT_CASES:
        times = {kind: [] for kind in KINDS}
        orders = set()
        for rep in range(args.repeats):
            for kind in KINDS[::-1] if rep % 2 else KINDS:
                out = subprocess.run([sys.executable, __file__, "--child", case, kind],
                                     capture_output=True, text=True, check=True).stdout
                line = json.loads(out)
                print(json.dumps(line), flush=True)
                times[kind].append(line["order_s"])
                orders.add(line["order"])
        if len(orders) != 1:
            raise SystemExit("%s: the orders disagree: %s" % (case, sorted(orders)))
        medians = {kind: statistics.median(t) for kind, t in times.items()}
        print(json.dumps({"case": case, "median_s": medians,
                          "dense_over_product": round(medians["dense"] / medians["product"], 3)}),
              flush=True)


if __name__ == "__main__":
    main()
