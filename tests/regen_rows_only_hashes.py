"""Regenerate or check tests/fixtures/rows_only_hashes.json — the
committed self-consistency fingerprints for every query WITHOUT a
DuckDB oracle (VERDICT r4 item 5), at sf0.001 and sf0.01.

    python tests/regen_rows_only_hashes.py --check [NAME ...]

recomputes the pins (all, or the named queries), writes nothing, and
exits 1 naming each query that drifted. After an INTENTIONAL semantics
change,

    python tests/regen_rows_only_hashes.py [NAME ...]

rewrites the named pins (every pin when none is named) and keeps the
others; commit the diff (the diff IS the review surface: an unexplained
hash change in an unrelated PR is a regression). Name the queries you
meant to change: a pin that depends on the host's BLAS kernel
(``blob_near_dup``, see ROADMAP) moves with a full rewrite on another
host."""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

SF_DIRS = ["/root/testdata/sf0.001", "/root/testdata/sf0.01"]
OUT = os.path.join(os.path.dirname(__file__), "fixtures",
                   "rows_only_hashes.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute and compare; write nothing, exit 1 "
                         "on drift")
    ap.add_argument("names", nargs="*",
                    help="rows-only queries to recompute (default: all)")
    args = ap.parse_args(argv)

    import ray

    from wine_label_ocr_ray.pipelines._qutil import result_fingerprint
    from wine_label_ocr_ray.pipelines.queries import ORACLE_SQL, QUERIES

    rows_only = sorted(n for n in QUERIES if n not in ORACLE_SQL)
    unknown = sorted(set(args.names) - set(rows_only))
    if unknown:
        ap.error(f"not rows-only queries: {', '.join(unknown)}")
    names = args.names or rows_only
    pins = {}
    if os.path.exists(OUT) and (args.check or args.names):
        with open(OUT) as f:
            pins = json.load(f)

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)
    drifted = []
    for sf_dir in SF_DIRS:
        tag = os.path.basename(sf_dir)
        have = pins.setdefault(tag, {})
        for name in names:
            got = result_fingerprint(QUERIES[name](sf_dir))
            pinned = have.get(name)
            print(f"{tag}/{name}: {got}"
                  + ("" if pinned == got else f" (pinned {pinned})"))
            if pinned != got:
                drifted.append(f"{tag}/{name}")
            if not args.check:
                have[name] = got
    ray.shutdown()

    if args.check:
        print("drifted: " + ", ".join(drifted) if drifted else "no drift")
        return 1 if drifted else 0
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
