#!/usr/bin/env python3
"""Gate: what the simulator computes on perfbench's workloads is
bit-identical to the committed fingerprint.

A workload's fingerprint is sim.events, every model.* value and every
deterministic per-layer count (link.*, switch.*, board.*, classify.*,
transport.*, cache.*, proto.*, lb.*, driver.*) of a traced run at seed
11. Host times and allocation are not in it. Collect the runs from the
repository root, then check them against the committed file (exit 1 on
any difference):

    for w in udp_bulk_pair star_small_pdu fattree_reps_mix; do
      python3 perfbench/run.py --workload $w --seed 11 --seconds 1 \\
        --trace 1 > perfbench-trace-$w.txt
    done
    python3 .github/perfbench_fingerprint.py check \\
      udp_bulk_pair=perfbench-trace-udp_bulk_pair.txt \\
      star_small_pdu=perfbench-trace-star_small_pdu.txt \\
      fattree_reps_mix=perfbench-trace-fattree_reps_mix.txt

A change that means to move the model rewrites the file in the same
commit: the same command with "write" instead of "check".
"""

import json
import os
import sys

FINGERPRINT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "perfbench-fingerprint.json")
PREFIXES = ("model.", "link.", "switch.", "board.", "classify.",
            "transport.", "cache.", "proto.", "lb.", "driver.")


def fingerprint(path):
    with open(path) as f:
        last = f.read().strip().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    return {k: v["value"] for k, v in sorted(metrics.items())
            if k == "sim.events" or k.startswith(PREFIXES)}


def main(argv):
    if len(argv) < 3 or argv[1] not in ("check", "write") \
            or not all("=" in a for a in argv[2:]):
        sys.exit(__doc__)
    runs = dict(a.split("=", 1) for a in argv[2:])
    got = {w: fingerprint(p) for w, p in sorted(runs.items())}
    if argv[1] == "write":
        with open(FINGERPRINT, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s (%s)" % (FINGERPRINT, ", ".join(got)))
        return 0
    with open(FINGERPRINT) as f:
        want = json.load(f)
    diffs = []
    for w in sorted(set(want) | set(got)):
        if w not in got:
            diffs.append("%s: not run" % w)
            continue
        if w not in want:
            diffs.append("%s: not in the fingerprint" % w)
            continue
        for k in sorted(set(want[w]) | set(got[w])):
            if want[w].get(k) != got[w].get(k):
                diffs.append("%s %s: committed %s, now %s"
                             % (w, k, want[w].get(k), got[w].get(k)))
    if diffs:
        print("::error::the model moved: %d value(s) differ from %s"
              % (len(diffs), os.path.relpath(FINGERPRINT)))
        for d in diffs:
            print("  " + d)
        print("If the change is intended, regenerate the fingerprint in the "
              "same commit, from the repository root:")
        print("  for w in %s; do python3 perfbench/run.py --workload $w "
              "--seed 11 --seconds 1 --trace 1 > perfbench-trace-$w.txt; done"
              % " ".join(sorted(runs)))
        print("  python3 %s write %s" % (
            os.path.relpath(__file__),
            " ".join("%s=perfbench-trace-%s.txt" % (w, w)
                     for w in sorted(runs))))
        return 1
    print("model fingerprint identical: %s"
          % ", ".join("%s (%d values)" % (w, len(got[w])) for w in got))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
