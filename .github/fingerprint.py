#!/usr/bin/env python3
"""Gate: what the simulator computes is bit-identical to a committed
fingerprint. Two sets are fingerprinted, each in its own file under
.github/, in one format: a JSON object from run name to an object of
value name to value.

perfbench (perfbench-fingerprint.json): per workload and seed,
sim.events, every model.* value and every deterministic per-layer count
(link.*, switch.*, board.*, classify.*, transport.*, cache.*, proto.*,
lb.*, driver.*) of a traced run. Host times and allocation are not in
it. A workload's run at seed 11 is named after the workload, its run at
seed 9001 "<workload>@9001". Collect the runs from the repository root,
then check them (exit 1 on any difference):

    for w in udp_bulk_pair star_small_pdu fattree_reps_mix; do
      python3 perfbench/run.py --workload $w --seed 11 --seconds 1 \\
        --trace 1 > perfbench-trace-$w.txt
      python3 perfbench/run.py --workload $w --seed 9001 --seconds 1 \\
        --trace 1 > perfbench-trace-$w@9001.txt
    done
    python3 .github/fingerprint.py perfbench check \\
      udp_bulk_pair=perfbench-trace-udp_bulk_pair.txt \\
      udp_bulk_pair@9001=perfbench-trace-udp_bulk_pair@9001.txt \\
      star_small_pdu=perfbench-trace-star_small_pdu.txt \\
      star_small_pdu@9001=perfbench-trace-star_small_pdu@9001.txt \\
      fattree_reps_mix=perfbench-trace-fattree_reps_mix.txt \\
      fattree_reps_mix@9001=perfbench-trace-fattree_reps_mix@9001.txt

figures (figures-fingerprint.json): per figure, every value of its
BENCH.json "experiments" and "metrics", from one bench/main.exe run of
that figure alone, for every id that `bench/main.exe list` prints:

    mkdir -p figures
    for id in $(dune exec bench/main.exe -- list | awk '{print $1}'); do
      OSIRIS_BENCH_JSON=figures/$id.json dune exec bench/main.exe -- $id
    done
    python3 .github/fingerprint.py figures check figures/*.json

A change that means to move the model rewrites the file in the same
commit: the same command with "write" instead of "check".
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PREFIXES = ("model.", "link.", "switch.", "board.", "classify.",
            "transport.", "cache.", "proto.", "lb.", "driver.")


def perfbench_values(path):
    with open(path) as f:
        last = f.read().strip().splitlines()[-1]
    metrics = json.loads(last)["metrics"]
    return {k: v["value"] for k, v in sorted(metrics.items())
            if k == "sim.events" or k.startswith(PREFIXES)}


def flatten(value, path, out):
    if isinstance(value, dict):
        for k in sorted(value):
            flatten(value[k], "%s.%s" % (path, k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            flatten(v, "%s[%d]" % (path, i), out)
    else:
        out[path] = value


def figure_values(path):
    with open(path) as f:
        bench = json.load(f)
    out = {}
    flatten(bench["experiments"], "experiments", out)
    flatten(bench["metrics"], "metrics", out)
    return out


def perfbench_runs(args):
    if not all("=" in a for a in args):
        sys.exit(__doc__)
    return {w: perfbench_values(p)
            for w, p in sorted(a.split("=", 1) for a in args)}


def figure_runs(args):
    return {os.path.splitext(os.path.basename(p))[0]: figure_values(p)
            for p in sorted(args)}


def perfbench_regenerate(runs):
    workloads = sorted({r.split("@")[0] for r in runs})
    names = [n for w in workloads for n in (w, w + "@9001")]
    return [
        "for w in %s; do "
        "python3 perfbench/run.py --workload $w --seed 11 --seconds 1 "
        "--trace 1 > perfbench-trace-$w.txt; "
        "python3 perfbench/run.py --workload $w --seed 9001 --seconds 1 "
        "--trace 1 > perfbench-trace-$w@9001.txt; done"
        % " ".join(workloads),
        "python3 %s perfbench write %s" % (
            os.path.relpath(__file__),
            " ".join("%s=perfbench-trace-%s.txt" % (n, n) for n in names)),
    ]


def figure_regenerate(_runs):
    return [
        "mkdir -p figures; for id in $(dune exec bench/main.exe -- list "
        "| awk '{print $1}'); do "
        "OSIRIS_BENCH_JSON=figures/$id.json dune exec bench/main.exe -- $id; "
        "done",
        "python3 %s figures write figures/*.json" % os.path.relpath(__file__),
    ]


SETS = {
    "perfbench": ("perfbench-fingerprint.json", perfbench_runs,
                  perfbench_regenerate),
    "figures": ("figures-fingerprint.json", figure_runs, figure_regenerate),
}


def main(argv):
    if len(argv) < 4 or argv[1] not in SETS or argv[2] not in ("check",
                                                               "write"):
        sys.exit(__doc__)
    name, collect, regenerate = SETS[argv[1]]
    fingerprint = os.path.join(HERE, name)
    got = collect(argv[3:])
    if argv[2] == "write":
        with open(fingerprint, "w") as f:
            json.dump(got, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s (%s)" % (fingerprint, ", ".join(got)))
        return 0
    with open(fingerprint) as f:
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
              % (len(diffs), os.path.relpath(fingerprint)))
        for d in diffs:
            print("  " + d)
        print("If the change is intended, regenerate the fingerprint in the "
              "same commit, from the repository root:")
        for line in regenerate(got):
            print("  " + line)
        return 1
    print("%s fingerprint identical: %s" % (argv[1], ", ".join(
        "%s (%d values)" % (w, len(got[w])) for w in got)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
