#!/usr/bin/env python3
"""A/B wall-clock comparison of this tree against a git revision.

Usage (from anywhere inside the repository):

    scripts/perf_ab.py REV [--pairs N] [--workloads W[,W...]] [--trace 0|1]
                           [--seed-base S] [--record FILE]

REV is exported with `git archive` into a temporary directory under
${TMPDIR:-/tmp} (removed on exit), as scripts/check_trajectory_identity.sh
does.

For each workload, N pairs of `perfbench/run.py --workload W --seed S
--seconds T --trace X` run one after the other, one in REV's export and one
in this tree; T is BENCHMARK.json's run_seconds.  Both runs of a pair share
the pair's seed, and the side that runs first alternates from pair to pair,
so a drift in a shared host's speed falls on both sides alike.  Each side
builds its own perfbench package in its own .bench_build/ on its first run.

The report gives, per workload and per end-to-end metric of BENCHMARK.json
(names, units and directions come from there), each side's median and
quartiles, the median of the per-pair change/base ratios, how many pairs the
change won (strictly better in the metric's direction) and the failed
operations of each side.  With --trace 1 the per-layer metrics are listed
too.  --record FILE appends the comparison, per-pair values included, as
one record of the JSON array in FILE (created when absent), one record
per line.  A record names each side by commit and by the git tree ids of
src/ and perfbench/, the two trees perfbench builds.  The change's ids cover
uncommitted edits of tracked files, so a commit holds the measured program
when `git rev-parse COMMIT:src` and `COMMIT:perfbench` give them.  When
those files change during the A/B, nothing is recorded.

Exit status: 0 when every run produced a result and src/ and perfbench/
held still, 1 otherwise, 2 on bad arguments.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILT = ("src", "perfbench")  # the trees perfbench/run.py builds from
RUN_TIMEOUT_S = 240  # perfbench/run.py stops its own program at 170 s


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev, into):
    """Writes REV's tree into `into` with git archive | tar."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def built_trees(commit):
    """Git tree ids of the BUILT directories at `commit`."""
    return {top: git("rev-parse", f"{commit}:{top}") for top in BUILT}


def working_built_trees():
    """built_trees() of the tracked files as they are on disk."""
    stash = git("stash", "create")  # a dangling commit; empty when clean
    return built_trees(stash or "HEAD")


def run_perfbench(tree, workload, seed, seconds, trace):
    """One perfbench run; returns its JSON result, or None when it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"  {workload} seed {seed} in {tree}: timed out",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed} in {tree}: exit {proc.returncode}\n"
              + proc.stderr[-2000:], file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"  {workload} seed {seed} in {tree}: no JSON result",
              file=sys.stderr)
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, base_runs, change_runs):
    """Side statistics and per-pair comparison for one metric, over the
    pairs in which both sides reported it."""
    name, better = metric["name"], metric["better"]
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base_runs, change_runs)
             if b and c and name in b["metrics"] and name in c["metrics"]]
    if not pairs:
        return None
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    if better == "higher":
        wins = sum(c > b for b, c in pairs)
    else:
        wins = sum(c < b for b, c in pairs)
    ratios = [c / b if b else float("nan") for b, c in pairs]
    bq, cq = quartiles(base), quartiles(change)
    return {
        "unit": metric["unit"],
        "better": better,
        "base": {"q1": bq[0], "median": bq[1], "q3": bq[2], "values": base},
        "change": {"q1": cq[0], "median": cq[1], "q3": cq[2],
                   "values": change},
        "ratio_median": statistics.median(ratios),
        "ratios": ratios,
        "wins": wins,
        "pairs": len(pairs),
    }


def fmt(x):
    return f"{x:.4g}"


def print_table(rows):
    if not rows:
        return
    print(f"  {'metric':<34} {'unit':<6} {'base median [q1, q3]':<28} "
          f"{'change median [q1, q3]':<28} {'ratio':>7} {'wins':>6}")
    for name, s in rows:
        b, c = s["base"], s["change"]
        print(f"  {name:<34} {s['unit']:<6} "
              f"{fmt(b['median']) + ' [' + fmt(b['q1']) + ', ' + fmt(b['q3']) + ']':<28} "
              f"{fmt(c['median']) + ' [' + fmt(c['q1']) + ', ' + fmt(c['q3']) + ']':<28} "
              f"{s['ratio_median']:>7.3f} {str(s['wins']) + '/' + str(s['pairs']):>6}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="base revision (any commit-ish)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ", ".join(names))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed-base", type=int, default=1,
                        help="pair k runs with seed SEED_BASE + k")
    parser.add_argument("--record", metavar="FILE",
                        help="append the comparison to the JSON array in FILE")
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or any(w not in names for w in workloads):
        parser.error("need --pairs >= 1 and workloads from BENCHMARK.json")
    try:
        rev = git("rev-parse", "--verify", args.rev + "^{commit}")
    except subprocess.CalledProcessError:
        parser.error(f"unknown revision: {args.rev}")
    head = git("rev-parse", "HEAD")
    change_trees = working_built_trees()
    dirty = change_trees != built_trees("HEAD")
    seconds = bench["run_seconds"]

    work = tempfile.mkdtemp(prefix="antmd_perf_ab.")
    ok = True
    record = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "base": {"commit": rev, **built_trees(rev)},
        "change": {"commit": head, "uncommitted": dirty, **change_trees},
        "pairs": args.pairs, "seconds": seconds, "trace": args.trace,
        "seed_base": args.seed_base, "nproc": os.cpu_count(),
        "workloads": {},
    }
    try:
        base_tree = os.path.join(work, "base")
        os.makedirs(base_tree)
        export(rev, base_tree)
        print(f"base {rev[:10]} vs change {head[:10]}"
              f"{' + uncommitted changes' if dirty else ''} "
              f"(src {change_trees['src'][:10]}): "
              f"{args.pairs} pairs x {', '.join(workloads)}, "
              f"{seconds:g} s, trace {args.trace}")
        for workload in workloads:
            base_runs, change_runs = [], []
            for k in range(args.pairs):
                seed = args.seed_base + k
                sides = [("base", base_tree), ("change", ROOT)]
                if k % 2:
                    sides.reverse()
                result = {}
                for side, tree in sides:
                    result[side] = run_perfbench(tree, workload, seed,
                                                 seconds, args.trace)
                    ok = ok and result[side] is not None
                base_runs.append(result["base"])
                change_runs.append(result["change"])
                print(f"  {workload} pair {k + 1}/{args.pairs} (seed {seed}, "
                      f"{sides[0][0]} first) done", flush=True)

            def failures(runs):
                return (sum(r["failed"] for r in runs if r),
                        sum(r["attempted"] for r in runs if r),
                        sum(r is None for r in runs))

            entry = {"end_to_end": {}, "per_layer": {}}
            for group in ("end_to_end", "per_layer"):
                if group == "per_layer" and not args.trace:
                    continue
                for metric in bench[group]:
                    s = summarize(metric, base_runs, change_runs)
                    if s:
                        entry[group][metric["name"]] = s
            for side, runs in (("base", base_runs), ("change", change_runs)):
                failed, attempted, lost = failures(runs)
                entry[side + "_failed"] = failed
                entry[side + "_attempted"] = attempted
                entry[side + "_runs_without_result"] = lost
            record["workloads"][workload] = entry

            print(f"\n{workload} ({args.pairs} pairs)")
            print_table(list(entry["end_to_end"].items()))
            if entry["per_layer"]:
                print("  per layer:")
                print_table(list(entry["per_layer"].items()))
            print(f"  failed operations: base {entry['base_failed']}/"
                  f"{entry['base_attempted']}, change "
                  f"{entry['change_failed']}/{entry['change_attempted']}; "
                  f"runs without a result: base "
                  f"{entry['base_runs_without_result']}, change "
                  f"{entry['change_runs_without_result']}\n", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if working_built_trees() != change_trees:
        print("src/ or perfbench/ changed during the A/B: its change side "
              "mixes two programs, so nothing is recorded", file=sys.stderr)
        return 1
    if args.record:
        records = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                records = json.load(f)
        records.append(record)
        with open(args.record, "w") as f:
            f.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True)
                                        for r in records) + "\n]\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
