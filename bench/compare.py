"""Compare a parent and a change with the benchmark's own decision rule.

    python3 bench/compare.py --parent /path/to/parent --change .
    python3 bench/compare.py --files parent.json change.json

The first form measures both source trees with this copy of the
benchmark, for BENCHMARK.json's ``run_seconds`` a run, in ten
alternating pairs (pair i runs seed i on both sides, and which side runs
first alternates). Each workload gets one row per
end-to-end metric of BENCHMARK.json with each side's median and
quartiles, the pairs the change won, and a verdict: gain, regression,
unresolved or no_change (see ``stats.verdict``). It then runs a held-out
seed once on each side. Any failed item, or any item whose digest or
answer-defining counters differ between the two sides, fails the
comparison (exit 1).

The second form only checks that two result files (``run.py --out``)
agree item by item.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import BENCH, RESULTS, ROOT
from stats import quartiles, verdict, wins

PAIRS = 10
HELD_OUT_SEED = 7919

# Counters that define the answer: a faster program must keep them.
ANSWER_COUNTERS = (
    "sim.run.events",
    "sim.run.spikes",
    "graphs.sample_graph.edges",
    "graphs.measure_avg_path_length.sources",
    "graphs.measure_avg_path_length.component_size",
)


def mismatches(a: dict, b: dict) -> list[str]:
    """Items whose digest or answer-defining counters differ."""
    out = []
    for key in sorted(set(a["digests"]) | set(b["digests"])):
        if a["digests"].get(key) != b["digests"].get(key):
            out.append(f"{key}: digest differs")
            continue
        ca, cb = a["counters"].get(key, {}), b["counters"].get(key, {})
        for name in ANSWER_COUNTERS:
            if ca.get(name) != cb.get(name):
                out.append(f"{key}: {name} {ca.get(name)} != {cb.get(name)}")
    return out


def run_side(src: Path, workload: str, seed: int, out: Path) -> dict:
    """One run; failed items are counted from the result, not the exit code."""
    argv = [sys.executable, str(BENCH / "run.py"), "--src", str(src),
            "--workload", workload, "--seed", str(seed),
            "--trace", "0", "--out", str(out)]
    out.unlink(missing_ok=True)
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if not out.exists():
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return json.loads(out.read_text())


def compare_runs(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    sides = {"parent": args.parent.resolve() / "src",
             "change": args.change.resolve() / "src"}
    problems = []
    print(f"{'workload':<16} {'metric':<13} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                out = RESULTS / f"{workload}-{side}-seed{i}.json"
                runs[side].append(run_side(sides[side], workload, i, out))
        held = {side: run_side(sides[side], workload, HELD_OUT_SEED,
                               RESULTS / f"{workload}-{side}-heldout.json")
                for side in sides}
        pairs = list(zip(runs["parent"], runs["change"])) + [
            (held["parent"], held["change"])]
        for p, c in pairs:
            problems += [f"{workload} seed {p['env']['seed']}: {m}"
                         for m in mismatches(p, c)]
        for side, results in runs.items():
            problems += [f"{workload} {side} seed {r['env']['seed']}: "
                         f"{r['failed']} failed items"
                         for r in results + [held[side]] if r["failed"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name][0] for r in runs["parent"]]
            c = [r["metrics"][name][0] for r in runs["change"]]
            better = metric["better"]
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:<16} {name:<13} {cells[0]:>32} {cells[1]:>32} "
                  f"{wins(p, c, better):>3}/{len(p):<2}  "
                  f"{verdict(p, c, better, metric['bound'])}")
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


def compare_files(a: Path, b: Path) -> int:
    problems = mismatches(json.loads(a.read_text()), json.loads(b.read_text()))
    for problem in problems:
        print(f"FAILED {problem}")
    print("outputs agree" if not problems else f"{len(problems)} mismatches")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--files", nargs=2, type=Path, default=None,
                   metavar=("PARENT_JSON", "CHANGE_JSON"))
    p.add_argument("--parent", type=Path, help="root of the parent checkout")
    p.add_argument("--change", type=Path, help="root of the change checkout")
    args = p.parse_args(argv)
    if args.files:
        return compare_files(*args.files)
    if args.parent is None or args.change is None:
        p.error("give --files, or both --parent and --change")
    return compare_runs(args)


if __name__ == "__main__":
    sys.exit(main())
