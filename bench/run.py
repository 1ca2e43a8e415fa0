"""Benchmark of the lightcone program: one workload per process, closed loop.

    python3 bench/run.py --workload pathlen_gnp --seed 3 --seconds 45 --trace 0
    python3 bench/run.py                          # every workload, one process each

A run builds the workload's inputs from the seed, runs one untimed cycle
of items (counters, digests, warm caches), then repeats the cycle, one
item at a time, stopping at the cycle boundary nearest to ``--seconds``. Every output is checked.
With ``--trace 0`` the program is called unwrapped and the end-to-end
metrics are reported; with ``--trace 1`` each item runs once unwrapped
and once with spans around the program's module functions, and the
per-layer metrics are reported. The last line of stdout is one JSON
object: correct, attempted, failed and the metrics that BENCHMARK.json
names. ``--out`` also writes every metric, counter, digest and span.
The exit code is 1 when any item failed its check and 2 when the
program cannot be imported or the arguments are wrong.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference_digests.json"
WORK_ROOT = ROOT / ".bench_tmp"
RESULTS = ROOT / ".bench_results"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
EXIT_FAILED = 1
EXIT_USAGE = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None,
                   help="workload name (default: run every workload)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="write the full result to this JSON file")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="source tree of the program to measure")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


@contextmanager
def workdir():
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        yield Path(tmp)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it


def git_sha(src: Path) -> str:
    git = src.resolve().parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(src: Path, seed: int) -> dict:
    import lightcone
    import numpy
    import scipy
    return {
        "git_sha": git_sha(src),
        "lightcone": lightcone.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
    }


def call(item):
    """The timed call. A failure is an outcome to count, not a crash."""
    try:
        return item.call()
    except Exception as exc:  # noqa: BLE001 - the loop must keep running
        return exc


def evaluate(item, output, expected: str | None,
             reference: dict | None) -> tuple[str | None, list[str]]:
    """Digest and problems of one item's output.

    ``expected`` is the digest of the item's first run in this process;
    ``reference`` maps item keys to stored digests for this seed.
    """
    if isinstance(output, Exception):
        return None, [f"raised {type(output).__name__}: {output}"]
    try:
        digest, problems = item.check(output)
    except Exception as exc:  # noqa: BLE001 - a broken output is a failure
        return None, [f"check raised {type(exc).__name__}: {exc}"]
    if expected is not None and digest != expected:
        problems.append("output differs from the item's first run")
    if reference is not None:
        want = reference.get(item.key)
        if want is None:
            problems.append("no reference digest for this item")
        elif digest != want:
            problems.append("output differs from the reference digest")
    return digest, problems


def load_reference(workload: str, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_samples(args) -> list[float]:
    """Seconds from starting a fresh process to its first item being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed),
            "--src", str(args.src)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter() - start
            try:
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, "
                               f"exit {proc.returncode}")
        samples.append(ready)
    return samples


def measure(args, workload) -> dict:
    from layers import METRICS, TARGETS, item_counts, layer_metrics
    from spans import Tracer
    from stats import tail

    reference = load_reference(workload.name, args.seed)
    with workdir() as tmp:
        items = workload.build(args.seed, tmp)

        # Untimed first cycle: counters per item, first digests, warm caches.
        warm = Tracer()
        expected, counters, digests, failures = {}, {}, {}, []
        for i, item in enumerate(items):
            with warm.patched(TARGETS), warm.item(i):
                output = call(item)
            digest, _ = evaluate(item, output, None, reference)
            expected[item.key] = digests[item.key] = digest
            counters[item.key] = item_counts(warm, i)
            del output

        # Whole cycles keep the item mix, and so every per-item count,
        # fixed for a seed. The run stops at the cycle boundary nearest
        # to the requested time.
        tracer = Tracer()
        latencies, traced_ids = [], []
        by_item = {False: [[] for _ in items], True: [[] for _ in items]}
        n = k = cycles = 0
        start = time.perf_counter()
        while True:
            item = items[k % len(items)]
            modes = (False,)
            if args.trace:
                modes = (False, True) if k % 2 == 0 else (True, False)
            for wrapped in modes:
                if wrapped:
                    with tracer.patched(TARGETS), tracer.item(n) as root:
                        output = call(item)
                    dt = root.end - root.start
                    traced_ids.append(n)
                else:
                    t0 = time.perf_counter()
                    output = call(item)
                    dt = time.perf_counter() - t0
                _, problems = evaluate(item, output, expected[item.key],
                                       reference)
                del output
                if problems:
                    failures.append({"item": item.key, "problems": problems})
                latencies.append(dt)
                by_item[wrapped][k % len(items)].append(dt)
                n += 1
            k += 1
            if k % len(items) == 0:
                cycles += 1
                elapsed = time.perf_counter() - start
                if elapsed * (1 + 0.5 / cycles) >= args.seconds:
                    break
        rss = peak_rss_mb()

    # Other tenants of a shared machine only ever add time, in phases of
    # seconds, so an item's latency is its fastest repeat in the run.
    best = {wrapped: sum(min(repeats) for repeats in runs)
            for wrapped, runs in by_item.items() if runs[0]}
    metrics: dict[str, tuple[float, str]] = {}
    result = {"attempted": n, "failed": len(failures), "failures": failures,
              "counters": counters, "digests": digests}
    if args.trace:
        units = dict(METRICS)
        layer = layer_metrics(tracer, traced_ids)
        layer["trace.overhead_frac"] = best[True] / best[False] - 1.0
        for name, value in layer.items():
            metrics[name] = (value, units[name])
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.item, s.counts]
                           for s in tracer.spans]
    else:
        busy = best[False]
        item_best = [min(repeats) for repeats in by_item[False]]
        work = {name: sum(counters[item.key].get(counter, 0) for item in items)
                for name, counter in (
                    ("events_per_s", "sim.run.events"),
                    ("sources_per_s", "graphs.measure_avg_path_length.sources"))}
        tail_value, tail_pct = tail(latencies)
        setup = setup_samples(args)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["items_per_s"] = (len(items) / busy, "1/s")
        metrics["item_s.p50"] = (statistics.median(item_best), "s")
        metrics["item_s.p50_all"] = (statistics.median(latencies), "s")
        metrics["item_s.tail"] = (tail_value, "s")
        for name, count in work.items():
            if count:
                metrics[name] = (count / busy, "1/s")
        metrics["peak_rss_mb"] = (rss, "MB")
        metrics["failed_frac"] = (len(failures) / n, "ratio")
        result.update(tail_percentile=tail_pct, setup_samples=setup)
    result["metrics"] = metrics
    result["latencies"] = latencies
    return result


def report(args, result: dict, names: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"items {result['attempted']}  failed {result['failed']}")
    for key, value in result["env"].items():
        print(f"  env {key}: {value}")
    for name, (value, unit) in result["metrics"].items():
        note = ""
        if name == "item_s.tail":
            note = (f"  (p{result['tail_percentile']} of "
                    f"{result['attempted']} items)")
        print(f"  {name:<48} {value:>14.6g} {unit}{note}")
    for failure in result["failures"][:5]:
        print(f"  FAILED {failure['item']}: {'; '.join(failure['problems'])}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name][0],
                           "unit": result["metrics"][name][1]}
                    for name in names},
    }))


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    rows, status = {}, 0
    for name in WORKLOADS:
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(args.trace), "--out", str(out),
                "--src", str(args.src)]
        if args.seconds is not None:
            argv += ["--seconds", str(args.seconds)]
        out.unlink(missing_ok=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        status = status or proc.returncode
        if out.exists():
            rows[name] = json.loads(out.read_text())["metrics"]
    names = list(dict.fromkeys(m for r in rows.values() for m in r))
    print(f"\n{'metric':<48}" + "".join(f"{w:>17}" for w in rows))
    for m in names:
        unit = next(r[m][1] for r in rows.values() if m in r)
        cells = "".join(f"{r[m][0]:>17.6g}" if m in r else f"{'-':>17}"
                        for r in rows.values())
        print(f"{m + ' (' + unit + ')':<48}{cells}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    args.src = args.src.resolve()
    sys.path.insert(0, str(args.src))
    try:
        import lightcone
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the program from {args.src}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if Path(lightcone.__file__).resolve().parent != args.src / "lightcone":
        print(f"error: lightcone was imported from {lightcone.__file__}, "
              f"not from {args.src}", file=sys.stderr)
        return EXIT_USAGE
    if args.workload is None:
        return run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_USAGE
    if args.probe_setup:
        with workdir() as tmp:
            workload.build(args.seed, tmp)
            print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return EXIT_USAGE
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    result = measure(args, workload)
    result.update(workload=args.workload, seconds=args.seconds,
                  trace=args.trace, env=environment(args.src, args.seed))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    report(args, result, names)
    return EXIT_FAILED if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
