"""The cuspidor benchmark: one command, four workloads.

    python3 bench/run.py --workload oracle --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Each run starts the workload in a fresh Python process (bench/worker.py),
which builds its inputs from the seed, runs whole rounds of items in a closed
loop with one caller until --seconds have passed, and checks every output.
Every time is scaled to a fixed machine speed measured next to it
(bench/speed.py); the wall times are printed on standard error.
With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 a separate, traced process reports the
per-layer metrics instead.  --workload all runs every workload in turn and
prints a table before the JSON line.

The program is taken from src/ next to this directory; without it the
benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("oracle", "tori", "charsum", "cli")

# set-up samples per in-process run: this many set-up-only processes plus
# the measured run itself; setup_s is their median
SETUP_ONLY_RUNS = 4
IMPORT_TIME_RUNS = 3
CHILD_TIMEOUT = 170


def _spawn(args):
    """Run the worker; returns its JSON result, or exits on failure."""
    ref0 = reference()
    proc = subprocess.run([sys.executable, WORKER, *args, "--ref0",
                           repr(ref0), "--t0", repr(time.time())],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker failed with exit {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _import_times():
    """Median cumulative import time of cuspidor.cli and of numpy, seconds."""
    from worker import child_env
    cli, numpy = [], []
    for _ in range(IMPORT_TIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cuspidor.cli"],
            capture_output=True, text=True, cwd=ROOT, env=child_env(),
            check=True)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("cuspidor.cli", "numpy"):
                (cli if parts[2] == "cuspidor.cli" else numpy).append(
                    int(parts[1]) / 1e6)
    return statistics.median(cli), statistics.median(numpy)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        res = _spawn(common)
        times, wall = res["times"], res["wall"]
        sys.stderr.write(f"[{workload}] traced items_per_s "
                         f"{len(times) / sum(times):.4g} at reference speed, "
                         f"{len(wall) / sum(wall):.4g} in wall time\n")
        metrics = {name: _metric(v, u)
                   for name, (v, u) in res["per_layer"].items()}
        cli_s, numpy_s = _import_times()
        metrics["cli.import_s"] = _metric(cli_s, "s")
        metrics["cli.import_numpy_s"] = _metric(numpy_s, "s")
    else:
        setups = []
        if workload != "cli":
            setups = [_spawn(common + ["--setup-only"])
                      for _ in range(SETUP_ONLY_RUNS)]
        res = _spawn(common)
        setups.append(res)
        times = res["times"]
        wall = res["wall"]
        setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
        sys.stderr.write(
            f"[{workload}] wall time: items_per_s {len(wall) / sum(wall):.4g}"
            f", item_p50_ms {statistics.median(wall) * 1e3:.4g}"
            f", setup_s {setup_wall:.4g}\n")
        metrics = {
            "items_per_s": _metric(len(times) / sum(times), "1/s"),
            "item_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
            "item_p90_ms": _metric(
                statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
            "setup_s": _metric(
                statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mib": _metric(res["peak_rss_kib"] / 1024, "MiB"),
        }
    tally = res["tally"]
    for problem in tally["problems"]:
        sys.stderr.write(f"[{workload}] {problem}\n")
    return {"correct": tally["wrong"] == 0, "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cuspidor", "__init__.py")):
        sys.exit(f"no program source at {os.path.join(ROOT, 'src')}: "
                 "run from a checkout of the repository")
    sys.path.insert(0, HERE)
    # one CPU for this process and every process it starts (they run one at
    # a time), so that the references and the items share a CPU; unpinned,
    # the cli commands ran wherever the scheduler put them, and the
    # references did not follow them
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 args.trace)))
        return
    results = {}
    for name in WORKLOAD_NAMES:
        res = measure(name, args.seed, args.seconds, args.trace)
        results[name] = res
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
        sys.stdout.flush()
    print(json.dumps(results))


if __name__ == "__main__":
    main()
