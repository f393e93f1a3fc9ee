"""One run of one workload, in a fresh process started by run.py.

Prints one JSON line: the item times, the operation counts, the set-up time
and, with --trace 1, the per-layer metrics.  The set-up time runs from the
parent's clock reading just before it started this process (--t0, wall
clock, so comparable across processes) to the first timed item.

Every time is given twice: as wall time ("wall", "setup_wall_s") and scaled
to the reference speed by the machine-speed references taken just before
and just after it (``speed.py``; "times", "setup_s").  For the set-up time
of an in-process workload the reference before is the parent's (--ref0).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from speed import reference, scaled

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# import-only processes per cli run whose median is the cli set-up time
CLI_SETUP_SAMPLES = 5
MAX_PROBLEMS = 20


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Tally:
    """Operations attempted and failed, plus the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # failed because an output check rejected it
        self.problems = []

    def fail(self, problem, wrong):
        self.failed += 1
        self.wrong += int(wrong)
        self.note(problem)

    def note(self, problem):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def run_inprocess(args, tracer):
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    for item in wl.warmup_items:
        wl.run(item)
    setup_wall_s = time.time() - args.t0
    setup_s = scaled(setup_wall_s, args.ref0, reference())
    if args.setup_only:
        return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    tally = Tally()
    times, wall = [], []
    run_log = []                # (final key, failed) per attempted item
    start = time.perf_counter()
    for rnd in wl.rounds():
        outs = []
        failed_here = []
        for item in rnd:
            tally.attempted += 1
            r0 = reference()
            if tracer:
                tracer.begin_item(wl.name)
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
                err = None
            except Exception as exc:        # the run goes on; counted below
                out, err = None, exc
            t1 = time.perf_counter()
            if tracer:
                tracer.end_item()
            r1 = reference()
            wall.append(t1 - t0)
            times.append(scaled(t1 - t0, r0, r1))
            problem = (f"{type(err).__name__}: {err}" if err
                       else wl.check(item, out))
            if problem:
                tally.fail(problem, wrong=err is None)
            outs.append(out)
            failed_here.append(bool(problem))
        for key, problem in wl.end_round(rnd, outs):
            tally.note(problem)
            for i, item in enumerate(rnd):
                if item[2] == key and not failed_here[i]:
                    failed_here[i] = True
                    tally.fail(problem, wrong=True)
        run_log += [(wl.final_key(item), f)
                    for item, f in zip(rnd, failed_here)]
        if time.perf_counter() - start >= args.seconds:
            break
    for key, problem in wl.final():
        tally.note(problem)
        if key is None:             # a property of the whole corpus
            tally.wrong += 1
            continue
        for i, (k, f) in enumerate(run_log):
            if k == key and not f:
                run_log[i] = (k, True)
                tally.fail(problem, wrong=True)
    return {"times": times, "wall": wall, "setup_s": setup_s,
            "setup_wall_s": setup_wall_s, "tally": tally.__dict__,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _cli_in_process(argv):
    from cuspidor import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:           # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                   # a traceback, as the CLI would
            rc = 1
    return rc, buf.getvalue()


def _cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "cuspidor.cli", *argv],
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=170)
    return proc.returncode, proc.stdout


def run_cli(args, tracer):
    from cli_batch import build_batch, outcome, pair_problems
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        batch = build_batch(workdir, args.seed)
        samples, wall_samples = [], []
        if not tracer:
            for _ in range(CLI_SETUP_SAMPLES):
                r0 = reference()
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import cuspidor.cli"],
                               cwd=ROOT, env=child_env(), check=True)
                t1 = time.perf_counter()
                wall_samples.append(t1 - t0)
                samples.append(scaled(t1 - t0, r0, reference()))
        call = _cli_in_process if tracer else _cli_subprocess
        tally = Tally()
        times, wall = [], []
        start = time.perf_counter()
        while True:
            pairs = []
            for argv, check, invalid in batch:
                tally.attempted += 1
                r0 = reference()
                if tracer:
                    tracer.begin_item("cli")
                t0 = time.perf_counter()
                rc, stdout = call(argv)
                t1 = time.perf_counter()
                if tracer:
                    tracer.end_item()
                wall.append(t1 - t0)
                times.append(scaled(t1 - t0, r0, reference()))
                status, problem = outcome(argv, check, invalid, rc, stdout)
                if problem:
                    tally.fail(f"{' '.join(argv)}: {problem}",
                               wrong=status == "wrong")
                elif argv[0] == "theta-sum":
                    pairs.append((argv, stdout))
            for _, problem in pair_problems(pairs):
                tally.fail(problem, wrong=True)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"times": times, "wall": wall,
            "setup_s": statistics.median(samples) if samples else None,
            "setup_wall_s": (statistics.median(wall_samples)
                             if wall_samples else None),
            "tally": tally.__dict__,
            "peak_rss_kib": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--ref0", type=float, required=True)
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    if args.workload == "cli":
        result = run_cli(args, tracer)
    else:
        result = run_inprocess(args, tracer)
    if tracer:
        result["per_layer"] = tracer.metrics()
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
