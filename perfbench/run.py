"""Benchmark of the `icm` CLI verbs, called in-process from one closed loop.

    python3 perfbench/run.py --workload tent-pairs --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; `icm` is imported from `src/`. Set-up
(importing `icm`, drawing the inputs and writing them as `.pwl` files) is
repeated SETUP_REPEATS times, before and after the loop, and its median
reported. The loop calls `icm.cli.main(argv)` one op after the other, timing
only the call, in whole passes over the workload's ops (each pass in an
order drawn from the seed) until `--seconds` have passed and at least
MIN_CALLS calls are made. Peak memory is read when the loop ends; only then
is each distinct output checked. With `--trace 1` each op runs twice,
untraced and traced in alternating order, so that the tracing overhead is
measured on the same calls, and the per-layer metrics come from the traced
calls. The last line of stdout is one JSON object with the metrics that
BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
SETUP_BEFORE = 5  # the rest run after the timed loop
MIN_CALLS = 100  # so that at least 10 calls lie beyond the 90th percentile
MAX_LOOP_S = 120  # stop inside a pass after this, to end well within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


def _purge_icm() -> None:
    for name in [n for n in sys.modules if n == "icm" or n.startswith("icm.")]:
        del sys.modules[name]


def set_up(build, workdir: Path):
    """Import `icm` afresh and build the inputs; returns (icm, pool, secs)."""
    _purge_icm()
    if workdir.exists():
        shutil.rmtree(workdir)
    start = time.perf_counter()
    icm = importlib.import_module("icm")
    importlib.import_module("icm.cli")
    workdir.mkdir(parents=True)
    pool = build(icm, workdir)
    return icm, pool, time.perf_counter() - start


def call(cli, argv: list[str]):
    """One timed `cli.main(argv)`; returns (exit code or None, stdout, secs)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):
            code = None
        elapsed = time.perf_counter() - start
    if code is None:
        print(f"op {argv} raised:\n{err.getvalue()}", file=sys.stderr)
    return code, out.getvalue(), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "icm" / "__init__.py").is_file():
        print(f"error: no icm sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))

    workroot = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        reps = iter(range(SETUP_REPEATS))

        def set_up_next():
            return set_up(WORKLOADS[args.workload], workroot / str(next(reps)))

        setups = []
        for _ in range(SETUP_BEFORE):
            icm, pool, secs = set_up_next()
            setups.append(secs)
        if Path(icm.__file__).resolve().parent != (src / "icm").resolve():
            print(f"error: imported icm from {icm.__file__}", file=sys.stderr)
            return 2
        return run(args, spec, sys.modules["icm.cli"], pool, setups,
                   set_up_next)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.parent.rmdir()  # only when no other run is using it


def run(args, spec, cli, pool, setups, set_up_next) -> int:
    plain, traced = [], []  # seconds per call
    tracer = Tracer() if args.trace else None
    kept = traced if tracer else plain
    rng = random.Random(args.seed)
    index = whole = 0
    cut = False
    start = time.perf_counter()
    while not cut:
        order = pool.groups[:]
        rng.shuffle(order)
        for group in order:
            if time.perf_counter() - start >= MAX_LOOP_S:
                cut = True
                break
            for op in group:
                modes = ((False,) if tracer is None
                         else (False, True) if index % 2 == 0
                         else (True, False))
                for trace_on in modes:
                    if trace_on:
                        tracer.op_id = index
                        tracer.install()
                    try:
                        code, out, secs = call(cli, op.argv)
                    finally:
                        if trace_on:
                            tracer.uninstall()
                    (traced if trace_on else plain).append(secs)
                    op.seen[code, out] += 1
                index += 1
        else:
            whole += 1
            if (time.perf_counter() - start >= args.seconds
                    and len(kept) >= MIN_CALLS):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The other set-ups run now, so that set-up time samples the machine's
    # speed at both ends of the run rather than in one burst.
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_next()[2])
    if cut:
        print(f"warning: stopped inside pass {whole + 1} after {MAX_LOOP_S} s "
              f"with {len(kept)} calls", file=sys.stderr)

    attempted = len(plain) + len(traced)
    failed = 0
    for group in pool.groups:
        for op in group:
            for (code, out), count in op.seen.items():
                if not op.accepts(code, out):
                    failed += count
                    print(f"check failed: {op.argv} exit {code}",
                          file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for key, value in pool.properties.items():
        print(f"input {key} = {value:.4g}")
    print(f"ops_failed_ratio = {failed / attempted:.4g} "
          f"({failed} of {attempted} calls)")
    if tracer is None:
        metrics = {
            "ops_per_s": len(plain) / sum(plain),
            "op_p50_ms": statistics.median(plain) * 1e3,
            "op_p90_ms": statistics.quantiles(plain, n=10)[8] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        declared = spec["end_to_end"]
        print(f"samples: {len(plain)} calls of {whole} whole passes in "
              f"{sum(plain):.3f} s timed, "
              f"{sum(v > metrics['op_p90_ms'] / 1e3 for v in plain)} beyond "
              f"p90; {len(setups)} set-ups")
    else:
        metrics = tracer.summary(len(traced))
        metrics["trace.overhead_ratio"] = sum(plain) / sum(traced)
        metrics["trace.self_sum_ratio"] = tracer.self_total() / sum(traced)
        for key, value in pool.properties.items():
            metrics[f"input.{key}"] = value
        declared = spec["per_layer"]
        outdir = ROOT / ".perfbench-out"
        outdir.mkdir(exist_ok=True)
        path = outdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(path)
        print(f"samples: {len(traced)} traced and {len(plain)} untraced "
              f"calls; {len(tracer.spans)} spans written to {path}")
    result = {}
    for entry in declared:
        value = float(metrics.get(entry["name"], 0.0))
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
