#!/usr/bin/env python3
"""Benchmark of regpara's model <-> paracontrolled translation.

    python3 perfbench/run.py --workload toy-1d-32k --seed 1 --seconds 50 --trace 0

Runs whole passes of one workload back to back for --seconds seconds in this
single-threaded process, checks every output, and prints as its last line
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (model_s, md_s, setup_s,
peak_rss_mb); with --trace 1 every other pass is traced, the metrics are the
per-layer ones, and the spans are written to
perfbench/out/trace-<workload>-seed<n>.json.  See perfbench/README.md.
"""
import os

# Pin every thread pool before numpy loads: REGPARA_THREADS for the
# validators, the rest for BLAS/OpenMP (np.polyfit goes through BLAS).
for _var in ("REGPARA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {"toy-1d-32k": "pipeline", "toy-2d-512": "pipeline", "cli-512": "clichain"}
SETUP_SAMPLES = 5          # this process plus four fresh child processes
CHILD_TIMEOUT_S = 60


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def load(workload: str, seed: int):
    """Import the package and make the first pass's inputs; returns the
    workload module, its inputs and the wall time from before the import."""
    t0 = time.perf_counter()
    mod = importlib.import_module(WORKLOADS[workload])
    inputs = mod.setup(workload, seed, OUT / f"{workload}-{os.getpid()}")
    setup_s = time.perf_counter() - t0
    import regpara

    if Path(regpara.__file__).resolve().parent != (SRC / "regpara").resolve():
        raise RuntimeError(f"regpara imported from {regpara.__file__}, not {SRC}")
    return mod, inputs, setup_s


def child_setup_s(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(mod, inputs):
    """Times every step; returns per-half seconds and the step results (an
    exception object where a step raised)."""
    halves = {"model": 0.0, "md": 0.0}
    results = {}
    for half, op, fn in mod.steps(inputs):
        t = time.perf_counter()
        try:
            results[op] = fn(results)
        except Exception as exc:  # counted as a failed operation below
            results[op] = exc
        halves[half] += time.perf_counter() - t
    return halves, results


def pass_statuses(mod, inputs, results) -> dict:
    """Operation -> None (ok) or (reason, known)."""
    raised = {op: r for op, r in results.items() if isinstance(r, Exception)}
    if raised:
        return {op: (f"raised {raised[op]!r}" if op in raised else "not checked", False)
                for op in results}
    return mod.check_pass(inputs, results)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def add(self, statuses: dict) -> None:
        for op, status in statuses.items():
            self.attempted += 1
            if status is None:
                continue
            self.failed += 1
            reason, known = status
            if not known:
                self.unexpected.append(f"{op}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="measure set-up once and print it (used by the run itself)")
    args = ap.parse_args(argv)

    if not (SRC / "regpara" / "__init__.py").is_file():
        sys.stderr.write(f"error: no regpara sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    mod, inputs, setup_s = load(args.workload, args.seed)
    if args.setup_only:
        getattr(mod, "teardown", lambda inp: None)(inputs)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    tally = Tally()
    passes = []
    min_passes = 2 if tracer else 1
    start = time.perf_counter()
    last_wall = 0.0
    try:
        # Start a pass only while it is expected to end before half of it
        # would overrun --seconds, so a run lasts --seconds on average.
        while (len(passes) < min_passes
               or time.perf_counter() - start + last_wall / 2 < args.seconds):
            index = len(passes)
            traced = tracer is not None and index % 2 == 1
            getattr(mod, "before_pass", lambda inp: None)(inputs)
            gc.collect()
            if traced:
                tracer.start_pass(index)
                tracer.install()
            f0 = minflt()
            t0 = time.perf_counter()
            try:
                halves, results = run_pass(mod, inputs)
            finally:
                wall = time.perf_counter() - t0
                faults = minflt() - f0
                if traced:
                    tracer.uninstall()
            last_wall = wall
            record = {"index": index, "traced": traced, "wall_s": wall,
                      "model_s": halves["model"], "md_s": halves["md"]}
            if traced:
                record["layers"] = tracer.pass_metrics(faults)
            passes.append(record)
            tally.add(pass_statuses(mod, inputs, results))
            # Release the outputs before the next pass, so that every pass
            # starts as the first one does.  Held over into the next pass,
            # they changed the allocator's state after two passes: later
            # toy-1d-32k passes took 0.40M minor page faults instead of 1.21M,
            # none of them in extraction, and one run mixed two speeds.
            del results
            print(f"pass {index}{' traced' if traced else ''}: model_s={halves['model']:.4f} "
                  f"md_s={halves['md']:.4f} faults={faults}", flush=True)
        tally.add(mod.check_once(inputs))
    finally:
        getattr(mod, "teardown", lambda inp: None)(inputs)

    for line in tally.unexpected:
        sys.stderr.write(f"check failed: {line}\n")

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples = [setup_s] + [child_setup_s(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "model_s": (statistics.median(p["model_s"] for p in passes), "s"),
            "md_s": (statistics.median(p["md_s"] for p in passes), "s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        metrics = {
            name: (statistics.median(p["layers"][name] for p in traced), tracing.unit_of(name))
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain), "s")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": passes,
                       "span_fields": ["group", "function", "start", "end", "parent", "pass"],
                       "spans": tracer.spans}, fh)
        print(f"trace written to {path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
