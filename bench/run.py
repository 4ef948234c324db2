"""riccikit benchmark: one workload, one process, one closed-loop caller.

    python3 bench/run.py --workload {smoke,sweep,oracles} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  A run builds the workload's inputs from the seed, then repeats whole
rounds of its operations until S seconds have passed (at least one round),
checks every output, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
spends half its time in untraced rounds and half in traced rounds, and the
metrics are the per-layer call counts and self times plus the tracing
overhead, and the raw spans are written to .bench_build/spans-W-N.jsonl.  A
line with the machine and library versions, and sha256 digests of the outputs
for comparing runs, precedes the result.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many ops beyond it
TAIL_MIN_OPS = 40


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size():
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_size": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def fingerprint(out):
    """Exact, comparable form of an operation's output."""
    import numpy as np
    from riccikit import cli, engine

    if isinstance(out, engine.VerificationReport):
        return cli.report_to_csv(out)
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, out.tobytes())
    if isinstance(out, (list, tuple)):
        return tuple(fingerprint(o) for o in out)
    return repr(out)


class Round:
    def __init__(self, workload):
        clock = time.perf_counter
        t0 = clock()
        self.outputs, self.op_s, self.failures = [], [], []
        for op in workload.ops:
            t = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is counted; the round goes on
                out = None
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            self.op_s.append(clock() - t)
            self.outputs.append(out)
        self.final = workload.finish(self.outputs)
        self.wall_s = clock() - t0


def run_rounds(workload, seconds, recorder=None):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        if recorder is not None:
            recorder.begin_round()
        rounds.append(Round(workload))
        if recorder is not None:
            recorder.end_round()
    return rounds


def check(workload, rounds):
    """Output checks on every operation that did not fail, the closing
    step's checks, and bit-for-bit repetition across rounds and re-runs."""
    problems = []
    first = rounds[0]
    for i, op in enumerate(workload.ops):
        out = first.outputs[i]
        if out is not None and op.check is not None:
            problems += op.check(out)
        reference = fingerprint(out)
        if any(fingerprint(r.outputs[i]) != reference for r in rounds[1:]):
            problems.append(f"{op.label}: output differs between rounds")
        if op.label in workload.recheck and out is not None:
            try:
                again = fingerprint(op.run())
            except Exception as exc:  # reported as a check failure below
                again = f"{type(exc).__name__}: {exc}"
            if again != reference:
                problems.append(f"{op.label}: re-run at the same seed differs")
    problems += workload.check_final(first.final)
    if any(r.final != first.final for r in rounds[1:]):
        problems.append("closing output differs between rounds")
    return problems


def op_tail(values):
    """Highest percentile with TAIL_BEYOND operations beyond it.  A round with
    fewer than TAIL_MIN_OPS operations has no such tail; it reports the mean
    of its slowest quarter of operations, which is steadier than the single
    slowest one."""
    v = sorted(values)
    if len(v) >= TAIL_MIN_OPS:
        return v[len(v) - TAIL_BEYOND - 1]
    k = -(-len(v) // 4)
    return sum(v[-k:]) / k


def end_to_end(workload, rounds, setup_s):
    wall_s = statistics.median(r.wall_s for r in rounds)
    # Each round repeats the same operations, so an operation's time is its
    # median over the rounds; the percentiles are taken over operations and
    # do not shift with the number of rounds that fit in the run.
    op_s = [statistics.median(times) for times in zip(*(r.op_s for r in rounds))]
    rel = workload.rel_err(rounds[0].final)
    # projected time to verdicts at 1% relative error; outputs without
    # sampling error are final as computed
    to_1pct = wall_s if rel is None else wall_s * (rel / 0.01) ** 2
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "op_tail_ms": (op_tail(op_s) * 1e3, "ms"),
        "time_to_1pct_s": (to_1pct, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {"rounds": len(rounds), "median_rel_err": rel,
            "op_ms": {op.label: t * 1e3 for op, t in zip(workload.ops, op_s)}}
    return values, info


def digests(rounds):
    """sha256 of the first round's closing output (the CSV for the suite
    workloads) and of its operation outputs.  Two processes at the same seed
    must print the same digests."""
    first = rounds[0]
    ops = hashlib.sha256()
    for out in first.outputs:
        ops.update(repr(fingerprint(out)).encode())
    return {"final_sha256": hashlib.sha256(repr(first.final).encode()).hexdigest(),
            "outputs_sha256": ops.hexdigest()}


def per_layer(recorder, base_rounds, traced_rounds):
    stats = recorder.layer_stats()
    values = {}
    for name in recorder.names:
        values[f"{name}.calls"] = (statistics.median(s[name][0] for s, _ in stats), "count")
        values[f"{name}.self_s"] = (statistics.median(s[name][1] for s, _ in stats), "s")
    values["transport.ke_solve_1d.iterations"] = (
        statistics.median(k for _, k in stats), "count")
    values["trace.overhead_s"] = (
        statistics.median(r.wall_s for r in traced_rounds)
        - statistics.median(r.wall_s for r in base_rounds), "s")
    return values


def main(argv=None):
    t_start = time.perf_counter()
    # Load discipline: one process, BLAS and OpenMP pools pinned to one
    # thread (at most nproc) before numpy loads, and no seed override from
    # the environment.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("RG_SEED", None)

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("smoke", "sweep", "oracles"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "riccikit" / "__init__.py").is_file():
        print(f"riccikit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riccikit
    import tracer
    import workloads

    if Path(riccikit.__file__).resolve().parent != SRC / "riccikit":
        print(f"imported riccikit from {riccikit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    build = workloads.WORKLOADS[args.workload]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = build(args.seed)
        gen_s.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(gen_s)

    if args.trace:
        base = run_rounds(workload, args.seconds / 2)
        recorder = tracer.SpanRecorder()
        recorder.install(tracer.targets())
        try:
            traced = run_rounds(workload, args.seconds / 2, recorder)
        finally:
            recorder.uninstall()
        rounds = base + traced
        metrics = per_layer(recorder, base, traced)
        info = {"rounds": len(base), "traced_rounds": len(traced)}
        recorder.write_spans(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        rounds = run_rounds(workload, args.seconds)
        metrics, info = end_to_end(workload, rounds, setup_s)

    problems = check(workload, rounds)
    failures = [f for r in rounds for f in r.failures]
    for msg in dict.fromkeys(problems + failures):
        print(msg, file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, import_s=import_s,
                ops_per_round=len(workload.ops), **digests(rounds))
    print(json.dumps({"env": environment(), "info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * len(workload.ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
