"""Layered benchmark of compassdiff.

One run::

    python3 bench/run.py --workload cli_tour --seed 1 --seconds 20 --trace 0

builds the workload's ops from the seed, runs them single-process and
closed-loop (each op waits for the previous one) for the given seconds,
checks every output against an independent reference, and prints as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones of a separate traced run.

    python3 bench/run.py --all --seed 1 [--out BENCH_label.json]

runs every workload in both modes, one fresh process each, and prints every
metric with its unit.  ``bench/README.md`` lists the workloads, the metrics
and which end-to-end metric each per-layer one should move.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread in this process and every process it starts:
# numpy would otherwise start several on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("cli_tour", "ode_sens", "ode_surface", "danskin")

# Set-up samples per end-to-end run: this process plus four set-up-only children.
SETUP_SAMPLES = 5
# Fresh-process CLI runs per traced run, all of the workload's one cold-start command.
COLD_SAMPLES = 8
CHILD_TIMEOUT_S = 150
# Pass pairs in a traced run: counts are exact after one, and spans of the
# ODE workloads run to about 100k per pass.
MAX_TRACED_PASSES = 6


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, a child failed)."""


def import_package():
    """Import compassdiff from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "compassdiff", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package source at {init}")
    sys.path.insert(0, SRC)
    import compassdiff

    if os.path.abspath(compassdiff.__file__) != init:
        raise BenchError(f"compassdiff imported from {compassdiff.__file__}, not {init}")


def setup(name: str, seed: int):
    """Imports, fixture parsing and input generation: everything before the first op."""
    import_package()
    import workloads

    tmpdir = os.path.join(OUT_DIR, f"tmp-{name}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        ctx = workloads.Context(tmpdir)
        return ctx, workloads.BUILDERS[name](ctx, seed)
    except BaseException:
        shutil.rmtree(tmpdir, ignore_errors=True)
        raise


# ---------------------------------------------------------------------------
# running and checking ops

def run_ops(ops, speed=None) -> list:
    """Run ops in order; returns (op, output, error, start ns, end ns) per op.

    With ``speed`` (a :class:`speed.SpeedTrack`), the calibration kernel is
    timed between ops whenever enough op time has passed.
    """
    out = []
    clock = time.perf_counter_ns
    for op in ops:
        if speed is not None:
            speed.before_op()
        t0 = clock()
        try:
            output, error = op.run(), None
        except Exception as err:  # an op that raises is counted as failed, and the run goes on
            output, error = None, f"{type(err).__name__}: {err}"
        t1 = clock()
        out.append((op, output, error, t0, t1))
        if speed is not None:
            speed.busy += t1 - t0
    return out


def timed_loop(rounds: list, seconds: float, pauses=(), speed=None):
    """Whole rounds, closed loop, until ``seconds`` of loop time have passed.

    Each of ``pauses`` runs once between rounds, spread evenly over the loop,
    so set-up samples see the same stretch of machine time as the ops; time
    spent in them is not loop time.  Returns (results, loop seconds).
    """
    results = []
    pending = list(pauses)
    paused = 0.0
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        ops = rounds[r % len(rounds)]  # building a fresh round is not op time either
        paused += time.perf_counter() - t0
        results += run_ops(ops, speed)
        r += 1
        busy = time.perf_counter() - start - paused
        if pending and busy >= seconds * (len(pauses) - len(pending) + 1) / (len(pauses) + 1):
            t0 = time.perf_counter()
            pending.pop(0)()
            paused += time.perf_counter() - t0
        if busy >= seconds:
            break
    for pause in pending:
        pause()
    return results, time.perf_counter() - start - paused


def verify(warm, results) -> tuple:
    """Failed and wrong counts among ``results``, plus the first few reasons.

    Each distinct key is checked once against its reference; every other op
    with that key, in ``warm`` or ``results``, must reproduce the first
    output exactly.
    """
    first: dict = {}
    verdict: dict = {}
    failed = wrong = 0
    reasons = []
    for n, (op, output, error, *_) in enumerate(warm + results):
        counted = n >= len(warm)
        if error is not None:
            failed += counted
            reasons.append(f"{op.kind} failed: {error}")
            continue
        if op.key not in first:
            first[op.key] = output
            try:
                verdict[op.key] = op.check(output)
            except (KeyError, IndexError, TypeError, ValueError) as err:
                verdict[op.key] = f"malformed output: {type(err).__name__}: {err}"
        reason = verdict[op.key]
        if reason is None and output != first[op.key]:
            reason = "output differs from an earlier run of the same input"
        if reason is not None:
            wrong += counted
            reasons.append(f"{op.kind} wrong: {reason}")
    return failed, wrong, reasons[:5]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# fresh processes

def _env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def cold_start(argv, warm) -> tuple:
    """One fresh ``python -m compassdiff.cli`` run: (start ns, end ns, why it is wrong if it is).

    Its stdout must match what the same input gave in-process (``warm``: the
    stdout of a command, the output of a library op, or None).
    """
    import workloads

    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, "-m", "compassdiff.cli", *argv], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    t1 = time.perf_counter_ns()
    if proc.returncode != 0:
        return t0, t1, f"fresh {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if isinstance(warm, str):
        return t0, t1, None if proc.stdout == warm else f"fresh {argv[0]} stdout differs from the in-process run"
    payload, reason = workloads.parse_stdout(proc.stdout)
    if reason is None and warm is not None and tuple(payload["subgradient"]) != warm[0]:
        reason = f"fresh {argv[0]} subgradient differs from the library call"
    return t0, t1, reason


def cold_starts(argv, warm, count: int) -> tuple:
    """``count`` fresh runs of ``argv`` one at a time: their times (ms, at the reference speed) and reasons."""
    import speed as speed_mod

    speed = speed_mod.SpeedTrack()
    out, reasons = [], []
    for _ in range(count):
        speed.settle()
        t0, t1, reason = cold_start(argv, warm)
        speed.sample()
        out.append((t1 - t0) / 1e6 * speed.factor(t0, t1))
        if reason is not None:
            reasons.append(reason)
    return out, reasons


def setup_child(name: str, seed: int) -> tuple:
    """One fresh set-up-only process: (start ns, end ns, its set-up time in s)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                           "--workload", name, "--seed", str(seed)],
                          cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    t1 = time.perf_counter_ns()
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return t0, t1, float(proc.stdout.split()[-1])


def import_times(count: int = 3) -> dict:
    """Median ``-X importtime`` breakdown of ``import compassdiff.cli``."""
    import spans

    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import compassdiff.cli"],
                              cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import of compassdiff.cli failed: {proc.stderr.strip()[-300:]}")
        samples.append(spans.parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# the two kinds of run

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, setup_s: float, setup_end: int, workload) -> dict:
    """Every timing is taken at the reference machine speed (see ``speed.py``)."""
    import speed as speed_mod

    speed = speed_mod.SpeedTrack()
    speed.sample()
    setups = [(setup_end - 1, setup_end, setup_s)]  # this process: scaled by the sample just taken
    warm = run_ops(workload.rounds[0])  # untimed; also the reference for repeated inputs

    def set_up_again():
        speed.settle()
        setups.append(setup_child(args.workload, args.seed))
        speed.sample()

    pauses = [set_up_again] * (0 if args.quick else SETUP_SAMPLES - 1)
    speed.check()
    results, elapsed = timed_loop(workload.rounds, args.seconds, pauses, speed)
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, reasons = verify(warm, results)
    attempted = len(results)
    ops_ms = [(t0, t1, (t1 - t0) / 1e6) for *_, t0, t1 in results]
    ref_ms = [ms * speed.factor(t0, t1) for t0, t1, ms in ops_ms]
    setup_samples = [s * speed.factor(t0, t1) for t0, t1, s in setups]
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "ops_per_s": metric(attempted / (sum(ref_ms) / 1e3), "1/s"),
        "latency_ms.p50": metric(statistics.median(ref_ms), "ms"),
        "latency_ms.p90": metric(percentile(ref_ms, 0.9), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    raw_ms = [ms for *_, ms in ops_ms]
    print(f"{args.workload} seed {args.seed}: {attempted} ops in {elapsed:.2f} s (latency samples {attempted}), "
          f"{len(setups)} set-ups, {len(speed.samples)} speed samples, {speed.moves} moves between vCPUs")
    print("unscaled " + json.dumps({
        "ops_per_s": attempted / (sum(raw_ms) / 1e3),
        "latency_ms.p50": statistics.median(raw_ms),
        "latency_ms.p90": percentile(raw_ms, 0.9),
        "setup_s": statistics.median(s for *_, s in setups),
    }))
    return report(attempted, failed, wrong, reasons, metrics)


def traced(args, workload) -> dict:
    """Untraced and traced passes over a fixed prefix of the ops, alternating."""
    import spans

    prefix = [op for r in range(workload.trace_rounds) for op in workload.rounds[r]]
    warm = run_ops(prefix)
    rec = spans.Recorder()
    results, overhead = [], []
    passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = run_ops(prefix)
        t1 = time.perf_counter()
        rec.install()
        try:
            traced_results = run_ops(prefix)
        finally:
            rec.uninstall()
        t2 = time.perf_counter()
        overhead.append((t2 - t1) / (t1 - t0) - 1.0)
        results += plain + traced_results
        passes += 1
        if time.perf_counter() - start >= args.seconds or passes == MAX_TRACED_PASSES:
            break
    failed, wrong, reasons = verify(warm, results)
    imports = import_times(1 if args.quick else 3)
    metrics = spans.layer_metrics(rec, passes * len(prefix), overhead, imports)
    by_argv = {json.dumps(op.argv): output for op, output, error, *_ in warm if error is None}
    cold_ms, cold_reasons = cold_starts(workload.cold_argv, by_argv.get(json.dumps(workload.cold_argv)),
                                        1 if args.quick else COLD_SAMPLES)
    metrics["cold_start_ms.p50"] = statistics.median(cold_ms)
    wrong += len(cold_reasons)  # a fresh process disagreeing with the in-process run
    reasons += cold_reasons
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    rec.write(span_file)
    print(f"{args.workload} seed {args.seed}: {passes} traced passes of {len(prefix)} ops, "
          f"{len(rec.names)} spans written to {os.path.relpath(span_file, ROOT)}")
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    return report(len(results), failed, wrong, reasons,
                  {name: metric(value, units[name]) for name, value in metrics.items()})


def report(attempted, failed, wrong, reasons, metrics) -> dict:
    for reason in reasons:
        print(f"  {reason}")
    print("summary " + json.dumps({"failed_share": failed / attempted, "wrong_share": wrong / attempted}))
    return {"correct": failed == 0 and wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(args) -> int:
    ctx, workload = setup(args.workload, args.seed)
    setup_end = time.perf_counter_ns()
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)
        print(f"{setup_s!r}")
        return 0
    try:
        result = traced(args, workload) if args.trace else end_to_end(args, setup_s, setup_end, workload)
    finally:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, one table

def run_all(args) -> int:
    """Each workload in both modes, each run a fresh process; prints one table."""
    spec = load_spec()
    table = {}
    for name in WORKLOADS:
        table[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{name} --trace {trace} failed: {proc.stderr.strip()[-500:]}")
            result = json.loads(lines[-1])
            summary = json.loads(next(line for line in lines if line.startswith("summary "))[8:])
            table[name][f"trace{trace}"] = {**result, **summary}
    print(f"{'metric [unit]':60s}" + "".join(f"{name:>14s}" for name in WORKLOADS))
    for mode, group in (("trace0", "end_to_end"), ("trace1", "per_layer")):
        for m in spec[group]:
            cells = "".join(f"{table[w][mode]['metrics'][m['name']]['value']:14.4g}" for w in WORKLOADS)
            print(f"{m['name'] + ' [' + m['unit'] + ']':60s}{cells}")
        for key in ("failed_share", "wrong_share"):
            cells = "".join(f"{table[w][mode][key]:14.4g}" for w in WORKLOADS)
            print(f"{key + ' [ratio] (' + mode + ')':60s}{cells}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds, "workloads": table}, fh, indent=1)
    ok = all(table[w][m]["correct"] for w in WORKLOADS for m in ("trace0", "trace1"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload in both modes, one table")
    parser.add_argument("--out", help="with --all: also write the table as JSON here")
    parser.add_argument("--quick", action="store_true", help="one set-up and one fresh CLI run per run (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import speed

    speed.pin_to_one_cpu()
    try:
        if args.all:
            return run_all(args)
        if args.workload is None:
            parser.error("--workload or --all is required")
        return one_run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
