"""Benchmark of mbint's public evaluators on seeded workloads.

    python3 perfbench/run.py --workload tabulate_quad --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  One process and one thread run a closed
loop over the workload's bank (see bank.py) for about ``--seconds``,
timing each call from issue to return and scaling it to a reference
machine pace (pace.py), after an oracle child process has computed an
mpmath reference for every case (oracle.py).  Every reply is judged
against its reference.  ``--trace 1`` adds one traced pass over the bank
and reports per-layer numbers (tracing.py) instead of end-to-end ones.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
fuller report with sample counts, bank outcome counts and the machine.
Exit code 2 (and no result) when the library sources are missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# BLAS and OpenMP pools pinned to one thread: a one-client closed loop
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

COLD_STARTS = 11
# p99 leaves at least ten samples beyond it
MIN_CALLS = 1000
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "evals_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "oracle_pass_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)
    return env


def run_oracle(workload, seed):
    """References from a fresh interpreter that never imports mbint."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "oracle.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=_child_env(), cwd=ROOT, check=True)
    refs = json.loads(proc.stdout.splitlines()[-1])["refs"]
    refs = [None if r is None else [complex(re, im) for re, im in r]
            for r in refs]
    return refs, time.perf_counter() - t0


def cold_start(case):
    """One fresh interpreter running import mbint + ``case``'s call.

    Returns (wall_s, import_s, first_eval_s): the whole child process timed
    from outside, interpreter start included, and the two parts timed
    inside it.  These times are raw, unlike the loop's: a cold start, mostly
    module loading, slowed less than the pace probe on a busy host (1.2x
    against 1.7x on the development VM), so scaling it overcorrects.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), repr(case)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=_child_env(), cwd=ROOT, check=True)
    wall = time.perf_counter() - t0
    inner = json.loads(proc.stdout.splitlines()[-1])
    return wall, inner["import_s"], inner["first_eval_s"]


def timed_loop(fns, seconds, raised, aside, asides):
    """Closed loop over the bank, in bank order and in whole passes, for
    about ``seconds``: no pass starts that would, at the mean pass time so
    far, end past them, unless fewer than MIN_CALLS calls have run.

    A pace probe runs before the first call, after any call that ends
    pace.PROBE_EVERY_S or more after the last probe, and once after the
    last call.  ``aside()`` runs ``asides`` times between calls, spread
    evenly over ``seconds`` (any left over run after the loop): the host's
    slow spells last a few seconds, so cold starts spread over the run
    sample several of them where back-to-back ones would share one.

    Returns (records, probes, aside results): a record is (case index,
    reply or ``raised(exception)``, start_ns, end_ns); a probe is
    (start_ns, duration_ms).
    """
    clock = time.perf_counter_ns
    every = int(pace.PROBE_EVERY_S * 1e9)
    records, results = [], []
    probes = [pace.timed_probe(clock)]
    start = last = clock()
    aside_every = int(seconds * 1e9 / asides)
    next_aside = start + aside_every // 2
    passes = 0
    while True:
        for idx, fn in enumerate(fns):
            t0 = clock()
            try:
                reply = fn()
            except Exception as exc:  # a refusal or a crash is an outcome
                t1 = clock()
                reply = raised(exc)
            else:
                t1 = clock()
            records.append((idx, reply, t0, t1))
            if t1 >= next_aside and len(results) < asides:
                results.append(aside())
                next_aside += aside_every
            if clock() - last >= every:
                probes.append(pace.timed_probe(clock))
                last = clock()
        passes += 1
        if len(records) >= MIN_CALLS \
                and (clock() - start) * (passes + 1) / passes > seconds * 1e9:
            break
    probes.append(pace.timed_probe(clock))
    while len(results) < asides:
        results.append(aside())
    return records, probes, results


def traced_pass(fns, tracer, raised):
    """One pass over the bank with every layer wrapped; returns
    (replies, wall_s)."""
    replies = []
    tracer.install()
    try:
        start = time.perf_counter_ns()
        for fn in fns:
            span = tracer.begin_eval()
            try:
                reply = fn()
                error = None
            except Exception as exc:
                error = exc
                reply = raised(exc)
            tracer.close(span, error)
            replies.append(reply)
        wall = (time.perf_counter_ns() - start) * 1e-9
    finally:
        tracer.uninstall()
    return replies, wall


def self_check(oracle, cases, statuses, replies, refs):
    """Move the first passing value with a non-zero bound by 10x that
    bound; the judge must flag it."""
    for case, status, reply, ref in zip(cases, statuses, replies, refs):
        bad = oracle.perturbed(case, reply, ref) if status == "ok" else None
        if bad is not None:
            return oracle.judge(case, bad, ref) == "miss"
    return False


def machine():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "scipy": version("scipy"), "blas_threads": PINNED_ENV}


def _metric(value, unit, samples=None):
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def _latencies(records, statuses, durations):
    """Latencies (ms) of the successful calls, sorted, each counted at its
    case's median in the loop: a burst of contention on the shared host,
    which slows a few calls of a case, then moves no quantile."""
    by_case = {}
    for (idx, _, _, _), s, d in zip(records, statuses, durations):
        if s != "fail":
            by_case.setdefault(idx, []).append(d)
    return sorted(statistics.median(calls) for calls in by_case.values()
                  for _ in calls)


def _quantiles(lat):
    p50 = statistics.median(lat) if lat else 0.0
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] \
        if len(lat) >= 2 else p50
    return p50, p99


def loop_metrics(records, probes, statuses, n):
    """End-to-end timing metrics of the loop, every call's time scaled to
    the reference pace (pace.py), plus the loop facts the report shows,
    raw times among them."""
    raw = [(t1 - t0) * 1e-6 for _, _, t0, t1 in records]
    scaled = [d * pace.REFERENCE_MS / pace.local_pace(probes, t0)
              for d, (_, _, t0, _) in zip(raw, records)]
    ok_lat = _latencies(records, statuses, scaled)
    successes = len(ok_lat)
    p50, p99 = _quantiles(ok_lat)
    # the loop runs whole passes, so every run weighs each case of the bank
    # equally; failed calls' time counts
    timing = {
        "evals_per_s": _metric(successes / (sum(scaled) * 1e-3), "1/s",
                               successes),
        "latency_p50_ms": _metric(p50, "ms", successes),
        "latency_p99_ms": _metric(p99, "ms", successes),
    }
    raw_p50, raw_p99 = _quantiles(_latencies(records, statuses, raw))
    passes = len(records) // n
    loop = {"calls": len(records), "passes": passes,
            "successes": successes,
            "p99_samples_beyond": sum(1 for v in ok_lat if v > p99),
            "pass_s": sum(scaled) * 1e-3 / passes,
            "pace_probes": len(probes),
            "pace_median_ms": statistics.median(d for _, d in probes),
            "raw_evals_per_s": successes / (sum(raw) * 1e-3),
            "raw_latency_p50_ms": raw_p50, "raw_latency_p99_ms": raw_p99}
    return timing, loop


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tabulate_quad", "series_bank",
                             "transform_pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mbint", "__init__.py")):
        sys.stderr.write(f"mbint sources not found under {SRC}\n")
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [SRC, HERE]
    import bank
    import oracle

    cases = bank.make_bank(args.workload, args.seed)
    n = len(cases)
    refs, oracle_s = run_oracle(args.workload, args.seed)
    # cold starts run the first case of the seed-0 bank: a seed's own first
    # case would move setup_s with the seed
    setup_case = bank.make_bank(args.workload, 0)[0]

    def judge(idx, reply):
        if refs[idx] is None:
            return "unjudged"
        return oracle.judge(cases[idx], reply, refs[idx])

    import calls
    fns = [calls.make_call(case) for case in cases]
    try:  # untimed warm-up of the first case
        fns[0]()
    except Exception:
        pass

    records, pace_probes, starts = timed_loop(
        fns, args.seconds, oracle.Raised,
        lambda: cold_start(setup_case), COLD_STARTS)
    setup_s, import_s, first_eval_s = (statistics.median(t)
                                       for t in zip(*starts))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    statuses = [judge(idx, reply) for idx, reply, _, _ in records]
    first = statuses[:n]
    repeatable = all(s == first[idx] for (idx, _, _, _), s
                     in zip(records, statuses))
    flagged = self_check(oracle, cases, first,
                         [rec[1] for rec in records[:n]], refs)
    counts = {k: first.count(k) for k in ("ok", "miss", "fail", "unjudged")}
    timing, loop = loop_metrics(records, pace_probes, statuses, n)
    e2e = dict(timing,
               fail_frac=_metric(counts["fail"] / n, "ratio", n),
               oracle_miss_frac=_metric(counts["miss"] / n, "ratio", n),
               oracle_pass_frac=_metric(counts["ok"] / n, "ratio", n),
               setup_s=_metric(setup_s, "s", COLD_STARTS),
               peak_rss_mb=_metric(peak_rss_mb, "MB", 1))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "bank_cases": n, "bank_outcomes": counts, "loop": loop,
              "oracle_s": oracle_s, "oracle_self_check_flagged": flagged,
              "repeatable_outcomes": repeatable,
              "end_to_end": e2e, "machine": machine()}
    correct = flagged and repeatable and counts["unjudged"] == 0
    attempted = len(records)
    failed = sum(s == "fail" for s in statuses)
    metrics = {k: e2e[k] for k in END_TO_END}

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        before = pace.pace_ms()
        replies, traced_wall = traced_pass(fns, tracer, oracle.Raised)
        traced_wall *= pace.REFERENCE_MS / statistics.median(
            (before, pace.pace_ms()))
        traced = [judge(idx, reply) for idx, reply in enumerate(replies)]
        correct = correct and traced == first
        untraced_wall = loop["pass_s"]
        metrics = {name: _metric(value, tracing.METRICS[name])
                   for name, value in tracer.metrics().items()}
        metrics["setup.import_s"] = _metric(import_s, "s", COLD_STARTS)
        metrics["setup.first_eval_s"] = _metric(first_eval_s, "s", COLD_STARTS)
        metrics["trace.overhead_frac"] = _metric(
            traced_wall / untraced_wall - 1.0, "ratio")
        failed_evals = {i for i, s in enumerate(traced) if s == "fail"}
        os.makedirs(OUT, exist_ok=True)
        span_file = os.path.join(
            OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.dump(span_file)
        good = n - len(failed_evals)
        report.update(per_layer=metrics, routes=tracer.routes(failed_evals),
                      traced_evals_per_s=good / traced_wall,
                      untraced_evals_per_s=good / untraced_wall,
                      spans=len(tracer.spans),
                      span_file=os.path.relpath(span_file, ROOT))
        attempted, failed = n, len(failed_evals)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
