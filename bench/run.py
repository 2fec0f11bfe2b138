"""Stage-time benchmark for the rirl pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's stages, from one process, until S
seconds have passed, then checks the outputs of the rounds and prints
one JSON object as the last line of standard output. With --trace 0
it reports the end-to-end metrics of BENCHMARK.json (the fastest
round's times); with --trace 1 it times untraced and traced rounds in
turn and reports the per-layer metrics.
The run's details (environment, every round, the spans of a traced
run) go to bench/out/. BLAS thread settings are left as they are and
recorded there.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_round(workload):
    """One round: every stage once, in order. A stage that raises
    fails, and so do the stages after it, which need its outputs."""
    workload.reset()
    times, failed = {}, 0
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    for name, stage in workload.stages():
        if failed:
            failed += 1
            continue
        t0 = time.perf_counter()
        try:
            stage()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed += 1
        times[name] = time.perf_counter() - t0
    return {"wall_s": time.perf_counter() - start, "cpu_s": cpu_seconds() - cpu0,
            "stages": times, "failed": failed,
            "fingerprint": workload.fingerprint() if not failed else None}


def median(values):
    return statistics.median(values) if values else 0.0


def timed_metrics(rounds, setup_s):
    # Every round does the same work, and interference from the rest of
    # the machine only adds time, so the least time of a round is the
    # steadiest estimate of the work's own cost: over twenty recorded
    # runs per workload on a 2-CPU machine, the quartile distance of the
    # per-run minimum was 0.07-0.17 of its median, against 0.11-0.19 for
    # the per-run median.
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (min(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (min(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_metrics(workload, plain, traced, tracer, marks):
    import tracing
    per_round = [tracer.self_times(first, last) for first, last in marks]
    metrics = {}
    for name, _, _ in tracing.LAYERS:
        calls = [r.get(name, (0, 0.0))[0] for r in per_round]
        metrics[name + ".calls"] = (calls[-1], "count")
        metrics[name + ".self_s"] = (median([r.get(name, (0, 0.0))[1] for r in per_round]), "s")
    for name in ("synth", "init", "edge", "explore", "report"):
        metrics[f"stage.{name}_s"] = (median([r["stages"].get(name, 0.0) for r in plain]), "s")

    micro = tracer.results.get("relation.train_micro_causal")
    log = micro.training_log if micro else None
    guarded = len(log["step2"]) + len(log["step3"]) if log else 0
    reverted = log["step2_reverts"] + log["step3_reverts"] if log else 0
    metrics["relation.guard_revert_ratio"] = (reverted / guarded if guarded else 0.0, "ratio")

    explored = tracer.results.get("explore.explore")
    state = explored[1] if explored else None
    computed = state.evals_computed if state else 0
    reused = state.evals_reused if state else 0
    metrics["explore.strength_keys"] = (len(state.k_cache) if state else 0, "count")
    metrics["explore.evals_computed"] = (computed, "count")
    metrics["explore.evals_reused"] = (reused, "count")
    metrics["explore.reuse_ratio"] = (reused / (computed + reused) if state else 0.0, "ratio")
    metrics["persistence.models_bytes"] = (workload.models_bytes(), "bytes")
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                   - median([r["wall_s"] for r in plain]), "s")
    return metrics


def check_outputs(workload, rounds, adam_calls=None):
    """Outputs of the last round, the same outputs from every round, and
    (traced runs) the Adam step count worked out from the config."""
    from checks import CheckFailed, require
    try:
        require(all(r["fingerprint"] == rounds[-1]["fingerprint"] for r in rounds),
                "rounds on the same inputs gave different outputs")
        workload.check()
        if adam_calls is not None:
            expected = workload.expected_adam_steps()
            require(adam_calls == expected,
                    f"adam_step ran {adam_calls} times, the config implies {expected}")
        return True
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    return False


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rirl", "__init__.py")):
        print(f"error: no rirl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        # set-up ends after one cold round, which pays the one-off costs
        # (first calls, BLAS threads); it is checked but not timed
        warmup = run_round(workload)
        setup_s = time.perf_counter() - _T0
        record = {"args": vars(args), "env": environment(), "setup_s": setup_s}
        if args.trace:
            rounds, metrics, adam_calls = traced_run(workload, args.seconds, tag)
        else:
            rounds, metrics, adam_calls = timed_run(workload, args.seconds, setup_s)
        rounds.insert(0, warmup)
        correct = not rounds[-1]["failed"] and check_outputs(workload, rounds, adam_calls)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": correct, "attempted": sum(len(r["stages"]) for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["rounds"] = [{k: r[k] for k in ("wall_s", "cpu_s", "stages", "failed")}
                        for r in rounds]
    record["result"] = result
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def timed_run(workload, seconds, setup_s):
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload))
    return rounds, timed_metrics(rounds, setup_s), None


def traced_run(workload, seconds, tag):
    """Untraced and traced rounds in turn. Every workload runs with one
    worker, so every span is in this process."""
    import tracing
    tracer = tracing.Tracer()
    plain, traced, marks = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_round(workload))
        first = len(tracer.spans)
        restore = tracer.install()
        try:
            traced.append(run_round(workload))
        finally:
            restore()
        marks.append((first, len(tracer.spans)))
    tracer.write(os.path.join(OUT, tag + ".spans.csv"))
    metrics = traced_metrics(workload, plain, traced, tracer, marks)
    return plain + traced, metrics, metrics["nn.adam_step.calls"][0]


if __name__ == "__main__":
    sys.exit(main())
