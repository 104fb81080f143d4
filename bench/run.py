"""Benchmark of hillduffing: three workloads, checked, timed and traced.

Run from the repository root:

    python3 bench/run.py --workload chart --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --self-check

Each run imports the program from ``src/``, sets the workload up three
times (inputs from the seed plus one warm-up call), then runs whole rounds
of the workload's calls until the next round would overrun ``--seconds``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record,
and with ``--trace 1`` the spans, are written under ``bench/out/``.

``--self-check`` runs every workload at a tiny size with all its checks,
then shows that each check rejects a perturbed output.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUPS = 3
WORKLOAD_NAMES = ("chart", "sweep", "beam-study")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required unless --self-check is given")
    return args


def import_program() -> float:
    """Import the program from this checkout; seconds since interpreter start."""
    sys.path.insert(0, SRC)
    try:
        import hillduffing
        import hillduffing.cli  # noqa: F401  (pulls in every module)
    except ImportError as exc:
        sys.exit(f"cannot import hillduffing from {SRC}: {exc}")
    if not os.path.abspath(hillduffing.__file__).startswith(SRC + os.sep):
        sys.exit(f"hillduffing was imported from {hillduffing.__file__}, not {SRC}")
    return time.perf_counter() - _T0


def declared() -> dict:
    """The workloads and metrics in ``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024.0


def tally(wl, raw):
    """Read one round back; return (outputs, attempted, failures, check failures)."""
    out = wl.collect(raw)
    lost = {**wl.errors, **wl.lost(out)}
    bad = wl.check(out)
    ops = set(wl.operations())
    unknown = (set(lost) | set(bad)) - ops
    if unknown:
        raise RuntimeError(f"failures reported for unknown operations: {sorted(map(str, unknown))}")
    return out, len(ops), {**lost, **bad}, bad


def measure(args, workdir, import_s):
    import spans
    import workloads

    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl = cls(args.seed, False, workdir)
        wl.warm_up()
        setups.append(time.perf_counter() - t0)
        if wl.errors:
            sys.exit(f"warm-up failed: {wl.errors}")

    tracer = spans.Tracer() if args.trace else None
    rounds, cli_bytes, reasons = [], [], {}
    attempted = failed = checks_failed = 0
    longest = 0.0
    start = time.perf_counter()
    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        while True:
            t_iter = time.perf_counter()
            wl.reset()
            if tracer:
                wl.on_call = lambda key, n=len(rounds): setattr(tracer, "call", f"{n}:{key}")
            t0 = time.perf_counter()
            raw = wl.run_round()
            rounds.append(time.perf_counter() - t0)
            cli_bytes.append(wl.bytes_written())
            _, n_ops, failures, bad = tally(wl, raw)
            attempted += n_ops
            failed += len(failures)
            checks_failed += len(bad)
            for key, why in list(failures.items())[:20 - len(reasons)]:
                reasons[f"round {len(rounds)}: {key}"] = why
            longest = max(longest, time.perf_counter() - t_iter)
            if time.perf_counter() - start + longest > args.seconds:
                break

    if tracer:
        metrics = spans.layer_metrics(tracer, len(rounds), statistics.median(cli_bytes))
        metrics["trace.wall_s"] = statistics.median(rounds)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {"setup_s": import_s + statistics.median(setups),
                   "wall_s": statistics.median(rounds),
                   "peak_rss_mb": peak_rss_mb()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "import_s": import_s,
              "setups_s": setups, "rounds_s": rounds, "attempted": attempted,
              "failed": failed, "checks_failed": checks_failed, "failures": reasons,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for key, why in reasons.items():
        print(f"failed {key}: {why}")
    return {"correct": checks_failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def self_check(workdir) -> int:
    import spans
    import workloads

    per_layer = {m["name"] for m in declared()["per_layer"]} - {"trace.wall_s"}
    ok = True

    def report(passed, text):
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {text}")

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, True, workdir)
        wl.warm_up()
        wl.reset()
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            raw = wl.run_round()
        out, n_ops, failures, _ = tally(wl, raw)
        report(not failures, f"{name}: {n_ops} operations, failures {failures or 'none'}")
        metrics = spans.layer_metrics(tracer, 1, wl.bytes_written())
        missing = per_layer - set(metrics)
        report(not missing, f"{name}: traced round gives every per-layer metric"
                            f"{'' if not missing else ', missing ' + str(sorted(missing))}")
        for label, mutate in wl.perturbations().items():
            changed = copy.deepcopy(out)
            mutate(changed)
            report(bool(wl.lost(changed) or wl.check(changed)),
                   f"{name}: a perturbed value fails the check '{label}'")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # the worker count is part of each workload, not of the environment
    os.environ.pop("HILLDUFFING_WORKERS", None)
    import_s = import_program()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.self_check:
            return self_check(workdir)
        env = environment()
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
        result = measure(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
