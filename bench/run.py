"""eccspec benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json and bench/README.md) through eccspec's
public API or CLI in a closed loop with one client, repeating whole passes
over the seeded request list for about S seconds.  Every output is checked
by the benchmark's own oracle outside the timed spans.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Full results (environment, tail percentile, failures by name) go to
.bench_out/BENCH_<workload>_seed<N>_trace<T>.json and traced spans to
.bench_out/spans_<workload>_seed<N>.jsonl.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
IMPORT_PROBES = 3
# The tail is the highest ladder percentile with at least ten samples beyond
# it.  A coarse ladder plus at least 100 samples per run keeps every run of a
# workload on p90, so runs with a different number of passes stay comparable.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    from tracer import LAYERS, SPAN_NAMES, WORK_COUNTS

    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for name in WORK_COUNTS:
        units[name] = "bytes" if name.endswith(".bytes") else "count"
    units.update({
        "spectra.eig.unique_frac": "ratio",
        "graphs.distances.unique_frac": "ratio",
        "cli.startup_s": "s",
        "cli.import.numpy_s": "s",
        "cli.import.eccspec_s": "s",
        "cli.split_groups": "count",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


def pin_threads():
    """At most nproc numeric threads in this process and its children; one
    keeps the LAPACK oracle from competing with the measured code."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(seed):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# --------------------------------------------------------------------- loop

def run_pass(wl, call, tag, tracer=None):
    """One pass over the request list: (wall seconds, latencies, failures).

    Only the calls are timed; the oracle runs between them.
    """
    latencies, failures = [], []
    for index, req in enumerate(wl.requests):
        if tracer is not None:
            tracer.request_id = f"{tag}:{index}"
        start = time.perf_counter()
        try:
            output, reason = call(req), None
        except Exception as exc:  # a request that raises is a failed request
            output, reason = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        if reason is None:
            reason = wl.check(req, output)
        if reason:
            failures.append((req.label, reason))
    return sum(latencies), latencies, failures


def _nothing():
    pass


def run_cycles(wl, kinds, seconds, min_cycles=1, tracer=None, after_cycle=_nothing):
    """Repeat one pass of each kind, in order, until `seconds` would be passed
    and at least `min_cycles` cycles have run.

    `kinds` maps a name to the call that serves one request; the kind named
    "traced" runs with `tracer` installed.  `after_cycle` runs, untimed,
    after each cycle.  Returns {kind: [pass results]}.
    """
    results = {kind: [] for kind in kinds}
    start = time.perf_counter()
    cycles = 0
    while True:
        for kind, call in kinds.items():
            if kind != "traced":
                results[kind].append(run_pass(wl, call, f"{kind}{cycles}"))
                continue
            tracer.install()
            try:
                results[kind].append(run_pass(wl, call, f"{kind}{cycles}", tracer))
            finally:
                tracer.uninstall()
            tracer.end_pass()
        after_cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed + elapsed / cycles > seconds:
            return results


def tail(latencies):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-pct * count // 100)            # ceil(pct/100 * count)
        if count - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[int(rank) - 1]
    return 50.0, statistics.median(ordered)


def setup_sample(args):
    """Process start to the first timed request, in a fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def reference_seconds():
    """Time of a fixed pure-Python loop that no change to eccspec can move.

    Saved beside the metrics so that a reader can tell the machine's own
    drift from a change in the program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def import_times():
    """(numpy, eccspec without numpy) import seconds of `import eccspec.cli`,
    each the median of fresh `python -X importtime` processes."""
    numpy_s, eccspec_s = [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import eccspec.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        # eccspec.cli's cumulative time covers the eccspec package and numpy
        numpy_s.append(cumulative["numpy"])
        eccspec_s.append(cumulative["eccspec.cli"] - cumulative["numpy"])
    return statistics.median(numpy_s), statistics.median(eccspec_s)


# -------------------------------------------------------------------- modes

def end_to_end(wl, args):
    min_passes = 1 if args.tiny else -(-MIN_SAMPLES // len(wl.requests))
    probes = 1 if args.tiny else SETUP_PROBES
    setup, reference = [], []

    def after_cycle():
        # spread over the run, so that set-up samples the same machine
        # states as the passes do
        reference.append(reference_seconds())
        if len(setup) < probes:
            setup.append(setup_sample(args))

    results = run_cycles(wl, {"pass": wl.run}, args.seconds, min_passes,
                         after_cycle=after_cycle)["pass"]
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(wl.child_maxrss_kb)
    latencies = [x for _, lats, _ in results for x in lats]
    failures = [f for _, _, fs in results for f in fs]
    attempted = len(latencies)
    if not wl.in_process and len(results) == 1:
        failures += wl.recheck()
        attempted += len(wl.requests)
    pct, tail_value = tail(latencies)
    while len(setup) < probes:
        setup.append(setup_sample(args))
    metrics = {
        "setup_s": statistics.median(setup),
        # the mean, not the median: the machine flips between fast and slow
        # phases within a run, and the median of a two-phase mix jumps
        "wall_s": statistics.fmean(w for w, _, _ in results),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    details = {
        "fail_frac": {"value": len(failures) / attempted, "unit": "ratio"},
        "latency_tail": {"percentile": pct, "samples": len(latencies)},
        "pass_walls_s": [w for w, _, _ in results],
        "requests_per_pass": len(wl.requests),
        "setup_samples_s": setup,
        "reference_s": statistics.median(reference),
    }
    return metrics, END_TO_END_UNITS, attempted, failures, details, None


def traced(wl, args):
    from tracer import Tracer

    tracer = Tracer()
    if wl.in_process:
        kinds = {"untraced": wl.run, "traced": wl.run}
    else:
        import eccspec.cli

        def in_process(req):
            return wl.run_in_process(req, eccspec.cli)

        kinds = {"cold": wl.run, "untraced": in_process, "traced": in_process}
    results = run_cycles(wl, kinds, args.seconds, tracer=tracer)

    def wall(kind):
        return statistics.median(w for w, _, _ in results[kind])

    metrics = {name: statistics.median(p[name] for p in tracer.passes)
               for name in tracer.passes[0]}
    # traced and untraced passes of one cycle ran seconds apart, so their
    # difference is less exposed to the machine's slow and fast phases
    metrics["trace.overhead_s"] = statistics.median(
        t - u for (t, _, _), (u, _, _) in zip(results["traced"], results["untraced"]))
    metrics["trace.spans"] = len(tracer.spans) / len(tracer.passes)
    metrics["cli.startup_s"] = metrics["cli.import.numpy_s"] = metrics["cli.import.eccspec_s"] = 0.0
    if not wl.in_process:
        metrics["cli.startup_s"] = (wall("cold") - wall("untraced")) / len(wl.requests)
        metrics["cli.import.numpy_s"], metrics["cli.import.eccspec_s"] = import_times()
    failures = [f for runs in results.values() for _, _, fs in runs for f in fs]
    # distinct requests of the list, not occurrences, so the pass count cancels
    metrics["cli.split_groups"] = len({label for label, why in failures if is_known(why)})
    attempted = sum(len(lats) for runs in results.values() for _, lats, _ in runs)
    details = {
        "passes": {kind: len(runs) for kind, runs in results.items()},
        "requests_per_pass": len(wl.requests),
        "wall_s": {kind: wall(kind) for kind in results},
    }
    return metrics, per_layer_units(), attempted, failures, details, tracer.spans


# --------------------------------------------------------------------- main

def is_known(reason):
    from workloads import KNOWN_DEFECT

    return reason.startswith(KNOWN_DEFECT)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up probe, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args):
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    if cls.in_process:
        return cls(args.seed, args.tiny)
    return cls(args.seed, args.tiny, ROOT, OUT_DIR)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "eccspec", "cli.py")):
        print(f"error: eccspec sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)

    wl = make_workload(args)
    wl.setup()
    wl.warmup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if wl.in_process and not wl.eccspec.__file__.startswith(SRC + os.sep):
        print(f"error: imported eccspec from {wl.eccspec.__file__}, not {SRC}", file=sys.stderr)
        return 2

    mode = traced if args.trace else end_to_end
    metrics, units, attempted, failures, details, spans = mode(wl, args)
    known = [f for f in failures if is_known(f[1])]
    failures = [f for f in failures if not is_known(f[1])]
    env = environment(args.seed)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    stem = f"{args.workload}_seed{args.seed}"
    with open(os.path.join(OUT_DIR, f"BENCH_{stem}_trace{args.trace}.json"), "w") as handle:
        json.dump(dict(result, workload=args.workload, trace=args.trace, environment=env,
                       details=details,
                       failures=[{"request": r, "reason": why} for r, why in failures],
                       known_defects=[{"request": r, "reason": why} for r, why in known]),
                  handle, indent=2)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"spans_{stem}.jsonl"), "w") as handle:
            for span in spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "request"), span))) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']}")
    for name, unit in units.items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{details['latency_tail']['percentile']:g} of "
                    f"{details['latency_tail']['samples']} samples)")
        print(f"{name:32s} {metrics[name]:.6g} {unit}{note}")
    if "fail_frac" in details:
        print(f"{'fail_frac':32s} {details['fail_frac']['value']:.6g} ratio"
              f"  ({len(failures) + len(known)}/{attempted}, {len(known)} of them known)")
        print(f"{'(machine reference loop)':32s} {details['reference_s']:.6g} s")
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    for label, reason in sorted(set(known)):
        print(f"KNOWN {label}: {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
