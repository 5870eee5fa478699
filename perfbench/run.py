"""Seeded end-to-end benchmark of bernsym.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: bernsym is imported from the
checkout's `src/`, and the run fails (exit 2, no result line) if it is not
there.  One process, one thread, closed loop: the next operation is issued
only when the previous one has returned.  There is no warm-up; module and
context caches fill inside the timed operations, as they do for users.

--trace 0 measures for --seconds (and at least MIN_OPS operations, within
MAX_STRETCH times --seconds) and prints the end-to-end metrics.  Its times
are scaled to a reference host speed by a calibration kernel run between
the operations (see hostspeed.py), and --seconds counts scaled operation
time, so the amount of work does not depend on the host's speed.  --trace 1
runs a fixed prefix of the schedule, sized from --seconds, once with every
layer's entry points wrapped and once without, and prints the per-layer
metrics; its spans and counts go to .perfbench_out/ in the checkout.

Every operation's output is checked against the paper's expectation and
against the reference digest in reference.json.  The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}; the line before
it records the provenance (machine, seed, digest of the generated inputs).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from itertools import cycle, islice
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_KERNEL_S, HostSpeed  # noqa: E402
from layertrace import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, canonical_json  # noqa: E402

SETUP_REPEATS = 9
MIN_OPS = 100          # so that ten samples lie beyond the 90th percentile
MAX_STRETCH = 4.0      # ... unless that would take longer than this many --seconds
# traced ops per requested second, sized so that the traced pass and its
# untraced replay together take about --seconds on a 2-core Xeon
TRACED_OPS_PER_S = {
    "grid_audit": 1.4,
    "closed_form_sweep": 20.0,
    "consistency_sample": 30.0,
    "padic_moments": 3.0,
}


class SetupError(Exception):
    pass


def import_bernsym() -> SimpleNamespace:
    """A fresh import of bernsym from the checkout's src/."""
    for name in [m for m in sys.modules if m == "bernsym" or m.startswith("bernsym.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("bernsym")
    except ImportError as exc:
        raise SetupError(f"cannot import bernsym from {ROOT / 'src'}: {exc}") from exc
    if Path(package.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise SetupError(f"bernsym was imported from {package.__file__}, not the checkout")
    lib = SimpleNamespace(package=package)
    for name in LAYERS:
        setattr(lib, name, importlib.import_module(f"bernsym.{name}"))
    return lib


def set_up(workload, seed: int, workdir: Path, speed: HostSpeed):
    """A fresh import of bernsym and the seeded input generation, repeated;
    returns the last set-up and the median set-up time at reference speed.
    The input files are written once, untimed, into `workdir`: writing the
    308 grid files took 40-200 ms on one disk, from the file system's load
    alone, which would swamp the import's 45-95 ms."""
    timed = []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark(every=True)
        start = time.perf_counter()
        lib = import_bernsym()
        schedule = workload.schedule(seed, lib)
        timed.append((time.perf_counter() - start, mark))
    speed.close()
    workload.prepare(schedule, workdir)
    return lib, schedule, statistics.median(speed.scaled(t, mark) for t, mark in timed)


def load_reference(name: str) -> dict[str, str]:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)["workloads"][name]


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def run_ops(workload, ops, state, tracer=None):
    """Issue ops one after another; returns their latencies and
    (op, output, error) triples, which are checked later, outside the
    timed and traced region."""
    latencies, outputs = [], []
    for i, op in enumerate(ops):
        if tracer:
            tracer.begin_op(i)
        start = time.perf_counter()
        try:
            output, error = workload.run(op, state), None
        except Exception as exc:  # an op that raises is a failed op
            output, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start if tracer is None else tracer.end_op())
        outputs.append((op, output, error))
    return latencies, outputs


def count_failures(workload, outputs, lib, reference) -> list[str]:
    failures = []
    for op, output, error in outputs:
        reason = error or workload.check(op, output, lib, reference.get(workload.key(op)))
        if reason:
            failures.append(f"{workload.key(op)}: {reason}")
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, schedule, lib, reference, seconds: float, workdir: Path, speed: HostSpeed):
    """Issues ops until their time at reference speed reaches `seconds`,
    at least MIN_OPS are done and the last round of the schedule is
    complete, so that the amount of work depends on
    the program's speed and not on the host's.  Returns the latencies at
    reference speed, the failures, and the peak RSS once MIN_OPS ops are
    done: a fixed amount of work, because the contexts' caches keep
    growing with every op and a faster program completes more of them."""
    state = workload.new_state(lib, workdir)
    timed, failures, rss = [], [], None
    begin, measured = time.perf_counter(), 0.0
    for op in cycle(schedule):
        mark = speed.mark()
        lat, outputs = run_ops(workload, [op], state)
        timed.append((lat[0], mark))
        measured += speed.estimate(lat[0], mark)
        failures += count_failures(workload, outputs, lib, reference)
        if len(timed) == MIN_OPS:
            rss = peak_rss_mb()
        if ((measured >= seconds and len(timed) >= MIN_OPS and len(timed) % workload.round == 0)
                or time.perf_counter() - begin >= MAX_STRETCH * seconds):
            break
    speed.close()
    return [speed.scaled(t, mark) for t, mark in timed], failures, rss or peak_rss_mb()


def end_to_end(latencies, rss_mb, setup_s) -> dict:
    ms = [x * 1000 for x in latencies]
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_run(workload, schedule, lib, reference, seconds: float, workdir: Path, trace_file: Path):
    count = max(1, int(TRACED_OPS_PER_S[workload.name] * seconds))
    ops = list(islice(cycle(schedule), count))
    tracer = Tracer(lib.package)
    tracer.install()
    try:
        traced, traced_out = run_ops(workload, ops, workload.new_state(lib, workdir), tracer)
    finally:
        tracer.uninstall()
    untraced, untraced_out = run_ops(workload, ops, workload.new_state(lib, workdir))
    failures = count_failures(workload, traced_out + untraced_out, lib, reference)
    errors = tracer.attribution_errors(sum(untraced))
    for error in errors:
        print(f"attribution: {error}", file=sys.stderr)
    metrics = tracer.metrics(sum(untraced))
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "ops": count,
        "traced_op_s": sum(traced),
        "untraced_op_s": sum(untraced),
        "attribution_errors": errors,
        **tracer.trace_document(),
    }), encoding="utf-8")
    return 2 * count, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / f"inputs-{os.getpid()}"
    try:
        reference = load_reference(workload.name)
        workdir.mkdir(parents=True, exist_ok=True)
        speed = HostSpeed()
        lib, schedule, setup_s = set_up(workload, args.seed, workdir, speed)
    except (SetupError, OSError, KeyError, ValueError) as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
            attempted, failures, metrics = traced_run(
                workload, schedule, lib, reference, args.seconds, workdir, trace_file)
        else:
            latencies, failures, rss_mb = timed_run(workload, schedule, lib, reference, args.seconds, workdir, speed)
            attempted, metrics = len(latencies), end_to_end(latencies, rss_mb, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    provenance = {
        "machine": machine(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": hashlib.sha256(canonical_json(schedule)).hexdigest(),
        "schedule_ops": len(schedule),
        "attempted": attempted,
        "host_kernel_s": {"samples": len(speed.samples), "median": statistics.median(speed.samples),
                          "reference": REFERENCE_KERNEL_S},
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
