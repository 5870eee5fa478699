"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Makes a smoke-size run of every workload and checks that:
  * every metric named in BENCHMARK.json is emitted with its unit, and no
    operation fails;
  * two traced runs with the same seed report identical counts;
  * the correctness gate is not vacuous: a corrupted reference digest, or
    an output whose verdict is flipped while its digest is kept consistent,
    is counted as a failed operation;
  * the calibration kernel, scaled by the samples around it, reads as the
    reference kernel time;
  * without the program's sources next to it the benchmark exits non-zero
    and prints no result.
Exits 0 when all checks pass.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import run
from hostspeed import REFERENCE_KERNEL_S, HostSpeed, kernel
from workloads import WORKLOADS, digest

SEED = 11


def bench(root, workload: str, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stderr


def expect(condition: bool, message: str, problems: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def check_metrics(result, declared, label, problems) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: every declared metric emitted with its unit", problems)
    expect(result["failed"] == 0 and result["correct"] and result["attempted"] >= 1,
           f"{label}: {result['attempted']} ops attempted, {result['failed']} failed", problems)


def flipped(name: str, output):
    """The output with its verdict reversed."""
    if name == "grid_audit":
        code, text = output
        doc = json.loads(text)
        for row in doc["summary"]:
            if row["mode"] == "normalized":
                row["fail"] += 1
        return code, json.dumps(doc, separators=(",", ":")) + "\n"
    if name == "closed_form_sweep":
        return False, output[1]
    return {**output, "pass": not output["pass"]}


def check_gate(problems) -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.OUT_DIR / "selftest-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib = run.import_bernsym()
        for name, workload in WORKLOADS.items():
            op = workload.schedule(SEED, lib)[0]
            workload.prepare([op], workdir)
            output = workload.run(op, workload.new_state(lib, workdir))
            key = workload.key(op)
            reference = run.load_reference(name)
            clean = run.count_failures(workload, [(op, output, None)], lib, reference)
            expect(not clean, f"{name}: clean output passes the gate", problems)
            good = reference[key]
            corrupt = {key: good[:-1] + ("0" if good[-1] != "0" else "1")}
            failed = run.count_failures(workload, [(op, output, None)], lib, corrupt)
            expect(len(failed) == 1, f"{name}: corrupted reference digest counted as a failure", problems)
            bad = flipped(name, output)
            consistent = {key: digest(workload.output_bytes(bad))}
            failed = run.count_failures(workload, [(op, bad, None)], lib, consistent)
            expect(len(failed) == 1, f"{name}: flipped verdict counted as a failure", problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_host_speed(problems) -> None:
    """The kernel itself, timed between two samples, reads as the reference."""
    speed = HostSpeed()
    readings = []
    for _ in range(5):
        mark = speed.mark(every=True)
        start = time.perf_counter()
        kernel()
        readings.append(speed.scaled(time.perf_counter() - start, mark))
    speed.close()
    ratio = statistics.median(readings) / REFERENCE_KERNEL_S
    expect(0.8 < ratio < 1.25, f"host speed: the kernel scales to {ratio:.3f} of the reference", problems)


def main() -> int:
    problems: list[str] = []
    root = run.ROOT
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    for name in WORKLOADS:
        code, result, err = bench(root, name, 1, 0)
        expect(code == 0 and result is not None, f"{name}: untraced run exits 0 ({err.strip()[-200:]})", problems)
        if result:
            check_metrics(result, declared["end_to_end"], f"{name} untraced", problems)
        counts = []
        for _ in range(2):
            code, result, err = bench(root, name, 2, 1)
            expect(code == 0 and result is not None, f"{name}: traced run exits 0", problems)
            if result:
                check_metrics(result, declared["per_layer"], f"{name} traced", problems)
                counts.append({k: m["value"] for k, m in result["metrics"].items()
                               if m["unit"] == "count" or k.endswith("distinct_ratio")})
                expect("attribution:" not in err, f"{name}: traced attribution is consistent", problems)
        expect(len(counts) == 2 and counts[0] == counts[1],
               f"{name}: traced counts identical across two runs", problems)

    check_gate(problems)
    check_host_speed(problems)

    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, _ = bench(bare, "padic_moments", 1, 0)
        expect(code != 0 and result is None,
               "without src/ the benchmark exits non-zero and prints no result", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
