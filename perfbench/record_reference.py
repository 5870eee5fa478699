"""Record the reference digests that the benchmark's correctness gate uses.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every operation in each named workload's pool (default: all four)
once, refuses to record an output whose verdict fails, and stores the first
16 hex digits of the sha256 of each canonical output in reference.json,
keyed by the operation.  The stored file was recorded from the seed commit,
so a later change that alters any output is counted as a failed operation.
Takes several minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from workloads import WORKLOADS, digest


def record(workload) -> dict[str, str]:
    lib = run.import_bernsym()
    ops = workload.pool(lib)
    workdir = run.OUT_DIR / "reference-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(ops, workdir)
        state = workload.new_state(lib, workdir)
        out = {}
        for op in ops:
            output = workload.run(op, state)
            reason = workload.verdict(op, output, lib)
            if reason:
                raise SystemExit(f"{workload.name} {workload.key(op)}: {reason}")
            out[workload.key(op)] = digest(workload.output_bytes(output))
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(names) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.HERE / "reference.json"
    for name in names or sorted(WORKLOADS):
        start = time.perf_counter()
        digests = record(WORKLOADS[name])
        # re-read so that recordings of different workloads can run side by side
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc.setdefault("digest", "first 16 hex digits of sha256 over the canonical output")
        doc.setdefault("workloads", {})[name] = digests
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(digests)} digests in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
