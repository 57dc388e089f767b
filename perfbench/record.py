"""Record the gated values of every request for the recorded seeds.

    python3 perfbench/record.py

Runs each analyze, shatter-fn and export request of every workload once
for each seed in workloads.RECORDED_SEEDS and writes their masks,
dimensions and profile rows to expected.json.  The gate then compares
later replies to the same requests against these values.  Run it only
when the benchmark's inputs change, never to absorb a changed answer.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    run.load_program()
    import zerotrace.cli as cli

    recorded = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="record-", dir=run.OUT) as tmp:
        client = run.Client(cli, Path(tmp), {})
        for workload in workloads.WORKLOADS:
            for seed in workloads.RECORDED_SEEDS:
                requests = [r for p in workloads.passes(workload, seed) for r in p]
                workloads.write_inputs(requests, Path(tmp))
                for request in requests:
                    if request.command == "verify" or gate.request_key(request) in recorded:
                        continue
                    result = client.send(request)
                    if result["problems"]:
                        sys.stderr.write(f"{request.label}: {result['problems']}\n")
                        return 1
                    recorded[result["key"]] = {"label": request.label, "values": result["values"]}
    lines = [f"{json.dumps(k)}: {json.dumps(recorded[k], sort_keys=True)}" for k in sorted(recorded)]
    gate.EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(recorded)} requests to {gate.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
