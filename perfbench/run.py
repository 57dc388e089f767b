"""End-to-end and per-layer benchmark of the zerotrace command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 36 --trace 0

One client sends the workload's CLI requests one at a time (closed
loop) through ``zerotrace.cli.main``, in this process, with no extra
threads.  Requests repeat in passes until the next pass would end after
``--seconds``; at least one pass always runs.  Every reply goes through
the correctness gate in gate.py, which counts failures.

On a shared machine the speed of Python code drifts by a fifth or more
over tens of seconds, and a fixed pure-Python loop drifts with it (pass
times and loop times correlated at 0.8 to 0.9 on a 2-core machine).
So every request is bracketed by that calibration loop, and its scaled
latency is its latency times CALIBRATION_REFERENCE_S over the mean of
the two calibration times: the latency at one fixed machine speed.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``pass_s``: median scaled time of one pass over the request list;
* ``setup_s``: median scaled time for a fresh interpreter to import
  ``zerotrace.cli`` (kernel-backend selection included), the import
  bracketed by calibration like a request;
* ``peak_rss_mb``: peak resident memory of this process.

The raw median pass time (``wall_s``) and the median latency per
command (analyze_s, shatter_s, export_s, verify_s), raw and scaled, are
printed and recorded too.  With ``--trace 1`` one untraced pass runs
first, then traced passes; the run reports the per-layer metrics (see
tracing.py) as medians over traced passes, with times scaled like
``pass_s``, the tracing overhead, and whether the layers predicted to
dominate the workload did.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, stamped with
the kernel backend, Python version, CPU count, seed and source digest,
goes to .perfbench/results/ (spans of a traced run to .perfbench/spans/);
compare.py summarizes and compares those records.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import workloads
from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Fresh interpreters started to time the import; the median is reported.
SETUP_REPEATS = 11

#: Iterations of the calibration loop run before and after every request.
CALIBRATION_LOOPS = 100_000

#: Calibration time that defines the reference machine speed: about the
#: loop's median time on the 2-core machine the benchmark was tuned on.
CALIBRATION_REFERENCE_S = 0.015

COMMAND_METRICS = {
    "analyze": "analyze_s",
    "shatter-fn": "shatter_s",
    "export": "export_s",
    "verify": "verify_s",
}

_IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import zerotrace.cli\n"
    "print(time.perf_counter() - start)\n"
)


def calibrate() -> float:
    """Time of a fixed loop of integer and dict operations, collector paused."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 255] = acc
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SetupError(Exception):
    """The checkout does not hold the program."""


def load_program():
    """Import the zerotrace sources of this checkout (never an installed copy)."""
    if not (SRC / "zerotrace" / "cli.py").is_file():
        raise SetupError(f"no zerotrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zerotrace.cli

    if Path(zerotrace.__file__).resolve().parent != (SRC / "zerotrace").resolve():
        raise SetupError(f"imported zerotrace from {zerotrace.__file__}, not from {SRC}")
    return zerotrace


def measure_setup() -> tuple:
    """Median (scaled, raw) import time of zerotrace.cli over fresh interpreters."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            cwd=ROOT,
        )
        calibration = (before + calibrate()) / 2
        if i:  # the first start may compile bytecode
            seconds = float(done.stdout.strip().splitlines()[-1])
            raw.append(seconds)
            scaled.append(seconds * CALIBRATION_REFERENCE_S / calibration)
    return statistics.median(scaled), statistics.median(raw)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "zerotrace").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(zerotrace, seed: int) -> dict:
    return {
        "backend": zerotrace._kernels.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


class Client:
    """Sends requests through cli.main and gates each reply."""

    def __init__(self, cli, workdir: Path, expected: dict, tracer: Tracer | None = None):
        self.cli = cli
        self.workdir = workdir
        self.expected = expected
        self.tracer = tracer
        self.sent = 0

    def send(self, request) -> dict:
        self.sent += 1
        out_dir = self.workdir / f"out{self.sent}"
        argv = [
            a.replace("{input}", str(self.workdir / (request.input_name or "")))
            .replace("{out}", str(out_dir))
            for a in request.argv
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.request = self.sent
        crash = None
        gc.collect()  # start each request from a clean heap, as a fresh CLI process would
        before = calibrate()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)  # looked up per call: the tracer rebinds it
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed request, not a failed run
            code, crash = -1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        calibration = (before + calibrate()) / 2
        files = {}
        if out_dir.is_dir():
            files = {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()}
            shutil.rmtree(out_dir)
        text = stdout.getvalue()
        problems, values = gate.check(request, code, text, files, self.expected)
        if crash:
            problems.insert(0, crash)
        return {
            "label": request.label,
            "command": request.command,
            "key": gate.request_key(request),
            "seconds": seconds,
            "scaled": seconds * CALIBRATION_REFERENCE_S / calibration,
            "bytes_out": len(text.encode()) + sum(len(v.encode()) for v in files.values()),
            "problems": problems,
            "values": values,
        }


def run_passes(client, plan, seconds: float) -> list:
    """Closed-loop passes until the next one would overrun ``seconds``.

    At least one pass runs.  A pass's duration for the stop rule
    includes gating and calibration; its ``seconds`` and ``scaled`` are
    sums of its requests' raw and scaled latencies.  In a traced run each
    pass also carries its layer metrics, times scaled like the pass.
    """
    done = []
    began = time.perf_counter()
    last = 0.0
    while not done or time.perf_counter() - began + last <= seconds:
        t0 = time.perf_counter()
        if client.tracer is not None:
            client.tracer.reset_totals()
        requests = [client.send(r) for r in plan[len(done) % len(plan)]]
        raw = sum(r["seconds"] for r in requests)
        scaled = sum(r["scaled"] for r in requests)
        layers = None
        if client.tracer is not None:
            layers = layer_metrics(client.tracer, requests, scaled / raw)
        done.append({"requests": requests, "seconds": raw, "scaled": scaled, "layers": layers})
        last = time.perf_counter() - t0
    return done


def layer_metrics(t: Tracer, results, scale: float) -> dict:
    """Per-layer metrics of one traced pass; times are multiplied by ``scale``."""
    m = {f"{layer}.self_s": t.layer_self.get(layer, 0.0) * scale for layer in LAYERS.values()}
    for name in ("in_span", "rank", "nullspace_basis", "dot"):
        m[f"exactalg.{name}.calls"] = t.calls_of(f"exactalg.{name}")
    flats = "zerosets.enumerate_family_flats"
    visited = t.calls_of("exactalg.nullspace_basis", parent=flats)
    m["zerosets.flats.calls"] = t.calls_of(flats)
    m["zerosets.flats_visited"] = visited
    m["zerosets.closure_tests"] = t.calls_of("exactalg.in_span", parent=flats)
    m["zerosets.traces"] = t.extra["zerosets.traces"]
    m["zerosets.trace_yield"] = t.extra["zerosets.traces"] / visited if visited else 0.0
    m["zerosets.bruteforce.calls"] = t.calls_of("zerosets.enumerate_family_bruteforce")
    m["zerosets.image.calls"] = t.calls_of("zerosets.image")
    m["constructions.independence_sequence.s"] = t.inclusive["constructions.independence_sequence"] * scale
    m["constructions.in_span.calls"] = t.calls_of("exactalg.in_span", parent_layer="constructions")
    for name in ("pi", "rho", "ldim", "vcdim"):
        m[f"kernels.{name}.s"] = t.inclusive[f"kernels.{name}"] * scale
    m["kernels.rho.calls"] = t.calls_of("kernels.rho")
    m["kernels.count_restrictions.calls"] = t.calls_of("kernels.count_restrictions")
    m["kernels.masks_in"] = t.extra["kernels.masks_in"]
    m["littlestone.rho.calls"] = t.calls_of("littlestone.rho")
    m["littlestone.ldim_witness.s"] = t.inclusive["littlestone.ldim_witness"] * scale
    m["cli.bytes_out"] = sum(r["bytes_out"] for r in results)
    return m


def command_latencies(requests) -> dict:
    out = {}
    for command, metric in COMMAND_METRICS.items():
        mine = [r for r in requests if r["command"] == command]
        if mine:
            out[metric] = {
                "median": statistics.median(r["seconds"] for r in mine),
                "scaled_median": statistics.median(r["scaled"] for r in mine),
                "n": len(mine),
            }
    return out


def request_latencies(requests) -> dict:
    """label -> [(raw, scaled) seconds] in the order sent."""
    out = {}
    for r in requests:
        out.setdefault(r["label"], []).append((r["seconds"], r["scaled"]))
    return out


def dominance(layer_self: dict, predicted) -> dict:
    """Shares of traced self time.

    The prediction holds when the predicted layers together take more
    than half of the self time and the largest layer is one of them.
    """
    total = sum(layer_self.values()) or 1.0
    ranked = sorted(layer_self, key=layer_self.get, reverse=True)
    shares = {layer: layer_self[layer] / total for layer in ranked}
    return {
        "shares": shares,
        "predicted": list(predicted),
        "held": ranked[0] in predicted and sum(shares[p] for p in predicted) > 0.5,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        zerotrace = load_program()
    except (SetupError, ImportError) as exc:
        sys.stderr.write(f"perfbench: cannot load the program: {exc}\n")
        return 2
    import zerotrace.cli as cli

    env = environment(zerotrace, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        plan = workloads.passes(args.workload, args.seed)
        workloads.write_inputs([r for p in plan for r in p], workdir)
        expected = gate.load_expected()
        if args.trace:
            record = traced_run(cli, plan, workdir, expected, args)
        else:
            record = untraced_run(cli, plan, workdir, expected, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = env
    record["workload"] = args.workload
    record["trace"] = args.trace
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    spans = record.pop("tracer", None)
    if spans is not None:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(exist_ok=True)
        spans.write_spans(spans_dir / f"{stem}.csv.gz")
        record["spans_file"] = f".perfbench/spans/{stem}.csv.gz"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    units = metric_units(args.trace)
    print_report(record, units)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": record["metrics"][k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def untraced_run(cli, plan, workdir, expected, args) -> dict:
    setup_s, setup_raw_s = measure_setup()
    passes = run_passes(Client(cli, workdir, expected), plan, args.seconds)
    requests = [r for p in passes for r in p["requests"]]
    return {
        "metrics": {
            "pass_s": statistics.median(p["scaled"] for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "wall_s": statistics.median(p["seconds"] for p in passes),
        "setup_raw_s": setup_raw_s,
        "passes": [(p["seconds"], p["scaled"]) for p in passes],
        "commands": command_latencies(requests),
        "latencies": request_latencies(requests),
        **_outcome(requests),
    }


def traced_run(cli, plan, workdir, expected, args) -> dict:
    """One untraced reference pass, then traced passes; per-layer medians."""
    started = time.perf_counter()
    reference = run_passes(Client(cli, workdir, expected), plan, 0.0)[0]
    tracer = Tracer()
    tracer.install()
    try:
        remaining = args.seconds - (time.perf_counter() - started)
        passes = run_passes(Client(cli, workdir, expected, tracer), plan, remaining)
    finally:
        tracer.uninstall()
    requests = reference["requests"] + [r for p in passes for r in p["requests"]]
    # Tracing must not change any gated result.
    untraced_values = {r["key"]: r["values"] for r in reference["requests"]}
    for r in requests:
        if r["key"] in untraced_values and r["values"] != untraced_values[r["key"]]:
            r["problems"].append("traced reply differs from the untraced reply")
    rows = [p["layers"] for p in passes]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    traced = statistics.median(p["scaled"] for p in passes)
    metrics["trace.overhead_ratio"] = traced / reference["scaled"]
    self_times = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS.values()}
    return {
        "metrics": metrics,
        "untraced_pass_s": reference["scaled"],
        "traced_pass_s": traced,
        "traced_passes": len(passes),
        "spans": tracer.span_count(),
        "dominance": dominance(self_times, workloads.PREDICTED_DOMINANT[args.workload]),
        **_outcome(requests),
        "tracer": tracer,
    }


def _outcome(requests) -> dict:
    failed = [r for r in requests if r["problems"]]
    return {
        "attempted": len(requests),
        "failed": len(failed),
        "problems": [(r["label"], r["problems"]) for r in failed],
    }


def print_report(record: dict, units: dict) -> None:
    env = record["env"]
    print(
        f"perfbench workload={record['workload']} trace={record['trace']} seed={env['seed']} "
        f"backend={env['backend']} python={env['python']} nproc={env['nproc']} "
        f"commit={env['commit']} source={env['source_sha256']}"
    )
    print("closed loop, 1 client, in-process through zerotrace.cli.main")
    for name, unit in units.items():
        print(f"  {name:40s} {record['metrics'][name]:>14.6g} {unit}")
    if "wall_s" in record:
        print(f"  {'wall_s (raw pass_s)':40s} {record['wall_s']:>14.6g} s   ({len(record['passes'])} passes)")
        print(f"  {'raw setup_s':40s} {record['setup_raw_s']:>14.6g} s")
    for name, stats in record.get("commands", {}).items():
        print(
            f"  {name:40s} {stats['scaled_median']:>14.6g} s   "
            f"(median of {stats['n']}; raw {stats['median']:.6g} s)"
        )
    if record["trace"]:
        print(
            f"  tracing overhead: traced pass_s {record['traced_pass_s']:.4g} s over untraced "
            f"{record['untraced_pass_s']:.4g} s; {record['spans']} spans kept"
        )
        dom = record["dominance"]
        shares = ", ".join(f"{k} {v:.1%}" for k, v in dom["shares"].items() if v >= 0.005)
        verdict = "held" if dom["held"] else "did NOT hold"
        print(f"  self-time shares: {shares}")
        print(f"  predicted dominant layers {'+'.join(dom['predicted'])}: {verdict}")
    print(f"  fail_ratio {record['failed']}/{record['attempted']}")
    for label, problems in record["problems"][:10]:
        print(f"  FAILED {label}: {'; '.join(problems)}")


if __name__ == "__main__":
    sys.exit(main())
