"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They check that inputs are a pure function of the seed, that the gate
rejects corrupted replies, that a traced pass sees every counter the
prediction table expects on each workload, that tracing changes no
gated result, and that the benchmark refuses to run without the
program's sources.  A full run takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run
import workloads
from tracing import Tracer

run.load_program()
import zerotrace.cli as cli  # noqa: E402 - needs the path set by load_program


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _reply(request, workdir: Path) -> str:
    argv = [a.replace("{input}", str(workdir / (request.input_name or ""))) for a in request.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


class SelfTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _requests(self, workload, seed):
        return [r for p in workloads.passes(workload, seed) for r in p]

    def test_same_seed_gives_identical_input_files(self):
        for i, seed in enumerate((5, 5, 6)):
            workloads.write_inputs(self._requests("lattice", seed), self.tmp / str(i))
        first, again, other = (_files(self.tmp / str(i)) for i in range(3))
        self.assertEqual(first, again)
        self.assertEqual(set(first), set(other))
        self.assertNotEqual(first, other)
        for workload in workloads.WORKLOADS:
            self.assertEqual(self._requests(workload, 9), self._requests(workload, 9))

    def test_gate_counts_corrupted_replies(self):
        requests = self._requests("lattice", 1)
        workloads.write_inputs(requests, self.tmp)
        for label in ("analyze moment_curve:4,p=13", "analyze high_vcden:4"):
            request = next(r for r in requests if r.label == label)
            text = _reply(request, self.tmp)
            problems, _ = gate.check(request, 0, text, {}, {})
            self.assertEqual(problems, [], label)

            report = json.loads(text)
            masks = report["family"]["masks"]
            k = next(i for i, m in enumerate(masks) if m ^ 1 not in masks)
            masks[k] ^= 1
            problems, _ = gate.check(request, 0, json.dumps(report), {}, {})
            self.assertTrue(problems, f"{label}: flipped mask bit passed the gate")

            report = json.loads(text)
            witness = report["family"]["witnesses"][-1]
            witness[-1] = "7" if witness[-1] != "7" else "8"
            problems, _ = gate.check(request, 0, json.dumps(report), {}, {})
            self.assertTrue(problems, f"{label}: wrong witness entry passed the gate")

    def test_gate_counts_corrupted_export_and_failed_verify(self):
        export = next(r for r in self._requests("grid", 1) if r.command == "export")
        out = self.tmp / "export"
        argv = [a.replace("{out}", str(out)) for a in export.argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            self.assertEqual(cli.main(argv), 0)
        files = {p.name: p.read_text() for p in out.iterdir()}
        self.assertEqual(gate.check(export, 0, stdout.getvalue(), files, {})[0], [])
        bundle = json.loads(files["family.json"])
        bundle["sets"][1]["witness"][0] = "5"
        files["family.json"] = json.dumps(bundle)
        self.assertTrue(gate.check(export, 0, stdout.getvalue(), files, {})[0])

        verify = self._requests("verify", 1)[0]
        reply = {"results": [{"name": "x", "passed": False}], "failed": 1}
        self.assertTrue(gate.check(verify, 0, json.dumps(reply), {}, {})[0])
        self.assertTrue(gate.check(verify, 1, "", {}, {})[0])

    def test_traced_pass_counts_and_matches_untraced(self):
        expected = gate.load_expected()
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                plan = workloads.passes(workload, 1)[:1]
                workloads.write_inputs(plan[0], self.tmp)
                plain = run.run_passes(run.Client(cli, self.tmp, expected), plan, 0.0)[0]
                tracer = Tracer()
                tracer.install()
                try:
                    traced = run.run_passes(run.Client(cli, self.tmp, expected, tracer), plan, 0.0)[0]
                finally:
                    tracer.uninstall()
                for r in plain["requests"] + traced["requests"]:
                    self.assertEqual(r["problems"], [], r["label"])
                self.assertEqual(
                    [r["values"] for r in plain["requests"]],
                    [r["values"] for r in traced["requests"]],
                )
                layers = traced["layers"]
                timed = [n for n in layers if n.endswith("_s") or n.endswith(".s")]
                for name in (*workloads.EXPECTED_NONZERO[workload], *workloads.EXPECTED_EVERYWHERE, *timed):
                    self.assertGreater(layers[name], 0, f"{workload}: {name}")
                self.assertFalse(hasattr(cli.main, "__wrapped__"), "uninstall left a wrapper")

    def test_refuses_to_run_without_the_program(self):
        bare = self.tmp / "bare"
        shutil.copytree(Path(__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=120,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
