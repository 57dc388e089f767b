"""The request corpus whose outputs tests/golden_corpus.json pins.

Each request is one command line.  Its manifest entry holds the exit
code, the sha256 of stdout without `timings`, the sha256 of stderr and
the sha256 of each file the request writes under --out.  "{out}" in a
request stands for a fresh directory, and "{tests}" for the directory
of this file, which holds the spec files the corpus reads.  Stdout
writes those directories as "{out}" and "{tests}" too, so no entry
depends on where the run took place.

An entry changes only with an intended change of output.  After one,
regenerate the manifest and show the diff of its entries:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from zerotrace.cli import main

TESTS_DIR = Path(__file__).parent
MANIFEST = TESTS_DIR / "golden_corpus.json"
OUT = "{out}"
TESTS = "{tests}"

SHORTHANDS = (
    "moment_curve:3",
    "moment_curve:5",
    "moment_curve:3,p=5",
    "moment_curve:4,p=13",
    "moment_curve:12,p=2",
    "moment_curve:13",
    "moment_curve:1",
    "high_vcden:3",
    "high_vcden:4",
    "high_vcden:3,p=7",
    "high_vcden:2",
    "two_lines",
    "conics",
    "ellipse_carrier",
    "nope",
)

REQUESTS = [
    ("verify",),
    ("verify", "--seed", "7"),
    ("verify", "--seed", "123"),
    ("verify", "--budget", "1"),
    ("verify", "--budget", "3"),
    ("verify", "--budget", "5"),
    ("verify", "--depth-cap", "1"),
    ("verify", "--checks", "span_injectivity_suite,strict_bound_under_cover,"
     "non_maximality_certificates,dichotomy_on_builtins,cover_refutation"),
    ("verify", "--checks", "nonsense"),
    ("verify", "--checks", "grid_trace_count,nonsense"),
    ("verify", "--budget", "3", "--checks", "dichotomy_on_builtins"),
    ("analyze", "--instance", "moment_curve:3", "--budget", "1000001"),
    *(("analyze", "--instance", name) for name in SHORTHANDS),
    *(("shatter-fn", "--instance", name, "--n-max", "8") for name in SHORTHANDS),
    *(("shatter-fn", "--instance", name, "--n-max", "6", "--format", "csv")
      for name in SHORTHANDS),
    *(("export", "--instance", name, "--out", OUT) for name in SHORTHANDS),
    ("shatter-fn", "--instance", "moment_curve:4", "--n-max", "6"),
    ("shatter-fn", "--instance", "high_vcden:3", "--n-max", "7"),
    ("shatter-fn", "--instance", "high_vcden:4", "--n-max", "5"),
    ("shatter-fn", "--instance", "moment_curve:3", "--n-max", "30", "--depth-cap", "2"),
    ("shatter-fn", "--instance", "moment_curve:4", "--n-max", "6", "--format", "csv"),
    ("verify", "--checks", "json_round_trips,json_round_trips"),
    # x^2 - y, x*y, x^2 - y + 3*x*y over Q: a dependent triple
    ("analyze", "--instance", TESTS + "/quadrics.json"),
    # a budget below its horizon of 9 points: the verdict stays evidence
    ("analyze", "--instance", TESTS + "/quadrics.json", "--budget", "5"),
    # rho(0..12) of the 20-point d=3 family on -10..9, a search that was
    # exhaustive until each side of a split got its own ldim bound
    ("analyze", "--instance", TESTS + "/moment_curve_3.json", "--n-max", "12"),
]


def key(argv) -> str:
    return " ".join(argv)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(argv, out_dir: Path) -> dict:
    """Run one request in-process with out_dir as "{out}"; its manifest entry."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [str(out_dir) if a == OUT else a.replace(TESTS, str(TESTS_DIR)) for a in argv]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = stdout.getvalue()
    if out.startswith("{"):
        report = json.loads(out)
        del report["timings"]
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return {
        "exit": code,
        "stdout": _sha256(out.replace(str(out_dir), OUT).replace(str(TESTS_DIR), TESTS).encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "files": {path.name: _sha256(path.read_bytes()) for path in files},
    }


def regenerate() -> dict:
    manifest = {}
    for argv in REQUESTS:
        with tempfile.TemporaryDirectory() as tmp:
            manifest[key(argv)] = outputs(argv, Path(tmp) / "out")
    return manifest


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(regenerate(), indent=2) + "\n")
