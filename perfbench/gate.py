"""Correctness gate: checks what a reply means, not its bytes.

Every trace witness is re-checked with this file's own exact
arithmetic (Python ints, Fractions and residues mod p, not zerotrace's
field classes): ``witness . image(x) == 0`` must hold exactly when x is
in the trace's mask.  Dimensions and profile rows must respect
vcdim <= ldim <= d-1 and pi(n) <= rho(n) <= C(n,<d); on the designed
plane-union sample rho(n) must equal C(n,<d).  A verify reply may
report no failed check; the number of checks is not fixed.

``values`` extracts the parts of a reply that later code may not
change (masks, dimensions, profile rows), which are compared with the
values recorded in expected.json for the same request.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def binom_le(n: int, k: int) -> int:
    return sum(comb(n, i) for i in range(0, min(n, k) + 1)) if k >= 0 else 0


# ---------------------------------------------------------------------------
# Instances, evaluated independently of zerotrace
# ---------------------------------------------------------------------------


class Field:
    """Q when p is None, otherwise F_p; scalars are Fractions or ints mod p."""

    def __init__(self, p=None):
        self.p = p

    def num(self, value):
        return Fraction(value) if self.p is None else int(value) % self.p

    def parse(self, text: str):
        """A scalar as the CLI prints it: "3/4" over Q, "5" or "5(mod 13)" over F_p."""
        if self.p is None:
            return Fraction(text)
        value, _, modulus = text.partition("(mod ")
        if modulus and int(modulus.rstrip(")")) != self.p:
            raise ValueError(f"scalar {text!r} is not in F_{self.p}")
        return int(value) % self.p

    def is_zero(self, value) -> bool:
        return value == 0 if self.p is None else value % self.p == 0


def _field_from_spec(data) -> Field:
    if data == "rational":
        return Field()
    return Field(int(data["prime"]))


def instance_from_spec(spec: dict):
    """(field, d, image function) for the built-in families the workloads use."""
    field = _field_from_spec(spec["field"])
    d = int(spec["d"])
    name = spec["family"]["builtin"]
    num = field.num
    if name == "moment_curve":
        return field, d, lambda x: [num(x) ** k for k in range(d)]
    if name == "conics":
        return field, d, lambda pt: [num(pt[0] * pt[0]), num(pt[0] * pt[1]), num(pt[1] * pt[1]),
                                     num(pt[0]), num(pt[1]), num(1)]
    if name == "ellipse_carrier":
        return field, d, lambda pt: [num(pt[0] * pt[0]), num(pt[1] * pt[1]), num(pt[0]),
                                     num(pt[1]), num(1)]
    if name == "high_vcden":
        def image(pt):
            i, s, t = pt
            out = [num(0)] * d
            out[0] = num(s)
            out[i + 1] = num(t)
            return out
        return field, d, image
    raise ValueError(f"gate has no evaluator for builtin {name!r}")


def witness_problems(spec: dict, points, masks, witnesses) -> list:
    """Each witness must vanish exactly on its mask's points."""
    field, d, image = instance_from_spec(spec)
    images = [image(p) for p in points]
    problems = []
    if len(masks) != len(witnesses):
        problems.append(f"{len(masks)} masks but {len(witnesses)} witnesses")
    if len(set(masks)) != len(masks):
        problems.append("duplicate trace masks")
    for mask, witness in zip(masks, witnesses):
        coeffs = [field.parse(x) for x in witness]
        if len(coeffs) != d or all(field.is_zero(c) for c in coeffs):
            problems.append(f"witness {witness} is not a nonzero vector of width {d}")
            continue
        for i, v in enumerate(images):
            on_zero_set = field.is_zero(sum(a * b for a, b in zip(coeffs, v)))
            if on_zero_set != bool(mask >> i & 1):
                problems.append(f"mask {mask}: witness {witness} disagrees at point {i}")
                break
    return problems


def row_problems(rows, d: int, grid: bool) -> list:
    """rows: (n, pi, rho, reference) tuples of a shatter table."""
    problems = []
    for n, p, r, ref in rows:
        if ref != binom_le(n, d - 1):
            problems.append(f"n={n}: reference column {ref} != C({n},<{d})")
        if not p <= r <= binom_le(n, d - 1):
            problems.append(f"n={n}: pi {p} <= rho {r} <= C(n,<d) fails")
        if grid and r != binom_le(n, d - 1):
            problems.append(f"n={n}: designed grid rho {r} != C(n,<d)")
    return problems


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _analyze(request, report, files):
    spec = json.loads(request.input_text)
    d = report["instance"]["d"]
    fam = report["family"]
    problems = [] if fam["count"] == len(fam["masks"]) else ["family count differs from masks"]
    problems += witness_problems(spec, report["sample"]["points"], fam["masks"], fam["witnesses"])
    vc, ld = report["vcdim"], report["ldim"]
    if not vc <= ld <= d - 1:
        problems.append(f"vcdim {vc} <= ldim {ld} <= d-1 = {d - 1} fails")
    pis, rhos = report["profiles"]["pi"], report["profiles"]["rho"]
    problems += row_problems(
        [(n, pis[n], rhos[n], binom_le(n, d - 1)) for n in range(min(len(pis), len(rhos)))],
        d,
        grid=False,
    )
    values = {
        "masks": fam["masks"],
        "vcdim": vc,
        "ldim": ld,
        "pi": pis,
        "rho": rhos,
        "independence": report["independence"]["kind"],
    }
    return problems, values


def _shatter(request, report, files):
    d = report["instance"]["d"]
    rows = [(r["n"], r["pi"], r["rho"], r["binom_le_dminus1"]) for r in report["rows"]]
    problems = row_problems(rows, d, request.grid)
    values = {"sampling": report["sampling"], "points": report["points"], "rows": rows}
    return problems, values


def _export(request, report, files):
    missing = {"instance.json", "family.json", "tree.json", "shatter.csv"} - set(files)
    if missing:
        return [f"export did not write {sorted(missing)}"], {}
    bundle = json.loads(files["family.json"])
    spec = bundle["instance"]
    d = spec["d"]
    masks = [s["mask"] for s in bundle["sets"]]
    problems = witness_problems(spec, bundle["points"], masks, [s["witness"] for s in bundle["sets"]])
    table = list(csv.DictReader(io.StringIO(files["shatter.csv"])))
    rows = [
        (int(r["n"]), int(r["pi"]), int(r["rho"]), int(r["binom_le_dminus1"])) for r in table
    ]
    problems += row_problems(rows, d, request.grid)
    depth = json.loads(files["tree.json"])["depth"]
    if not 0 <= depth <= d - 1:
        problems.append(f"tree depth {depth} outside 0..d-1")
    values = {"masks": masks, "rows": rows, "tree_depth": depth}
    return problems, values


def _verify(request, report, files):
    failed = [r["name"] for r in report["results"] if not r["passed"]]
    problems = [f"verify reported failed checks {failed}"] if failed or report["failed"] else []
    return problems, None


CHECKS = {"analyze": _analyze, "shatter-fn": _shatter, "export": _export, "verify": _verify}


def request_key(request) -> str:
    """Identity of a request: its argument template plus its input bytes."""
    blob = json.dumps([list(request.argv), request.input_text])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _canonical(values):
    return json.loads(json.dumps(values))  # tuples -> lists, as stored


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check(request, exit_code: int, stdout: str, files: dict, expected: dict):
    """(problems, values) for one reply; no problems means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads(stdout)
        problems, values = CHECKS[request.command](request, report, files)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed reply: {type(exc).__name__}: {exc}"], None
    recorded = expected.get(request_key(request))
    if recorded is not None and _canonical(values) != recorded["values"]:
        problems.append("gated values differ from the values recorded for this request")
    return problems, values
