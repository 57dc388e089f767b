"""Command line: analyze instances, tabulate growth, verify, export.

Subcommands:

* analyze: independence verdict, enumerated trace family on the
  construction-derived sample, both dimensions, both growth profiles,
  and the d-1 assertions;
* shatter-fn: the per-n table of pi, rho, and the C(n,<d) reference
  column with per-n maximality verdicts;
* verify: the full claims checklist, one pass/fail line per check;
* export: canonical JSON bundles (instance, family with witnesses,
  tree, optional cover) and the shatter CSV, re-verified on write.

Reports are deterministic given the config; wall-clock timings live
under a separate key excluded from that guarantee.  Exit codes: 0 all
pass, 1 assertion or check failure, 2 resource limit (also when every
failed verify check stopped at one), 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

from . import __version__
from ._kernels import binom_le
from .claims import CHECKS, DEFAULT_SEED, run_checks
from .constructions import dual_basis, independence_sequence
from .errors import (
    BudgetExhaustedError,
    InvalidInputError,
    ResourceLimitError,
    StreamExhaustedError,
    ZerotraceError,
)
from .instances import (
    builtin_help,
    instance_from_spec,
    parse_instance_name,
    sample_from_spec,
)
from .littlestone import (
    MAX_DEPTH,
    ldim,
    ldim_witness,
    littlestone_profile,
    rho,
    tree_from_json,
    tree_to_json,
    vc_profile,
)
from .maximality import cover_from_instance, cover_from_json, cover_to_json
from .setsystem import MAX_POINTS, family_to_json, pi, restrict, vcdim
from .zerosets import (
    DEFAULT_BUDGET,
    Sample,
    distinct_image_points,
    enumerate_family_flats,
    family_bundle,
    linearly_independent,
    point_to_json,
    verify_bundle,
)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_RESOURCE = 2
EXIT_INVALID = 3


@dataclass
class RunConfig:
    """Echoed verbatim into every report."""

    command: str
    instance: Optional[str] = None
    n_max: int = 6
    depth_cap: int = MAX_DEPTH
    budget: int = DEFAULT_BUDGET
    out: Optional[str] = None
    format: str = "json"
    seed: int = DEFAULT_SEED
    checks: Optional[tuple] = None

    def __post_init__(self):
        for name in ("n_max", "depth_cap", "budget", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for name in ("instance", "out"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise InvalidInputError(f"{name} must be a string, got {value!r}")
        if self.checks is not None:
            if not isinstance(self.checks, tuple) or not all(
                isinstance(c, str) for c in self.checks
            ):
                raise InvalidInputError(f"checks must be a list of names, got {self.checks!r}")
            if not self.checks:
                raise InvalidInputError("no checks selected")
            for name in self.checks:
                if name not in CHECKS:
                    raise InvalidInputError(f"unknown check {name!r}")
        if self.n_max < 1:
            raise InvalidInputError("n-max must be >= 1")
        if self.depth_cap < 1 or self.budget < 1:
            raise InvalidInputError("budgets and caps must be positive")
        if self.format not in ("json", "csv"):
            raise InvalidInputError(f"unknown format {self.format!r}")
        if self.format == "csv" and self.command != "shatter-fn":
            raise InvalidInputError(f"{self.command} has no CSV table")


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _round_tripped(blob, reparse, what: str) -> str:
    """blob's canonical text, checked to come back byte for byte through reparse."""
    text = _canonical(blob)
    if _canonical(reparse(json.loads(text))) != text:
        raise AssertionError(f"{what} export is not canonical")
    return text


def _load_instance(cfg: RunConfig):
    """NAME for built-ins, or a path to a JSON instance spec.

    Returns (instance, spec_dict_or_None); a file spec may carry its
    own sample section.
    """
    if not cfg.instance:
        raise InvalidInputError("this command needs --instance NAME|PATH")
    text = cfg.instance
    path = Path(text)
    if text.endswith(".json") or path.is_file():
        spec = json.loads(path.read_text(encoding="utf-8"))
        return instance_from_spec(spec), spec
    return parse_instance_name(text), None


def _default_sample(inst, spec, cfg: RunConfig, verdict):
    if spec is not None and "sample" in spec:
        return sample_from_spec(inst, spec, default_prefix=inst.d), "spec"
    if verdict.kind == "independent":
        db = dual_basis(inst, budget=cfg.budget)
        return Sample.take(inst, db.points), "dual-basis"
    return Sample.prefix(inst, inst.d), "stream-prefix"


def _dimension(profile: list, search, fam) -> int:
    """vcdim off a pi profile, or ldim off a rho profile: both fill all
    2^k exactly up to the dimension, so once some k falls short the
    dimension is k-1.  search answers when no k does, or when k = 0
    (the empty family)."""
    short = next((k for k, value in enumerate(profile) if value < 1 << k), None)
    return short - 1 if short else search(fam)


def cmd_analyze(cfg: RunConfig) -> dict:
    inst, spec = _load_instance(cfg)
    verdict = linearly_independent(inst, budget=cfg.budget)
    sample, sample_kind = _default_sample(inst, spec, cfg, verdict)
    zfam = enumerate_family_flats(sample)
    fam = zfam.to_set_family()
    rho_top = min(cfg.n_max, cfg.depth_cap)
    pis = list(vc_profile(fam, cfg.n_max))
    rhos = list(littlestone_profile(fam, rho_top, depth_cap=cfg.depth_cap))
    vc, ld = _dimension(pis, vcdim, fam), _dimension(rhos, ldim, fam)
    assertions = [
        {
            "assertion": "littlestone.ldim(fam) <= d-1",
            "passed": ld <= inst.d - 1,
            "values": {"ldim": ld, "d": inst.d},
        },
        {
            "assertion": "setsystem.vcdim(fam) <= littlestone.ldim(fam)",
            "passed": vc <= ld,
            "values": {"vcdim": vc, "ldim": ld},
        },
        {
            "assertion": "pi(n) <= rho(n) for computed n",
            "passed": all(p <= r for p, r in zip(pis, rhos)),
            "values": {"pi": pis, "rho": rhos},
        },
    ]
    if sample_kind == "dual-basis":
        assertions.append(
            {
                "assertion": "vcdim(fam) == ldim(fam) == d-1 on the dual-point sample",
                "passed": vc == ld == inst.d - 1,
                "values": {"vcdim": vc, "ldim": ld, "d": inst.d},
            }
        )
    return {
        "command": "analyze",
        "config": asdict(cfg),
        "instance": {"name": inst.name, "d": inst.d},
        "independence": {
            "kind": verdict.kind,
            "scanned": verdict.scanned,
            "rank": verdict.rank,
            "stream_exhausted": verdict.stream_exhausted,
            "witness_coeffs": (
                [str(x) for x in verdict.witness_coeffs.entries]
                if verdict.witness_coeffs is not None
                else None
            ),
        },
        "sample": {
            "kind": sample_kind,
            "points": [point_to_json(p) for p in sample.points],
        },
        "family": {
            "method": zfam.method,
            "count": len(zfam.sets),
            "masks": [z.mask for z in zfam.sets],
            "witnesses": [[str(x) for x in z.witness.entries] for z in zfam.sets],
        },
        "vcdim": vc,
        "ldim": ld,
        "profiles": {
            "pi": pis,
            "rho": rhos,
            "binom_le_dminus1": [binom_le(n, inst.d - 1) for n in range(rho_top + 1)],
        },
        "assertions": assertions,
    }


def _shatter_rows(inst, cfg: RunConfig):
    d = inst.d
    designed = inst.profile_points is not None
    if designed:
        # The instance names its own extremal sample; pi and rho are
        # then profiled on that one family across every n.
        sampling = "designed-grid"
        points = list(inst.profile_points(cfg.n_max))
    else:
        # A table longer than depth_cap or MAX_POINTS exits 2, so one
        # point past the tighter cap is as far as sampling need go.
        table = min(cfg.n_max, cfg.depth_cap + 1, MAX_POINTS + 1)
        sampling = "independent-prefix"
        try:
            points = list(independence_sequence(inst, table, budget=cfg.budget).points)
        except (BudgetExhaustedError, StreamExhaustedError):
            sampling = "stream-prefix"
            points = distinct_image_points(inst, table, budget=cfg.budget)
    top = min(cfg.n_max, len(points))
    if top > cfg.depth_cap:
        raise ResourceLimitError(f"rho depth {cfg.depth_cap + 1} exceeds cap {cfg.depth_cap}")
    # One walk on the longest sample: the traces on a prefix are the
    # restrictions of the traces on the whole sample.
    full = enumerate_family_flats(Sample.take(inst, points)).to_set_family()
    if designed:
        pis = vc_profile(full, top)
        rhos = littlestone_profile(full, top, depth_cap=cfg.depth_cap)
    rows = []
    for n in range(1, top + 1):
        if designed:
            p_n, r_n = pis[n], rhos[n]
        else:
            fam = restrict(full, range(n))
            p_n, r_n = pi(fam, n), rho(fam, n, depth_cap=cfg.depth_cap)
        ref = binom_le(n, d - 1)
        rows.append(
            {
                "n": n,
                "pi": p_n,
                "rho": r_n,
                "binom_le_dminus1": ref,
                "maximal_vc": p_n == ref,
                "maximal_ldim": r_n == ref,
            }
        )
    return rows, sampling, points


def _rows_to_csv(rows) -> str:
    header = "n,pi,rho,binom_le_dminus1,maximal_vc,maximal_ldim"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['n']},{row['pi']},{row['rho']},{row['binom_le_dminus1']},"
            f"{str(row['maximal_vc']).lower()},{str(row['maximal_ldim']).lower()}"
        )
    return "\n".join(lines) + "\n"


def cmd_shatter_fn(cfg: RunConfig) -> dict:
    inst, _ = _load_instance(cfg)
    rows, sampling, points = _shatter_rows(inst, cfg)
    return {
        "command": "shatter-fn",
        "config": asdict(cfg),
        "instance": {"name": inst.name, "d": inst.d},
        "sampling": sampling,
        "points": [point_to_json(p) for p in points],
        "rows": rows,
    }


def cmd_verify(cfg: RunConfig) -> dict:
    results = run_checks(
        cfg.checks,
        budget=cfg.budget,
        seed=cfg.seed,
        depth_cap=cfg.depth_cap,
    )
    return {
        "command": "verify",
        "config": asdict(cfg),
        "timings": {"checks": {r.name: round(r.wall_s, 3) for r in results}},
        "results": [
            {
                "name": r.name,
                "assertion": r.assertion,
                "passed": r.passed,
                "details": r.details,
                "error": r.error,
            }
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }


def cmd_export(cfg: RunConfig) -> dict:
    if not cfg.out:
        raise InvalidInputError("export needs --out DIR")
    inst, spec = _load_instance(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}

    recipe = inst.spec
    if recipe is None:
        raise InvalidInputError(f"instance {inst.name} has no exportable recipe")
    written["instance.json"] = _canonical(recipe)

    verdict = linearly_independent(inst, budget=cfg.budget)
    sample, _ = _default_sample(inst, spec, cfg, verdict)
    zfam = enumerate_family_flats(sample)
    bundle = family_bundle(zfam)
    verify_bundle(bundle)  # every membership bit, re-derived
    written["family.json"] = _canonical(bundle)

    fam = zfam.to_set_family()
    written["family_sets.json"] = _canonical(family_to_json(fam))

    written["tree.json"] = _round_tripped(
        tree_to_json(ldim_witness(fam)),
        lambda data: tree_to_json(tree_from_json(data, fam)),
        "tree",
    )
    if inst.cover_subspaces is not None:
        written["cover.json"] = _round_tripped(
            cover_to_json(cover_from_instance(inst)),
            lambda data: cover_to_json(cover_from_json(data)),
            "cover",
        )

    rows, sampling, _ = _shatter_rows(inst, cfg)
    written["shatter.csv"] = _rows_to_csv(rows)

    for name, payload in written.items():
        (out / name).write_text(payload)
    return {
        "command": "export",
        "config": asdict(cfg),
        "instance": {"name": inst.name, "d": inst.d},
        "sampling": sampling,
        "files": sorted(written),
        "out": str(out),
    }


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--instance", help="built-in name or path to an instance spec")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--depth-cap", type=int, dest="depth_cap")
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="directory for written artifacts")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    epilog = "built-in instances:\n" + "\n".join(
        f"  {name}: {text}" for name, text in sorted(builtin_help().items())
    )
    parser = argparse.ArgumentParser(
        prog="zerotrace",
        description="exact trace families of zero sets: dimensions, growth, verification",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"zerotrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("analyze", "dimensions and profiles of one instance"),
        ("shatter-fn", "per-n growth table with the C(n,<d) reference"),
        ("verify", "run the claims checklist"),
        ("export", "write canonical JSON bundles and the CSV table"),
    ):
        p = sub.add_parser(name, help=text)
        _add_common(p)
        if name == "verify":
            p.add_argument(
                "--checks",
                help="comma-separated subset of checks (default: all)",
            )
    return parser


#: The keys a --config file may set, each overridden by its flag.
_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise InvalidInputError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_KEYS)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for key in _CONFIG_KEYS:
        given = getattr(args, key, None)
        if given is not None and key != "checks":
            values[key] = given
    checks = getattr(args, "checks", None)
    if checks is not None:
        values["checks"] = tuple(c.strip() for c in checks.split(",") if c.strip())
    elif isinstance(values.get("checks"), list):
        values["checks"] = tuple(values["checks"])
    return RunConfig(command=args.command, **values)


def _emit(report: dict, cfg: RunConfig, elapsed: float) -> None:
    """Write the report; a command's own `timings` join `wall_s` on stdout only."""
    report = dict(report)
    timings = report.pop("timings", {})
    if cfg.format == "csv":
        sys.stdout.write(_rows_to_csv(report["rows"]))
    else:
        payload = dict(report, timings={"wall_s": round(elapsed, 3), **timings})
        sys.stdout.write(_canonical(payload))
    if cfg.out and report["command"] != "export":
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        name = report["command"].replace("-", "_") + "_report.json"
        (out / name).write_text(_canonical(report))


#: Errors that make a failed verify check a resource limit, not a refuted
#: claim; the report names them in each result's `error`.
_LIMIT_ERRORS = (ResourceLimitError, BudgetExhaustedError, StreamExhaustedError)


def _exit_code(report: dict) -> int:
    if report["command"] == "verify":
        errors = [r["error"] for r in report["results"] if not r["passed"]]
        limits = {e.__name__ for e in _LIMIT_ERRORS}
        if errors and all(e.split(":", 1)[0] in limits for e in errors):
            return EXIT_RESOURCE
        return EXIT_ASSERTION if errors else EXIT_OK
    if report["command"] == "analyze":
        if any(not a["passed"] for a in report["assertions"]):
            return EXIT_ASSERTION
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        runner = {
            "analyze": cmd_analyze,
            "shatter-fn": cmd_shatter_fn,
            "verify": cmd_verify,
            "export": cmd_export,
        }[cfg.command]
        start = time.perf_counter()
        report = runner(cfg)
        elapsed = time.perf_counter() - start
        if cfg.command == "verify":
            for r in report["results"]:
                mark = "PASS" if r["passed"] else "FAIL"
                line = f"{mark} {r['name']}: {r['assertion']}"
                if r["error"]:
                    line += f" [{r['error']}]"
                sys.stderr.write(line + "\n")
        _emit(report, cfg, elapsed)
        return _exit_code(report)
    except _LIMIT_ERRORS as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return EXIT_RESOURCE
    except AssertionError as e:
        sys.stderr.write(f"assertion failed: {e}\n")
        return EXIT_ASSERTION
    except (ZerotraceError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
