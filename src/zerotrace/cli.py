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
under a separate key excluded from that guarantee.  Each command
returns its exit code with its report: 0 all pass, 1 assertion or
check failure, 2 resource limit (a ResourceLimitError, also when every
failed verify check stopped at one), 3 invalid input (any other
ZerotraceError, also a usage error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import cache
from math import comb
from pathlib import Path
from typing import Optional

from . import __version__, zerosets
from ._kernels import binom_le, count_restrictions
from .claims import CHECKS, DEFAULT_SEED, run_checks
from .constructions import dual_basis, independence_sequence
from .errors import (
    BudgetExhaustedError,
    InvalidInputError,
    ResourceLimitError,
    StreamExhaustedError,
    ZerotraceError,
)
from .exactalg import entry_strings
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
    tree_from_json,
    tree_to_json,
    vc_profile,
)
from .maximality import cover_from_json, cover_to_json
from .setsystem import MAX_POINTS, MAX_SETS, family_to_json, vcdim
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
            for i, name in enumerate(self.checks):
                if name not in CHECKS:
                    raise InvalidInputError(f"unknown check {name!r}")
                if name in self.checks[:i]:  # a report would count it twice
                    raise InvalidInputError(f"check {name!r} is selected twice")
        if self.n_max < 1:
            raise InvalidInputError("n-max must be >= 1")
        if self.depth_cap < 1 or self.budget < 1:
            raise InvalidInputError("budgets and caps must be positive")
        if self.depth_cap > MAX_POINTS:
            # no family has more points, and past its ground size rho is |F|
            raise InvalidInputError(f"depth-cap {self.depth_cap} exceeds {MAX_POINTS}")
        if self.format not in ("json", "csv"):
            raise InvalidInputError(f"unknown format {self.format!r}")
        if self.format == "csv" and self.command != "shatter-fn":
            raise InvalidInputError(f"{self.command} has no CSV table")
        if self.budget > zerosets.MAX_BUDGET:
            raise ResourceLimitError(
                f"budget {self.budget} exceeds the limit of {zerosets.MAX_BUDGET} stream points"
            )


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _round_tripped(blob, reparse, what: str) -> str:
    """blob's canonical text, checked to come back byte for byte through reparse."""
    text = _canonical(blob)
    if _canonical(reparse(json.loads(text))) != text:
        raise AssertionError(f"{what} export is not canonical")
    return text


def _read_json(path: Path):
    """The JSON in path.  Every ValueError json.loads raises is invalid
    input: bad JSON, bad UTF-8, or an integer literal past int's digit
    limit."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise InvalidInputError(str(e)) from e


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
        spec = _read_json(path)
        return instance_from_spec(spec), spec
    return parse_instance_name(text), None


def _default_sample(inst, spec, cfg: RunConfig, verdict):
    if spec is not None and "sample" in spec:
        return sample_from_spec(inst, spec), "spec"
    if inst.d > MAX_POINTS:  # the walk would refuse the d points; skip finding them
        raise ResourceLimitError(f"sample of {inst.d} points exceeds the limit {MAX_POINTS}")
    if verdict.kind == "independent":
        if (1 << inst.d) - 1 > MAX_SETS:  # the walk would refuse its 2^d - 1 traces
            raise ResourceLimitError(f"family exceeds the soft limit of {MAX_SETS} sets")
        return dual_basis(inst, budget=cfg.budget).sample, "dual-basis"
    return Sample.prefix(inst, inst.d), "stream-prefix"


def _dimension(profile: list, search, fam) -> int:
    """vcdim off a pi profile, or ldim off a rho profile: both fill all
    2^k exactly up to the dimension, so once some k falls short the
    dimension is k-1.  search answers when no k does, or when k = 0
    (the empty family)."""
    short = next((k for k, value in enumerate(profile) if value < 1 << k), None)
    return short - 1 if short else search(fam)


def cmd_analyze(cfg: RunConfig) -> tuple:
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
    failed = any(not a["passed"] for a in assertions)
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
                entry_strings(verdict.witness_coeffs)
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
            "witnesses": [entry_strings(z.witness) for z in zfam.sets],
        },
        "vcdim": vc,
        "ldim": ld,
        "profiles": {
            "pi": pis,
            "rho": rhos,
            "binom_le_dminus1": [binom_le(n, inst.d - 1) for n in range(rho_top + 1)],
        },
        "assertions": assertions,
    }, EXIT_ASSERTION if failed else EXIT_OK


def _independent_traces(inst, k: int) -> int:
    """How many traces k d-wise independent points carry, or a floor.

    Each (d-1)-subset is a trace, cut by the one hyperplane through its
    images, which misses every other image.  Over Q the traces are
    exactly the C(k, <= d-1) subsets of size < d; over F_p a smaller
    subset may find no hyperplane of its own, so C(k, d-1) is the floor.
    """
    return binom_le(k, inst.d - 1) if inst.field.p == 0 else comb(k, inst.d - 1)


def _shatter_rows(inst, cfg: RunConfig):
    d = inst.d
    designed = inst.profile_points is not None
    # A table longer than depth_cap or MAX_POINTS exits 2, so one point
    # past the tighter cap is as far as sampling need go.
    table = min(cfg.n_max, cfg.depth_cap + 1, MAX_POINTS + 1)
    if designed:
        # The instance names its own extremal sample; pi and rho are
        # then profiled on that one family across every n.
        sampling = "designed-grid"
        sample = Sample.take(inst, inst.profile_points(table))
    else:
        # The sequence stops sooner, at the first k whose traces pass
        # MAX_SETS; if it stalls, the stream prefix fills the table.
        count = next((k for k in range(table) if _independent_traces(inst, k) > MAX_SETS), table)
        sampling = "independent-prefix"
        try:
            sample = independence_sequence(inst, count, budget=cfg.budget)
        except (BudgetExhaustedError, StreamExhaustedError):
            sampling = "stream-prefix"
            sample = distinct_image_points(inst, table, budget=cfg.budget)
    top = min(cfg.n_max, len(sample))
    if top > cfg.depth_cap:
        raise ResourceLimitError(f"rho depth {cfg.depth_cap + 1} exceeds cap {cfg.depth_cap}")
    k = len(sample)
    if sampling == "independent-prefix" and _independent_traces(inst, k) > MAX_SETS:
        counted = f"C({k}, <= {d - 1})" if inst.field.p == 0 else f"at least C({k}, {d - 1})"
        raise ResourceLimitError(
            f"an independent {k}-point sample traces {counted} = "
            f"{_independent_traces(inst, k)} sets, over the soft limit of {MAX_SETS}"
        )
    # One walk on the longest sample: the traces on a prefix are the
    # restrictions of the traces on the whole sample.
    full = enumerate_family_flats(sample).to_set_family()
    if designed:
        pis = vc_profile(full, top)
        rhos = littlestone_profile(full, top, depth_cap=cfg.depth_cap)
    else:
        # A family on n >= 1 points has pi(n) = rho(n) = its size: its n
        # points are the only n-subset, and each member fills its own leaf
        # of the tree that asks every point on every path.
        pis = rhos = [count_restrictions(full.masks, (1 << n) - 1) for n in range(top + 1)]
    rows = []
    for n in range(1, top + 1):
        p_n, r_n = pis[n], rhos[n]
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
    return rows, sampling, sample.points


def _rows_to_csv(rows) -> str:
    header = "n,pi,rho,binom_le_dminus1,maximal_vc,maximal_ldim"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['n']},{row['pi']},{row['rho']},{row['binom_le_dminus1']},"
            f"{str(row['maximal_vc']).lower()},{str(row['maximal_ldim']).lower()}"
        )
    return "\n".join(lines) + "\n"


def cmd_shatter_fn(cfg: RunConfig) -> tuple:
    inst, _ = _load_instance(cfg)
    rows, sampling, points = _shatter_rows(inst, cfg)
    return {
        "command": "shatter-fn",
        "config": asdict(cfg),
        "instance": {"name": inst.name, "d": inst.d},
        "sampling": sampling,
        "points": [point_to_json(p) for p in points],
        "rows": rows,
    }, EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple:
    """The checklist report; one PASS/FAIL line per check goes to stderr."""
    results = run_checks(
        cfg.checks,
        budget=cfg.budget,
        seed=cfg.seed,
        depth_cap=cfg.depth_cap,
    )
    for r in results:
        line = f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.assertion}"
        if r.error:
            line += f" [{r.error}]"
        sys.stderr.write(line + "\n")
    failed = [r for r in results if not r.passed]
    code = EXIT_OK
    if failed:  # a resource limit only if every failed check stopped at one
        code = EXIT_RESOURCE if all(r.limit for r in failed) else EXIT_ASSERTION
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
        "passed": len(results) - len(failed),
        "failed": len(failed),
    }, code


def cmd_export(cfg: RunConfig) -> tuple:
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
    if inst.cover is not None:
        written["cover.json"] = _round_tripped(
            cover_to_json(inst.cover),
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
    }, EXIT_OK


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as invalid input: exit 3, not argparse's
    2, which the CLI keeps for resource limits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring the flags")
    p.add_argument("--instance", help="built-in name or path to an instance spec")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--depth-cap", type=int, dest="depth_cap")
    p.add_argument("--budget", type=int)
    p.add_argument("--out", help="directory for written artifacts")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--seed", type=int)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one in the process.  argparse reads sys.stdout,
    sys.stderr and the terminal width when it prints, not when it is
    built, so one parser serves every call; it is not built at import,
    which would slow every start."""
    epilog = "built-in instances:\n" + "\n".join(
        f"  {name}: {text}" for name, text in sorted(builtin_help().items())
    )
    parser = _Parser(
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
        loaded = _read_json(Path(args.config))
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
        report, code = runner(cfg)
        elapsed = time.perf_counter() - start
        _emit(report, cfg, elapsed)
        return code
    except ResourceLimitError as e:
        sys.stderr.write(f"resource limit: {e}\n")
        return EXIT_RESOURCE
    except AssertionError as e:
        sys.stderr.write(f"assertion failed: {e}\n")
        return EXIT_ASSERTION
    except (ZerotraceError, OSError) as e:
        sys.stderr.write(f"invalid input: {e}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
