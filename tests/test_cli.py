"""Command-line interface: exit codes, formats, config merge, exports."""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import golden_corpus
import pytest

import zerotrace
from zerotrace import cli, littlestone, setsystem, zerosets
from zerotrace.cli import main
from zerotrace.errors import BudgetExhaustedError, ResourceLimitError, StreamExhaustedError
from zerotrace.exactalg import PrimeField, basis_vector, scalar_from_str, scalar_to_str
from zerotrace.instances import instance_from_spec, moment_curve, parse_instance_name
from zerotrace.setsystem import GroundSet, SetFamily
from zerotrace.zerosets import Sample, enumerate_family_flats, point_from_json, verify_bundle

CSV_HEADER = "n,pi,rho,binom_le_dminus1,maximal_vc,maximal_ldim"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_subcommand_is_a_usage_error(capsys):
    # usage errors are invalid input; exit 2 means a resource limit
    for argv in ([], ["nosuch"], ["analyze", "--bogus"], ["analyze", "--n-max", "x"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3, argv
        assert "usage" in capsys.readouterr().err, argv


def test_help_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--help"])
    assert info.value.code == 0
    assert "--depth-cap" in capsys.readouterr().out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "zerotrace" in capsys.readouterr().out


def _outcome(capsys, argv):
    """Exit code, stdout without timings, and stderr of one in-process run."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    out = captured.out
    if out.startswith("{"):
        report = json.loads(out)
        del report["timings"]
        out = json.dumps(report)
    return code, out, captured.err


def test_one_parser_serves_every_request_in_a_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    requests = [
        ("analyze", "--bogus"),
        ("--version",),
        ("--help",),
        ("analyze", "--instance", "moment_curve:3"),
    ]
    first = {}
    for argv in requests:  # each on a parser of its own
        cli.build_parser.cache_clear()
        first[argv] = _outcome(capsys, argv)
    assert [first[argv][0] for argv in requests] == [3, 0, 0, 0]
    cli.build_parser.cache_clear()
    for argv in requests:  # all on one parser
        assert _outcome(capsys, argv) == first[argv], argv


def test_analyze_moment_curve(capsys):
    code, out, _ = run(capsys, "analyze", "--instance", "moment_curve:3", "--n-max", "4")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "analyze"
    assert report["vcdim"] == 2
    assert report["ldim"] == 2
    assert report["independence"]["kind"] == "independent"
    assert all(a["passed"] for a in report["assertions"])
    assert report["profiles"]["pi"] == [1, 2, 4, 7]
    assert "timings" in report


def test_analyze_requires_instance(capsys):
    code, _, err = run(capsys, "analyze")
    assert code == 3
    assert "instance" in err


def test_analyze_rejects_csv(capsys):
    code, _, err = run(capsys, "analyze", "--instance", "moment_curve:3", "--format", "csv")
    assert code == 3
    assert "CSV" in err


def test_csv_is_refused_before_any_work(tmp_path, capsys):
    # only shatter-fn has a CSV table; the other commands exit 3 up front
    out_dir = tmp_path / "csv"
    code, out, err = run(
        capsys, "export", "--instance", "two_lines", "--out", str(out_dir), "--format", "csv"
    )
    assert (code, out) == (3, "")
    assert "export has no CSV table" in err
    assert not out_dir.exists()
    code, out, err = run(capsys, "verify", "--checks", "dimensions_match", "--format", "csv")
    assert (code, out) == (3, "")
    assert err == "invalid input: verify has no CSV table\n"


def test_analyze_unknown_instance(capsys):
    code, _, err = run(capsys, "analyze", "--instance", "mystery")
    assert code == 3
    assert "unknown builtin" in err


def test_analyze_bad_instance_parameter_is_invalid_input(capsys):
    code, _, err = run(capsys, "analyze", "--instance", "moment_curve:p=x")
    assert code == 3
    assert err.startswith("invalid input:")


def test_analyze_stream_exhaustion_is_resource_exit(capsys):
    code, _, err = run(capsys, "analyze", "--instance", "moment_curve:4,p=3")
    assert code == 2
    assert "resource limit" in err


def test_shatter_fn_csv(capsys):
    code, out, _ = run(
        capsys, "shatter-fn", "--instance", "moment_curve:3", "--n-max", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "1,2,2,2,true,true"
    assert lines[5] == "5,16,16,16,true,true"


def test_shatter_fn_covered_instance_is_not_maximal(capsys):
    code, out, _ = run(
        capsys, "shatter-fn", "--instance", "two_lines", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["sampling"] == "stream-prefix"
    assert all(not row["maximal_vc"] for row in report["rows"])
    assert all(row["pi"] <= row["rho"] <= row["binom_le_dminus1"] for row in report["rows"])


def _prefix_rows_reference(inst, points):
    """(n, pi(n), rho(n)) of the walked family restricted to each prefix
    of its sample, each a search on the restricted family."""
    full = enumerate_family_flats(Sample.take(inst, points)).to_set_family()
    rows = []
    for n in range(1, len(points) + 1):
        traces = dict.fromkeys(m & ((1 << n) - 1) for m in full.masks)
        fam = SetFamily(GroundSet(n), tuple(traces))
        rows.append((n, setsystem.pi(fam, n), littlestone.rho(fam, n)))
    return rows


@pytest.mark.parametrize("name", ["moment_curve:4", "conics", "two_lines", "moment_curve:3,p=7"])
def test_prefix_rows_are_the_prefix_trace_counts(capsys, monkeypatch, name):
    # a family on n points has pi(n) = rho(n) = its size, so the prefix
    # samplings read each row off one trace count, with no search
    from zerotrace import _kernels

    calls = {"pi": 0, "rho": 0}
    for kernel in calls:
        def counted(*args, _kernel=getattr(_kernels, kernel), _name=kernel):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(_kernels, kernel, counted)
    code, out, _ = run(capsys, "shatter-fn", "--instance", name, "--n-max", "8")
    monkeypatch.undo()
    assert code == 0
    assert calls == {"pi": 0, "rho": 0}
    report = json.loads(out)
    assert report["sampling"] in ("independent-prefix", "stream-prefix")
    points = [point_from_json(p) for p in report["points"]]
    expected = _prefix_rows_reference(parse_instance_name(name), points)
    assert [(r["n"], r["pi"], r["rho"]) for r in report["rows"]] == expected


def test_shatter_fn_designed_grid_splits_the_verdicts(capsys):
    # plane union: the tree profile stays maximal while the trace
    # profile drops strictly below C(5,<3) on the designed sample
    code, out, _ = run(
        capsys, "shatter-fn", "--instance", "high_vcden:3", "--n-max", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1:5] == [
        "1,2,2,2,true,true",
        "2,4,4,4,true,true",
        "3,7,7,7,true,true",
        "4,11,11,11,true,true",
    ]
    assert lines[5] == "5,14,16,16,false,true"

    code, out, _ = run(
        capsys, "shatter-fn", "--instance", "high_vcden:3", "--n-max", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["sampling"] == "designed-grid"
    assert len(report["points"]) == 11


def test_verify_subset(capsys):
    code, out, err = run(
        capsys, "verify", "--checks", "trace_count_on_d_points,dual_basis_kronecker"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0
    assert {r["name"] for r in report["results"]} == {
        "trace_count_on_d_points",
        "dual_basis_kronecker",
    }
    for line in err.strip().splitlines():
        assert line.startswith("PASS ")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--checks", "nonsense")
    assert code == 3
    assert "unknown check" in err


def test_verify_with_no_checks_selected_is_invalid_input(tmp_path, capsys):
    # an empty selection runs nothing, so it must not read as a pass
    for selection in ("", ",", " , "):
        code, out, err = run(capsys, "verify", "--checks", selection)
        assert (code, out) == (3, "")
        assert "no checks selected" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"checks": []}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (3, "")
    assert "no checks selected" in err


def test_verify_repeated_check_is_invalid_input(tmp_path, capsys, monkeypatch):
    # a repeat would run twice, count two passes and keep one time
    monkeypatch.setattr(cli, "run_checks", lambda *a, **k: pytest.fail("a check ran"))
    expected = "invalid input: check 'json_round_trips' is selected twice\n"
    code, out, err = run(capsys, "verify", "--checks", "json_round_trips,json_round_trips")
    assert (code, out, err) == (3, "", expected)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"checks": ["json_round_trips", "dimensions_match",
                                          "json_round_trips"]}))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out, err) == (3, "", expected)


def test_verify_under_python_O_is_invalid_input():
    # -O strips the checks' assert statements, so none of them would run
    env = dict(
        os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-m", "zerotrace.cli", "verify", "--checks", "dimensions_match"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 3, done.stderr
    assert "PASS" not in done.stdout + done.stderr
    assert done.stderr.startswith("invalid input:")


def test_config_file_merge_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"instance": "moment_curve:3", "n_max": 2, "format": "csv"}))
    code, out, _ = run(capsys, "shatter-fn", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 3  # header + 2 rows
    code, out, _ = run(capsys, "shatter-fn", "--config", str(cfg), "--n-max", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # flag wins over config


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_max", "5"),
        ("n_max", True),
        ("n_max", 2.5),
        ("depth_cap", "16"),
        ("depth_cap", False),
        ("budget", None),
        ("budget", [100]),
        ("seed", "7"),
        ("seed", True),
        ("format", 5),
        ("format", ["json"]),
        ("checks", 5),
        ("checks", "dimensions_match"),
        ("checks", [1, 2]),
        ("instance", 3),
        ("out", {"dir": "x"}),
    ],
)
def test_config_rejects_wrongly_typed_values(tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instance": "moment_curve:3", key: value}))
    code, _, err = run(capsys, "shatter-fn", "--config", str(cfg))
    assert code == 3
    assert err.startswith("invalid input:")


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"instanec": "typo"}))
    code, _, err = run(capsys, "shatter-fn", "--config", str(cfg))
    assert code == 3
    assert "unknown config keys" in err


def test_analyze_report_written_without_timings(tmp_path, capsys):
    code, _, _ = run(
        capsys,
        "analyze",
        "--instance",
        "moment_curve:2",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    written = json.loads((tmp_path / "analyze_report.json").read_text())
    assert "timings" not in written
    assert written["vcdim"] == 1


def test_export_writes_reloadable_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(
        capsys,
        "export",
        "--instance",
        "high_vcden:3",
        "--n-max",
        "4",
        "--out",
        str(out_dir),
    )
    assert code == 0
    report = json.loads(out)
    assert set(report["files"]) == {
        "cover.json",
        "family.json",
        "family_sets.json",
        "instance.json",
        "shatter.csv",
        "tree.json",
    }
    # the witness bundle re-verifies from disk
    bundle = json.loads((out_dir / "family.json").read_text())
    reloaded = verify_bundle(bundle)
    assert len(reloaded) >= 1
    # the exported instance spec is loadable and consistent
    spec = json.loads((out_dir / "instance.json").read_text())
    inst = instance_from_spec(spec)
    assert inst.d == 3
    Sample.prefix(inst, 3)
    assert (out_dir / "shatter.csv").read_text().splitlines()[0] == CSV_HEADER


def test_export_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out_dir in (a, b):
        code, _, _ = run(
            capsys, "export", "--instance", "two_lines", "--n-max", "3", "--out", str(out_dir)
        )
        assert code == 0
    for name in ("instance.json", "family.json", "tree.json", "shatter.csv", "cover.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("name, p", [("moment_curve:3,p=5", 5), ("high_vcden:3,p=7", 7)])
def test_analyze_and_export_print_fp_scalars_one_way(tmp_path, capsys, name, p):
    # an F_p scalar prints as its residue in analyze and in export alike,
    # and scalar_from_str reads back every scalar that analyze prints
    code, out, _ = run(capsys, "analyze", "--instance", name)
    assert code == 0
    report = json.loads(out)
    code, _, _ = run(capsys, "export", "--instance", name, "--out", str(tmp_path))
    assert code == 0
    bundle = json.loads((tmp_path / "family.json").read_text())
    witnesses = report["family"]["witnesses"]
    assert witnesses == [entry["witness"] for entry in bundle["sets"]]
    printed = [x for w in witnesses for x in w] + (report["independence"]["witness_coeffs"] or [])
    assert printed
    for text in printed:
        assert scalar_to_str(scalar_from_str(PrimeField(p), text)) == text


def test_export_round_trips_cover_json(tmp_path, capsys, monkeypatch):
    parsed = []
    parse = cli.cover_from_json
    monkeypatch.setattr(cli, "cover_from_json", lambda data: parsed.append(data) or parse(data))
    out_dir = tmp_path / "ok"
    code, _, _ = run(capsys, "export", "--instance", "two_lines", "--n-max", "3", "--out", str(out_dir))
    assert code == 0
    assert parsed == [json.loads((out_dir / "cover.json").read_text())]

    def lossy(data):  # drops the last covering subspace
        cert = parse(data)
        return type(cert)(field=cert.field, d=cert.d, subspaces=cert.subspaces[:-1])

    monkeypatch.setattr(cli, "cover_from_json", lossy)
    bad_dir = tmp_path / "bad"
    code, _, err = run(capsys, "export", "--instance", "two_lines", "--n-max", "3", "--out", str(bad_dir))
    assert code == 1
    assert "cover export is not canonical" in err
    assert not (bad_dir / "cover.json").exists()


def test_export_of_a_coverless_plane_union_writes_no_cover(tmp_path, capsys):
    # at d = 2 the one plane is all of F^2, so high_vcden:2 declares no cover
    out_dir = tmp_path / "hv2"
    code, out, err = run(capsys, "export", "--instance", "high_vcden:2", "--out", str(out_dir))
    assert (code, err) == (0, "")
    files = {"family.json", "family_sets.json", "instance.json", "shatter.csv", "tree.json"}
    assert set(json.loads(out)["files"]) == files
    assert {path.name for path in out_dir.iterdir()} == files


def test_export_requires_out(capsys):
    code, _, err = run(capsys, "export", "--instance", "two_lines")
    assert code == 3
    assert "--out" in err


def test_analyze_instance_spec_file(tmp_path, capsys):
    spec = {
        "field": "rational",
        "d": 2,
        "family": {"polynomials": ["1", "x"], "variables": ["x"]},
        "sample": {"points": [0, 1, 2]},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "analyze", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["sample"]["kind"] == "spec"
    assert report["sample"]["points"] == [0, 1, 2]
    assert report["vcdim"] == 1


@pytest.mark.parametrize(
    "spec",
    [
        {"field": "rational", "d": 2, "family": {"builtin": "two_lines"}, "sample": {"points": []}},
        {"field": {"prime": 3}, "d": 3, "family": {"builtin": "moment_curve"}, "sample": {"points": [1]}},
    ],
    ids=["two_lines-empty", "moment_curve-f3-one-point"],
)
def test_spec_sample_too_small_to_shatter_is_no_failed_claim(tmp_path, capsys, spec):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "analyze", "--instance", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["sample"]["kind"] == "spec"
    assert all("dual-point" not in a["assertion"] for a in report["assertions"])


def test_huge_powers_over_a_prime_field_are_reduced_as_taken(tmp_path, capsys):
    # 12^10000000 as a plain int has 36 million bits; mod 13 it is 12^4 = 1
    family = {"polynomials": ["1", "x^10000000"]}
    spec = {"field": {"prime": 13}, "d": 2, "family": family, "sample": {"points": [2, 12]}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "--instance", str(path))
    assert code == 0
    assert time.perf_counter() - start < 3.0
    assert json.loads(out)["independence"]["kind"] == "independent"


#: The interpreter's limit on the digits of a printed int; 0 means none.
_PRINT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(_PRINT_LIMIT == 0, reason="ints print at any length")
@pytest.mark.parametrize("command", ["analyze", "export"])
def test_rational_values_too_long_to_print_are_resource_exits(tmp_path, capsys, command):
    # 10^k has k + 1 digits: one past the print limit at k = limit
    limit = _PRINT_LIMIT
    for k, code_wanted in ((limit - 1, 0), (limit, 2)):
        family = {"polynomials": ["1", f"x^{k}"], "variables": ["x"]}
        spec = {"field": "rational", "d": 2, "family": family, "sample": {"points": [0, 10]}}
        path = tmp_path / f"inst{k}.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, command, "--instance", str(path), "--out", str(tmp_path / str(k)))
        assert code == code_wanted, k
    assert err == f"resource limit: a value has more than {limit} digits, too many to print\n"


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_huge_rational_powers_are_refused_before_they_are_taken(tmp_path, capsys, command):
    # 2^10000000000 would take 10^10 bits
    family = {"polynomials": ["1", "x^10000000000"], "variables": ["x"]}
    spec = {"field": "rational", "d": 2, "family": family, "sample": {"points": [0, 2]}}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, command, "--instance", str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert err == "resource limit: power 10000000000 of a 2-bit value exceeds 1048576 bits\n"


def test_flat_lattice_cap_is_a_resource_exit(capsys, monkeypatch):
    # 3 points in general position in F^3 have 7 flats: the root, 3 lines, 3 planes
    monkeypatch.setattr(zerosets, "MAX_FLATS", 6)
    with pytest.raises(ResourceLimitError, match="flat lattice exceeded 6 closures"):
        enumerate_family_flats(Sample.prefix(moment_curve(3), 3))
    code, _, err = run(capsys, "analyze", "--instance", "moment_curve:3")
    assert code == 2
    assert err == "resource limit: flat lattice exceeded 6 closures\n"


def test_budget_past_the_cap_is_a_resource_exit_before_any_scan(tmp_path, capsys, monkeypatch):
    scanned = []
    row = zerosets.Instance.row
    monkeypatch.setattr(zerosets.Instance, "row", lambda self, p: scanned.append(p) or row(self, p))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"budget": 100_000_000}))
    check = ("--checks", "independence_three_way_negative")
    for budget, argv in (
        (100_000_000, ("verify", "--budget", "100000000", *check)),
        (100_000_000, ("verify", "--config", str(config), *check)),
        (1_000_001, ("analyze", "--instance", "moment_curve:3", "--budget", "1000001")),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"resource limit: budget {budget} exceeds the limit of 1000000 stream points\n"
    assert scanned == []
    monkeypatch.setattr(zerosets, "MAX_BUDGET", 100)
    code, _, err = run(capsys, "verify", "--budget", "101", *check)
    assert code == 2
    assert err == "resource limit: budget 101 exceeds the limit of 100 stream points\n"
    assert scanned == []
    code, _, _ = run(capsys, "verify", "--budget", "100", *check)
    assert code == 0 and scanned


def test_non_utf8_config_and_spec_are_invalid_input(tmp_path, capsys):
    blob = tmp_path / "binary.json"
    blob.write_bytes(b"\x7fELF\xff\xfe\x00\x81{}")
    for flag in ("--config", "--instance"):
        code, _, err = run(capsys, "shatter-fn", flag, str(blob))
        assert code == 3, flag
        assert err.startswith("invalid input:"), flag


_HUGE_INT = "9" * 5000  # past int's default limit of 4300 digits


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize(
    "flag, text",
    [
        (
            "--instance",
            '{"field": "rational", "d": 2, "family": {"builtin": "moment_curve"}, '
            f'"sample": {{"points": [{_HUGE_INT}]}}}}',
        ),
        ("--config", f'{{"instance": "moment_curve:3", "seed": {_HUGE_INT}}}'),
    ],
    ids=["spec", "config"],
)
def test_integer_literal_past_the_digit_limit_is_invalid_input(tmp_path, capsys, flag, text):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    path = tmp_path / "big.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", flag, str(path))
    assert (code, out) == (3, "")
    assert err.startswith("invalid input: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "sample, code",
    [
        ({"prefix": "a"}, 3),
        ({"prefix": True}, 3),
        ({"prefix": 0}, 3),
        ({"prefix": 2.5}, 3),
        ({"prefix": 21}, 2),
        ({"prefix": 10**9}, 2),
        ([3], 3),
        ("prefix", 3),
        ({"points": 5}, 3),
        ({"points": "012"}, 3),
    ],
    ids=str,
)
def test_bad_sample_spec_exits_without_scanning(tmp_path, sample, code):
    path = tmp_path / "inst.json"
    spec = {"field": "rational", "d": 3, "family": {"builtin": "moment_curve"}, "sample": sample}
    path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "analyze", "--instance", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith("resource limit:" if code == 2 else "invalid input:")


@pytest.mark.parametrize(
    "family, points",
    [
        ("moment_curve", [{"a": 1}]),
        ("moment_curve", [[1, [2]]]),
        ("high_vcden", [5]),
        ("high_vcden", [[0, 1]]),
        ("high_vcden", [[0, 1, "x"]]),
        ("high_vcden", [[0, 1, True]]),
        ("two_lines", [[1, 2]]),
        ("two_lines", ["a"]),
        ("two_lines", [1.5]),
    ],
    ids=str,
)
def test_malformed_sample_points_are_invalid_input(tmp_path, capsys, family, points):
    path = tmp_path / "inst.json"
    d = 2 if family == "two_lines" else 3
    spec = {"field": "rational", "d": d, "family": {"builtin": family}, "sample": {"points": points}}
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "analyze", "--instance", str(path))
    assert code == 3
    assert err.startswith("invalid input:")


_FUZZ_WORDS = ("", "x", "x^2", "1", "moment_curve", "high_vcden", "two_lines", "conics")


def _fuzz_json(rng, depth=0):
    """A small random JSON value: scalars of every type, nested lists and objects."""
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return rng.randint(-3, 12)
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice(_FUZZ_WORDS)
    if kind == 3:
        return rng.choice((0.5, -1.0, 2.0))
    if kind == 4:
        return None
    if kind == 5:
        return [_fuzz_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    keys = ("builtin", "points", "prefix", "polynomials", "variables")
    return {rng.choice(keys): _fuzz_json(rng, depth + 1) for _ in range(rng.randint(0, 2))}


def _fuzz_spec(rng) -> dict:
    """A spec whose family and sample parts are well formed, near misses or noise."""
    field = rng.choice(("rational", {"prime": 3}, {"prime": 5}))
    spec = {"field": field, "d": rng.choice((2, 3))}
    r = rng.random()
    if r < 0.5:
        spec["family"] = {"builtin": rng.choice(_FUZZ_WORDS[4:] + ("ellipse_carrier",))}
    elif r < 0.7:
        polys = [rng.choice(("x", "x^2", "y", "1", "x*y")) for _ in range(rng.randint(1, 3))]
        variables = rng.choice((["x"], ["x", "y"], _fuzz_json(rng, 1)))
        spec["family"] = {"polynomials": polys, "variables": variables}
    else:
        spec["family"] = _fuzz_json(rng)

    def point():
        r = rng.random()
        if r < 0.3:
            return rng.randint(-4, 4)
        if r < 0.7:
            return [rng.randint(-2, 4) for _ in range(rng.choice((1, 2, 3, 3)))]
        return _fuzz_json(rng, 1)

    r = rng.random()
    if r < 0.55:
        spec["sample"] = {"points": [point() for _ in range(rng.randint(0, 6))]}
    elif r < 0.75:
        spec["sample"] = {"prefix": _fuzz_json(rng, 1)}
    elif r < 0.9:
        spec["sample"] = _fuzz_json(rng)
    return spec


def test_fuzzed_family_and_sample_specs_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(20211018)
    path = tmp_path / "inst.json"
    codes = set()
    for _ in range(300):
        spec = _fuzz_spec(rng)
        path.write_text(json.dumps(spec))
        code, _, _ = run(capsys, "analyze", "--instance", str(path), "--budget", "200", "--n-max", "2")
        assert code in (0, 1, 2, 3), spec
        codes.add(code)
    assert {0, 3} <= codes


@pytest.mark.parametrize(
    "name, code",
    [
        ("moment_curve:3,p=2147483647", 0),
        ("high_vcden:3,p=2147483647", 2),  # the F_p witness search reaches its try cap
    ],
)
def test_prime_at_the_modulus_cap_ends_in_an_exit_code(capsys, name, code):
    got, _, err = run(capsys, "analyze", "--instance", name)
    assert got == code, err


_FUZZ_NAMES = (
    "moment_curve",
    "high_vcden",
    "two_lines",
    "conics",
    "ellipse_carrier",
    "",
    "mystery",
    "moment_curve:",
    ":3",
    "moment_curve:x",
    "moment_curve:3,q=2",
    "high_vcden:3,p=",
    "moment_curve:3,p=7,d=2",
)
_FUZZ_PRIMES = (0, 1, 4, 3, 13, 2**31 - 1, 2**31)

#: Seconds any one fuzzed request may take; the slowest legitimate ones,
#: F_p witness searches at p = 2^31 - 1 that stop at their try cap, take
#: a few seconds.
_FUZZ_CASE_SECONDS = 20


def _fuzz_instance_name(rng) -> str:
    """A built-in or junk name, with d in 0..6 and p from _FUZZ_PRIMES, each maybe left out."""
    name = rng.choice(_FUZZ_NAMES)
    params = []
    if rng.random() < 0.8:
        params.append(str(rng.randint(0, 6)))
    if rng.random() < 0.6:
        params.append(f"p={rng.choice(_FUZZ_PRIMES)}")
    return f"{name}:{','.join(params)}" if params and ":" not in name else name


def _timed_exit(capsys, *argv) -> int:
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert elapsed < _FUZZ_CASE_SECONDS, (argv, elapsed)
    return code


def test_fuzzed_instance_names_end_in_an_exit_code(capsys):
    rng = random.Random(20261019)
    codes = set()
    for _ in range(300):
        command = rng.choice(("analyze", "shatter-fn"))
        name = _fuzz_instance_name(rng)
        codes.add(_timed_exit(capsys, command, "--instance", name, "--n-max", "2", "--budget", "200"))
    assert {0, 2, 3} <= codes


def _fuzz_config(rng, out: str) -> dict:
    """Some RunConfig keys, each mostly set to a value the key accepts
    and otherwise to a value of any type."""
    valid = {
        "instance": ("moment_curve:3", "high_vcden:3", "two_lines", "moment_curve:2,p=3"),
        "n_max": (1, 2, 3, 17),
        "depth_cap": (1, 2, 16, 21),
        "budget": (1, 20, 200),
        "out": (out, ""),
        "format": ("json", "csv"),
        "seed": (0, 7, -1, 2**40),
        "checks": (["dimensions_match"], ["grid_trace_count", "shattered_set"]),
    }
    assert set(valid) == set(cli._CONFIG_KEYS)
    junk = ("mystery", "", "2", 0, -3, 2.5, True, None, [], [1, 2], {"dir": "x"}, ["nope"])
    return {
        key: rng.choice(values) if rng.random() < 0.85 else rng.choice(junk)
        for key, values in valid.items()
        if rng.random() < 0.5
    }


def test_fuzzed_config_values_end_in_an_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a junk string as `out` is a relative directory
    rng = random.Random(20261020)
    path = tmp_path / "run.json"
    codes = set()
    for i in range(150):
        path.write_text(json.dumps(_fuzz_config(rng, str(tmp_path / f"out{i}"))))
        command = rng.choice(("analyze", "shatter-fn", "verify", "export"))
        codes.add(_timed_exit(capsys, command, "--config", str(path)))
    assert {0, 3} <= codes


def _write_spec(tmp_path, field):
    path = tmp_path / "constant.json"
    spec = {"field": field, "d": 2, "family": {"polynomials": ["1", "2"], "variables": ["x"]}}
    path.write_text(json.dumps(spec))
    return path


def test_shatter_fn_stops_at_budget_when_images_repeat(tmp_path):
    # every image is (1, 2): the stream never yields a second distinct image
    path = _write_spec(tmp_path, "rational")
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "shatter-fn", "--instance", str(path),
         "--n-max", "3", "--budget", "200"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2
    assert "resource limit" in done.stderr


def test_analyze_oversized_dual_sample_exits_before_the_walk():
    # d = 40 gives a 40-point dual-basis sample, beyond the 20-point cap
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "analyze", "--instance", "moment_curve:40"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("resource limit:")


def test_default_sample_past_the_point_cap_exits_before_the_dual_basis():
    # the walk refuses a 120-point sample; finding its dual basis takes seconds
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "analyze", "--instance", "moment_curve:120"],
        capture_output=True,
        text=True,
        env=env,
        timeout=3,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "resource limit: sample of 120 points exceeds the limit 20\n"


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_dual_sample_past_max_sets_exits_before_the_dual_basis(tmp_path, command):
    # 13 dual points trace 2^13 - 1 sets; the walk took about a second to refuse them
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", command, "--instance", "moment_curve:13",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=3,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "resource limit: family exceeds the soft limit of 4096 sets\n"


def test_dual_sample_past_max_sets_searches_no_dual_basis(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("dual basis searched")

    monkeypatch.setattr(cli, "dual_basis", no_search)
    code, out, err = run(capsys, "analyze", "--instance", "moment_curve:13")
    assert (code, out) == (2, "")
    assert err == "resource limit: family exceeds the soft limit of 4096 sets\n"


def test_shatter_fn_short_stream_gives_short_table(tmp_path, capsys):
    path = _write_spec(tmp_path, {"prime": 3})
    code, out, _ = run(
        capsys, "shatter-fn", "--instance", str(path), "--n-max", "3", "--budget", "200"
    )
    assert code == 0
    report = json.loads(out)
    assert report["sampling"] == "stream-prefix"
    assert report["points"] == [0]
    assert [row["n"] for row in report["rows"]] == [1]


def test_shatter_fn_checks_depth_cap_before_the_walk(capsys, monkeypatch):
    def no_walk(sample):
        raise AssertionError("flat walk started")

    monkeypatch.setattr(cli, "enumerate_family_flats", no_walk)
    code, _, err = run(capsys, "shatter-fn", "--instance", "moment_curve:3", "--n-max", "17")
    assert code == 2
    assert "rho depth 17 exceeds cap 16" in err


def test_depth_cap_past_the_sample_cap_is_invalid_input(capsys, monkeypatch):
    # no family has more than 20 points, and past its ground size rho is |F|
    def no_work(*args, **kwargs):
        raise AssertionError("analysis started")

    monkeypatch.setattr(cli, "linearly_independent", no_work)
    for cap in ("21", "100000"):
        code, out, err = run(capsys, "analyze", "--instance", "moment_curve:3", "--n-max", "100000",
                             "--depth-cap", cap)
        assert (code, out) == (3, "")
        assert err == f"invalid input: depth-cap {cap} exceeds 20\n"
    monkeypatch.undo()
    code, out, _ = run(capsys, "analyze", "--instance", "moment_curve:3", "--n-max", "21",
                       "--depth-cap", "20")
    assert code == 0
    # the 3-point dual-basis family fills its 7 members at every depth >= 3
    assert json.loads(out)["profiles"]["rho"] == [1, 2, 4] + [7] * 18


def test_shatter_fn_bounds_sampling_by_the_depth_cap():
    # only 17 points are sampled, however long a table is asked for
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "shatter-fn", "--instance", "moment_curve:3",
         "--n-max", "100000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2, done.stderr
    assert "rho depth 17 exceeds cap 16" in done.stderr


def test_shatter_fn_designed_grid_builds_no_column_past_the_depth_cap(capsys, monkeypatch):
    inst = parse_instance_name("high_vcden:3")

    def guarded(n):
        if n > 17:
            raise AssertionError(f"asked for {n} grid columns")
        return inst.profile_points(n)

    monkeypatch.setattr(
        cli, "parse_instance_name", lambda text: replace(inst, profile_points=guarded)
    )
    code, out, err = run(capsys, "shatter-fn", "--instance", "high_vcden:3", "--n-max", "3000000")
    assert (code, out) == (2, "")
    assert err == "resource limit: rho depth 17 exceeds cap 16\n"


@pytest.mark.parametrize(
    "argv, k, count",
    [
        # over Q, k d-wise independent points trace the C(k, <= d-1) subsets of size < d
        pytest.param(("moment_curve:12", "--n-max", "100000"), 13, "C(13, <= 11) = 8178",
                     id="moment_curve:12 --n-max 100000"),
        pytest.param(("moment_curve:9", "--n-max", "17"), 13, "C(13, <= 8) = 7099",
                     id="moment_curve:9 --n-max 17"),
        # over F_p each (d-1)-subset is still a trace, so C(k, d-1) is a floor
        pytest.param(("moment_curve:9,p=31", "--n-max", "16"), 15, "at least C(15, 8) = 6435",
                     id="moment_curve:9,p=31 --n-max 16"),
    ],
)
def test_shatter_fn_caps_the_subset_count_before_sampling(argv, k, count, capsys, monkeypatch):
    def no_walk(sample):
        raise AssertionError("flat walk started")

    sampled = []
    sequence = cli.independence_sequence

    def recorded(inst, n, *, budget):
        sampled.append(n)
        return sequence(inst, n, budget=budget)

    monkeypatch.setattr(cli, "enumerate_family_flats", no_walk)
    monkeypatch.setattr(cli, "independence_sequence", recorded)
    code, out, err = run(capsys, "shatter-fn", "--instance", *argv)
    assert (code, out) == (2, "")
    assert sampled == [k]
    assert err == (
        f"resource limit: an independent {k}-point sample traces {count} sets, "
        "over the soft limit of 4096\n"
    )


def _spec_file(tmp_path, field, d, polynomials, variables):
    path = tmp_path / "inst.json"
    family = {"polynomials": polynomials, "variables": variables}
    path.write_text(json.dumps({"field": field, "d": d, "family": family}))
    return str(path)


def test_a_faulty_independence_kernel_fails_analyze(tmp_path, capsys, monkeypatch):
    # e_0 is no kernel vector of the line through (1, 2)
    path = _spec_file(tmp_path, "rational", 2, ["x", "2*x"], ["x"])
    monkeypatch.setattr(
        zerosets, "nullspace_basis", lambda field, d, basis: [basis_vector(field, d, 0)]
    )
    code, out, err = run(capsys, "analyze", "--instance", path)
    assert (code, out) == (1, "")
    assert err.startswith("assertion failed: ") and err.count("\n") == 1
    assert err.endswith(": the kernel of the streamed images misses one of them\n")


def test_shatter_fn_stalled_sequence_falls_back_to_the_whole_table(tmp_path, capsys):
    # d = 13 over Q, but every image lies in the span of 1, x, x^2, x^3:
    # the sequence stalls at 4 points, below the 13 the count allows, and
    # the stream prefix still fills all 16 rows asked for
    polynomials = ["1", "x", "x^2", "x^3"] + [f"{c}*x^3" for c in range(2, 11)]
    path = _spec_file(tmp_path, "rational", 13, polynomials, ["x"])
    code, out, err = run(capsys, "shatter-fn", "--instance", path, "--n-max", "16")
    assert code == 0, err
    report = json.loads(out)
    assert report["sampling"] == "stream-prefix"
    assert len(report["rows"]) == 16


def test_shatter_fn_over_a_prime_field_leaves_the_set_limit_to_the_walk(
    tmp_path, capsys, monkeypatch
):
    # e1..e12 and their sum are 12-wise independent in F_2^12: C(13, <= 11)
    # = 8178 passes the limit, but F_2^12 has only 4095 nonzero functionals
    def walked(sample):
        raise ResourceLimitError(f"walk of {len(sample.points)} points")

    names = [f"x{i}" for i in range(1, 13)]
    path = _spec_file(tmp_path, {"prime": 2}, 12, names, names)
    monkeypatch.setattr(cli, "enumerate_family_flats", walked)
    code, _, err = run(capsys, "shatter-fn", "--instance", path, "--n-max", "13")
    assert (code, err) == (2, "resource limit: walk of 13 points\n")


@pytest.mark.parametrize(
    "argv, sampling, rows",
    [
        # the 11-point F_11 curve stalls the sequence short of the count
        (("moment_curve:9,p=11", "--n-max", "16"), "stream-prefix", 11),
        # at d = 1 every sample carries one trace, so no count caps the table
        (("moment_curve:1", "--n-max", "5"), "independent-prefix", 5),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_shatter_fn_tables_below_the_subset_count_run(argv, sampling, rows):
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "shatter-fn", "--instance", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["sampling"] == sampling
    assert len(report["rows"]) == rows


def test_shatter_fn_samples_only_the_points_it_reports(capsys):
    # 8 points stay under the subset count; the d - 1 = 9 more points
    # that shatter-fn once asked for would trace C(17, <= 9) = 89,846 sets
    code, out, _ = run(capsys, "shatter-fn", "--instance", "moment_curve:10,p=11", "--n-max", "8")
    assert code == 0
    report = json.loads(out)
    assert report["sampling"] == "independent-prefix"
    assert len(report["points"]) == 8
    assert [(r["pi"], r["rho"]) for r in report["rows"]] == [(2**n, 2**n) for n in range(1, 9)]


def test_verify_budget_limit_exits_2_and_other_failures_exit_1(monkeypatch, capsys):
    argv = ["verify", "--budget", "3", "--checks", "dichotomy_on_builtins"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    assert (report["passed"], report["failed"]) == (0, 1)
    assert report["results"][0]["error"].startswith("BudgetExhaustedError:")
    assert err.startswith("FAIL dichotomy_on_builtins:")

    def crash(ctx):
        raise ValueError("designed crash")

    assertion, _ = cli.CHECKS["grid_membership_pattern"]
    monkeypatch.setitem(cli.CHECKS, "grid_membership_pattern", (assertion, crash))
    code, out, _ = run(capsys, *argv[:-1], "dichotomy_on_builtins,grid_membership_pattern")
    assert code == 1
    assert json.loads(out)["failed"] == 2


class _DesignedLimitError(ResourceLimitError):
    """A limit error no module of the package raises."""


@pytest.mark.parametrize(
    "error",
    [StreamExhaustedError, BudgetExhaustedError, _DesignedLimitError],
    ids=lambda error: error.__name__,
)
def test_verify_stream_exhaustion_exits_2_and_with_a_crash_exits_1(error, monkeypatch, capsys):
    # exit 2 follows the ResourceLimitError tree, not a list of names
    def exhaust(ctx):
        raise error("designed end of stream")

    def crash(ctx):
        raise ValueError("designed crash")

    for name, check in (("json_round_trips", exhaust), ("grid_membership_pattern", crash)):
        assertion, _ = cli.CHECKS[name]
        monkeypatch.setitem(cli.CHECKS, name, (assertion, check))
    code, out, err = run(capsys, "verify", "--checks", "json_round_trips")
    assert code == 2
    report = json.loads(out)
    assert (report["passed"], report["failed"]) == (0, 1)
    assert report["results"][0]["error"] == f"{error.__name__}: designed end of stream"
    assert err.startswith("FAIL json_round_trips:")
    code, out, _ = run(capsys, "verify", "--checks", "json_round_trips,grid_membership_pattern")
    assert code == 1
    assert json.loads(out)["failed"] == 2


def test_verify_budget_below_d_is_a_resource_exit(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "1")
    assert code == 2
    errors = [r["error"] for r in json.loads(out)["results"] if not r["passed"]]
    assert errors and all(e.startswith("BudgetExhaustedError:") for e in errors)
    assert any("budget 1 cannot reach d=2 points" in e for e in errors)


@pytest.mark.parametrize("budget", ["2", "5"])
def test_verify_verdicts_the_budget_cut_short_are_resource_exits(budget, capsys):
    # {x, x^3} over F_3 needs all 3 points for its proof, and
    # ellipse_carrier's 5 independent images need more than 5 points
    code, out, _ = run(capsys, "verify", "--budget", budget)
    assert code == 2
    results = {r["name"]: r for r in json.loads(out)["results"]}
    failed = [r["error"] for r in results.values() if not r["passed"]]
    assert failed and all(e.startswith("BudgetExhaustedError:") for e in failed)
    cut = "dependent_pair_f3" if budget == "2" else "independence_three_way_positive"
    assert f"after the budget of {budget} stream points" in results[cut]["error"]


def test_analyze_budget_below_d_is_a_resource_exit(capsys):
    code, out, err = run(capsys, "analyze", "--instance", "moment_curve:3", "--budget", "2")
    assert (code, out) == (2, "")
    assert err == "resource limit: budget 2 cannot reach d=3 points\n"


def test_verify_times_each_check_in_timings_only(tmp_path, capsys):
    names = ["json_round_trips", "grid_membership_pattern"]
    code, out, _ = run(capsys, "verify", "--checks", ",".join(names), "--out", str(tmp_path))
    assert code == 0
    timings = json.loads(out)["timings"]
    assert sorted(timings) == ["checks", "wall_s"]
    assert sorted(timings["checks"]) == sorted(names)
    assert all(isinstance(t, float) and t >= 0 for t in timings["checks"].values())
    written = json.loads((tmp_path / "verify_report.json").read_text())
    assert "timings" not in written
    assert [r["name"] for r in written["results"]] == names


def test_shatter_fn_cap_applies_to_the_sampled_length(capsys):
    cases = [
        # the F_5 stream ends after 5 distinct points, so 17 > cap 6 never comes up
        (("moment_curve:2,p=5", "--n-max", "17", "--depth-cap", "6"), 5),
        # the F_13 stream ends after 13 distinct points, below the cap of 16
        (("moment_curve:3,p=13", "--n-max", "25"), 13),
    ]
    for argv, rows in cases:
        code, out, _ = run(capsys, "shatter-fn", "--instance", *argv)
        assert code == 0
        report = json.loads(out)
        assert report["sampling"] == "stream-prefix"
        assert [row["n"] for row in report["rows"]] == list(range(1, rows + 1))


def _moment_curve_spec(tmp_path, d):
    """The 20-point moment curve spec of dimension d, on points -10..9."""
    path = tmp_path / f"moment_curve_{d}.json"
    spec = {"field": "rational", "d": d, "family": {"builtin": "moment_curve"},
            "sample": {"points": list(range(-10, 10))}}
    path.write_text(json.dumps(spec))
    return path


def test_deep_analyze_profile_finishes_in_seconds(tmp_path):
    path = _moment_curve_spec(tmp_path, 4)
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "analyze", "--instance", str(path), "--n-max", "12"],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["vcdim"], report["ldim"]) == (3, 3)


def test_analyze_runs_one_vc_search_and_one_split_search(tmp_path, capsys, monkeypatch):
    # vcdim and ldim are read off the pi and rho profiles, which fall
    # short of 2^k at k = 4, so neither dimension gets a search of its own
    from zerotrace import _kernels

    calls = {"_shattered_depth": 0, "_rho_search": 0}
    for name in calls:
        search = getattr(_kernels, name)

        def counted(*args, _search=search, _name=name):
            calls[_name] += 1
            return _search(*args)

        monkeypatch.setattr(_kernels, name, counted)
    code, out, _ = run(capsys, "analyze", "--instance", str(_moment_curve_spec(tmp_path, 4)),
                       "--n-max", "8")
    assert code == 0
    assert calls == {"_shattered_depth": 1, "_rho_search": 1}
    report = json.loads(out)
    assert (report["vcdim"], report["ldim"]) == (3, 3)


def test_analyze_searches_a_dimension_its_profile_leaves_open(capsys):
    # moment_curve:4 has vcdim = ldim = 3; profiles up to n = 2 or 3 fill
    # every 2^k, so the dimensions come from their own searches
    for n_max in ("2", "3", "4"):
        code, out, _ = run(capsys, "analyze", "--instance", "moment_curve:4", "--n-max", n_max)
        assert code == 0
        report = json.loads(out)
        assert (report["vcdim"], report["ldim"]) == (3, 3), n_max


GOLDEN_CORPUS = json.loads(golden_corpus.MANIFEST.read_text())


@pytest.mark.parametrize("argv", golden_corpus.REQUESTS, ids=golden_corpus.key)
def test_request_matches_golden_corpus(tmp_path, argv):
    assert golden_corpus.outputs(argv, tmp_path / "out") == GOLDEN_CORPUS[golden_corpus.key(argv)]


def test_golden_corpus_pins_exactly_its_requests():
    # a stale entry, or a request without one, would go unnoticed otherwise
    assert set(GOLDEN_CORPUS) == {golden_corpus.key(argv) for argv in golden_corpus.REQUESTS}
    assert len(GOLDEN_CORPUS) == len(golden_corpus.REQUESTS)


def _matches_corpus(tmp_path, argv):
    """Whether request argv gives its manifest entry; the entry itself."""
    entry = GOLDEN_CORPUS[golden_corpus.key(argv)]
    return golden_corpus.outputs(argv, tmp_path / "out") == entry, entry


#: The requests whose report digests were pinned before the corpus was;
#: each has exit code 0 and its corpus entry.
GOLDEN_DIGEST_REQUESTS = [
    ("analyze", "--instance", "moment_curve:3"),
    ("analyze", "--instance", "moment_curve:3,p=5"),
    ("analyze", "--instance", "two_lines"),
    # witnesses with rational denominators, and with F_13 entries
    ("analyze", "--instance", "conics"),
    ("analyze", "--instance", "moment_curve:4,p=13"),
    ("shatter-fn", "--instance", "moment_curve:4", "--n-max", "6"),
    ("shatter-fn", "--instance", "high_vcden:3", "--n-max", "7"),
    # pi(n) < C(n, <= 2) for n >= 5, so those depths never stop at their cap
    ("shatter-fn", "--instance", "high_vcden:3", "--n-max", "8"),
    ("shatter-fn", "--instance", "high_vcden:4", "--n-max", "5"),
    # every check at the default seed, exact details included
    ("verify",),
]


@pytest.mark.parametrize("argv", GOLDEN_DIGEST_REQUESTS, ids=" ".join)
def test_report_matches_golden_digest(tmp_path, argv):
    matches, entry = _matches_corpus(tmp_path, argv)
    assert matches
    assert entry["exit"] == 0


#: The limit exits, refusals and CSV output pinned before the corpus was,
#: with their exit codes.  "{spec}" stands for the checked-in Q spec
#: x^2 - y, x*y, x^2 - y + 3*x*y.
GOLDEN_EXIT_REQUESTS = {
    ("analyze", "--instance", "moment_curve:13"): 2,
    ("analyze", "--instance", "moment_curve:12,p=2"): 2,
    ("analyze", "--instance", "moment_curve:3", "--budget", "1000001"): 2,
    ("shatter-fn", "--instance", "moment_curve:3", "--n-max", "30", "--depth-cap", "2"): 2,
    ("verify", "--budget", "3", "--checks", "dichotomy_on_builtins"): 2,
    ("verify", "--depth-cap", "1"): 2,
    ("analyze", "--instance", "nope"): 3,
    ("verify", "--checks", "nonsense"): 3,
    ("verify", "--checks", "json_round_trips,json_round_trips"): 3,
    ("shatter-fn", "--instance", "moment_curve:4", "--n-max", "6", "--format", "csv"): 0,
    ("analyze", "--instance", "{spec}"): 0,
}


@pytest.mark.parametrize("argv", list(GOLDEN_EXIT_REQUESTS), ids=" ".join)
def test_exits_and_outputs_match_golden_table(tmp_path, argv):
    spec = golden_corpus.TESTS + "/quadrics.json"
    matches, entry = _matches_corpus(tmp_path, tuple(spec if a == "{spec}" else a for a in argv))
    assert matches
    assert entry["exit"] == GOLDEN_EXIT_REQUESTS[argv]


def test_deep_analyze_profile_matches_golden_digest(tmp_path):
    # rho(0..12) of the 20-point d=3 family, a search that was exhaustive
    # until each side of a split got its own ldim bound
    argv = ("analyze", "--instance", golden_corpus.TESTS + "/moment_curve_3.json", "--n-max", "12")
    matches, entry = _matches_corpus(tmp_path, argv)
    assert matches
    assert entry["exit"] == 0


def test_designed_grid_export_matches_golden_digests(tmp_path):
    # the witness tree and the rho column read off the grid family
    matches, entry = _matches_corpus(tmp_path, ("export", "--instance", "high_vcden:3", "--out",
                                                golden_corpus.OUT))
    assert matches
    assert entry["exit"] == 0
    assert {"tree.json", "shatter.csv"} <= set(entry["files"])
