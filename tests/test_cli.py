"""Command-line interface: exit codes, formats, config merge, exports."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zerotrace
from zerotrace import cli
from zerotrace.cli import main
from zerotrace.instances import instance_from_spec
from zerotrace.zerosets import Sample, verify_bundle

CSV_HEADER = "n,pi,rho,binom_le_dminus1,maximal_vc,maximal_ldim"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "zerotrace" in capsys.readouterr().out


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


def test_non_utf8_config_and_spec_are_invalid_input(tmp_path, capsys):
    blob = tmp_path / "binary.json"
    blob.write_bytes(b"\x7fELF\xff\xfe\x00\x81{}")
    for flag in ("--config", "--instance"):
        code, _, err = run(capsys, "shatter-fn", flag, str(blob))
        assert code == 3, flag
        assert err.startswith("invalid input:"), flag


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
        "depth_cap": (1, 2, 16),
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


@pytest.mark.parametrize(
    "argv",
    [
        # a 17-point table needs C(17, 11) = 12,376 and C(17, 8) = 24,310 spans
        ("moment_curve:12", "--n-max", "100000"),
        ("moment_curve:9", "--n-max", "17"),
    ],
    ids=" ".join,
)
def test_shatter_fn_caps_the_subset_count_before_sampling(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(zerotrace.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "zerotrace.cli", "shatter-fn", "--instance", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("resource limit:")
    assert "over the cap 4096" in done.stderr


def test_shatter_fn_samples_only_the_points_it_reports(capsys):
    # 8 points stay under the subset cap; the d - 1 = 9 more points that
    # shatter-fn once asked for would need C(17, 9) = 24,310 spans
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


#: sha256 of the canonical report without timings.  Any change to a
#: witness, mask or count changes the digest, so update one only for an
#: intended change of output.
GOLDEN_DIGESTS = {
    ("analyze", "--instance", "moment_curve:3"):
        "4dd166eb9fef9769f5d121c7e03bdc78c1f20bb436b024e7695c6f0e01406f0f",
    ("analyze", "--instance", "moment_curve:3,p=5"):
        "a16b3fa731db8e45a6c5b607142966c3ebe1fd49c7b77c4e0900a20b2bf4c79b",
    ("analyze", "--instance", "two_lines"):
        "ebcc3c41319219d517268d21b0e611f0c94812aab01133ff57c41f14683267de",
    # witnesses with rational denominators, and with F_13 entries
    ("analyze", "--instance", "conics"):
        "a106422e4c14d163ad203585a02162855db4b9b9257e257bc541fceda66a1a27",
    ("analyze", "--instance", "moment_curve:4,p=13"):
        "202a7a648d16b80e678e1a1e2edfa46a70578636a2a4ac0b6a578e086e755b52",
    ("shatter-fn", "--instance", "moment_curve:4", "--n-max", "6"):
        "f5a5d8275f8df97c5fdc3aa031592172a164a77fbd84464e83f1475ac150cedb",
    ("shatter-fn", "--instance", "high_vcden:3", "--n-max", "7"):
        "4e4998be4cc988f53dd6490504cf124710f093b8a66c07b3ad773f00bbc2184d",
    # pi(n) < C(n, <= 2) for n >= 5, so those depths never stop at their cap
    ("shatter-fn", "--instance", "high_vcden:3", "--n-max", "8"):
        "294d1e125273125ed8678c4a4cb9229bce479b324c201085e5996c9595cde75d",
    ("shatter-fn", "--instance", "high_vcden:4", "--n-max", "5"):
        "70643e26279430c75bdc09e255d1e30661a5e664c3a39ce7c9324d458a560967",
    # every check at the default seed, exact details included
    ("verify",):
        "eedd5c644aaa6edd9b0a400c5cc54e4823cee7ae4a3e339f70dd8d428b615f1d",
}


@pytest.mark.parametrize("argv", list(GOLDEN_DIGESTS), ids=" ".join)
def test_report_matches_golden_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    del report["timings"]
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(canonical.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


def _moment_curve_spec(tmp_path, d):
    """The 20-point moment curve spec of dimension d, on points -10..9."""
    path = tmp_path / f"moment_curve_{d}.json"
    spec = {"field": "rational", "d": d, "family": {"builtin": "moment_curve"},
            "sample": {"points": list(range(-10, 10))}}
    path.write_text(json.dumps(spec))
    return path


def test_deep_analyze_profile_matches_golden_digest(tmp_path, capsys):
    # rho(0..12) of the 20-point d=3 family, a search that was exhaustive
    # until each side of a split got its own ldim bound
    code, out, _ = run(capsys, "analyze", "--instance", str(_moment_curve_spec(tmp_path, 3)),
                       "--n-max", "12")
    assert code == 0
    report = json.loads(out)
    del report["timings"], report["config"]["instance"]
    canonical = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "f5ff529be2dc0ee8532777ebdca0883f9cd421a9339c4eee36fd849141a70fe6"
    )


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


#: sha256 of the designed-grid files that `export --instance high_vcden:3`
#: writes: the witness tree and the rho column read off the grid family.
GOLDEN_EXPORT_DIGESTS = {
    "tree.json": "22a8e41b40aff7aab913843a2add199ca4cde1521134992f5181df7a6b22480a",
    "shatter.csv": "270470db32abacba52aa8e6d127d0bf0576b6176f7d56c22ffeda5065db194fa",
}


def test_designed_grid_export_matches_golden_digests(tmp_path, capsys):
    code, _, _ = run(capsys, "export", "--instance", "high_vcden:3", "--out", str(tmp_path))
    assert code == 0
    for name, digest in GOLDEN_EXPORT_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
