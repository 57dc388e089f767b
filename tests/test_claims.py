"""The fixed checklist: registry integrity, failure capture, determinism."""

import json

import pytest

from zerotrace import claims, zerosets
from zerotrace.claims import CHECKS, CheckResult, run_checks
from zerotrace.errors import DimensionMismatchError, InvalidInputError, StreamExhaustedError
from zerotrace.setsystem import SetFamily


def test_full_registry_passes():
    results = run_checks()
    assert [r.name for r in results] == list(CHECKS)
    failed = [(r.name, r.error) for r in results if not r.passed]
    assert failed == []
    for r in results:
        assert r.error is None
        assert r.assertion == CHECKS[r.name][0]
        assert isinstance(r.details, dict) and r.details


def test_subset_selection_preserves_request_order():
    names = ["json_round_trips", "grid_membership_pattern"]
    results = run_checks(names)
    assert [r.name for r in results] == names
    assert all(r.passed for r in results)


def test_unknown_check_name_rejected(monkeypatch):
    ran = []
    monkeypatch.setitem(CHECKS, "designed_recorder", ("records its run", ran.append))
    with pytest.raises(KeyError):
        run_checks(["no_such_check"])
    with pytest.raises(KeyError):
        run_checks(["designed_recorder", "no_such_check"])
    assert ran == []  # every name is checked before any check runs


def test_failing_check_is_captured_not_raised():
    def boom(ctx):
        raise AssertionError("designed failure")

    def invalid(ctx):
        raise InvalidInputError("designed invalid input")

    def exhausted(ctx):
        raise StreamExhaustedError("designed end of stream")

    CHECKS["designed_failure"] = ("always fails", boom)
    CHECKS["designed_invalid"] = ("always invalid", invalid)
    CHECKS["designed_limit"] = ("always out of stream", exhausted)
    try:
        results = run_checks(["designed_failure", "designed_invalid", "designed_limit"])
    finally:
        del CHECKS["designed_failure"]
        del CHECKS["designed_invalid"]
        del CHECKS["designed_limit"]
    assert [r.passed for r in results] == [False, False, False]
    assert "AssertionError: designed failure" in results[0].error
    assert "InvalidInputError: designed invalid input" in results[1].error
    assert "StreamExhaustedError: designed end of stream" in results[2].error
    assert [r.limit for r in results] == [False, False, True]
    assert results[0].details == {}


def test_crashing_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    from zerotrace.cli import main

    def crash(ctx):
        raise ValueError("designed crash")

    assertion, _ = CHECKS["grid_membership_pattern"]
    monkeypatch.setitem(CHECKS, "grid_membership_pattern", (assertion, crash))
    code = main(["verify", "--checks", "json_round_trips,grid_membership_pattern,grid_trace_count"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(r["name"], r["passed"]) for r in report["results"]] == [
        ("json_round_trips", True),
        ("grid_membership_pattern", False),
        ("grid_trace_count", True),
    ]
    assert report["results"][1]["error"] == "ValueError: designed crash"
    assert (report["passed"], report["failed"]) == (2, 1)


def test_results_deterministic_across_fresh_contexts():
    names = ["grid_membership_pattern", "maximal_profile_counts", "line_cover_blocks"]
    first = run_checks(names)
    second = run_checks(names)
    assert [(r.name, r.passed, r.details) for r in first] == [
        (r.name, r.passed, r.details) for r in second
    ]


def test_check_result_is_frozen():
    r = CheckResult("x", "y", True, {})
    with pytest.raises(AttributeError):
        r.passed = False


def _lower_deepest_pi(monkeypatch):
    """vc_profile one short at its deepest entry: still <= rho and within
    the Sauer-Shelah cap, so only the subset oracle can tell."""
    profile = claims.vc_profile

    def lowered(fam, n_max):
        pis = profile(fam, n_max)
        return pis[:-1] + (pis[-1] - 1,) if pis[-1] else pis

    monkeypatch.setattr(claims, "vc_profile", lowered)


def _first_fp_tuple(monkeypatch):
    """An F_p witness search that returns its first tuple (1, 0, ...)
    whenever some tuple works: the masks stay right, the witnesses not."""
    search = zerosets._search_coefficients

    def first(p, r, rows):
        found = search(p, r, rows)
        return (1,) + (0,) * (r - 1) if p and found is not None else found

    monkeypatch.setattr(zerosets, "_search_coefficients", first)


@pytest.mark.parametrize(
    "name, mutate, message",
    [
        ("oracle_equivalences_random", _lower_deepest_pi, "vs subset scan"),
        ("enumerator_equivalence", _first_fp_tuple, "witness of"),
    ],
    ids=["pi_profile_lowered", "fp_witness_unchecked"],
)
def test_checks_catch_output_faults_the_masks_and_bounds_miss(monkeypatch, name, mutate, message):
    [clean] = run_checks([name])
    assert clean.passed, clean.error
    mutate(monkeypatch)
    [result] = run_checks([name])
    assert not result.passed
    assert result.error.startswith("AssertionError: ") and message in result.error


def test_undersized_cover_guard_accepts_only_its_own_refusal(monkeypatch):
    # a one-vector S refused for its family's shape is not the
    # |S| <= k(d-1) refusal the guard is there to see
    bound_check = claims.not_maximal_bound_check

    def refuse_shape(S, cover, fam):
        if len(S) == 1:
            raise DimensionMismatchError("family over 2 points, given 1 vectors")
        return bound_check(S, cover, fam)

    monkeypatch.setattr(claims, "not_maximal_bound_check", refuse_shape)
    [result] = run_checks(["strict_bound_under_cover"])
    assert not result.passed
    assert result.error.startswith("DimensionMismatchError:")


def test_span_injectivity_suite_fails_when_the_reduction_merges_members(monkeypatch):
    # the reduced family is a SetFamily, which refuses a repeated mask, so
    # a reduction that maps two members to one sub-mask fails the check
    reduce = claims.minimal_spanning_reduction

    def merging(vectors, fam, d):
        masks = list(reduce(vectors, fam, d).masks)
        masks[1] = masks[0]
        return SetFamily(fam.ground, tuple(masks))

    monkeypatch.setattr(claims, "minimal_spanning_reduction", merging)
    [result] = run_checks(["span_injectivity_suite"])
    assert not result.passed
    assert result.error.startswith("InvalidInputError: duplicate member set")
