"""Mutation tests aimed at the checklist itself: each mutant below is a
one-edit fault that changes the program's output, and `verify`'s checks
must catch it at the default seed and at seeds 7 and 123 (DeMillo,
Lipton and Sayward 1978)."""

import __future__
import inspect
import sys
import textwrap

import pytest

from zerotrace import _kernels, constructions, instances, maximality, zerosets
from zerotrace.claims import run_checks


def _install(monkeypatch, module, name, old, new):
    """Swap module.name, in every zerotrace module that holds it, for a
    copy compiled from its source with the one text old replaced by new.
    The copy reads the same module globals as the original."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name} no longer contains {old!r}"
    code = compile(
        source.replace(old, new),
        inspect.getsourcefile(original),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace: dict = {}
    exec(code, original.__globals__, namespace)
    for held in list(sys.modules.values()):
        if getattr(held, "__name__", "").startswith("zerotrace") and (
            getattr(held, name, None) is original
        ):
            monkeypatch.setattr(held, name, namespace[name])


MUTANTS = {
    # the child kernel loses its last column instead of taking K.N; the
    # quotient rows, and so every mask, stay right
    "flat_child_kernel_truncated": (
        zerosets, "enumerate_family_flats",
        "_times(p, kernel, step)", "[row[:-1] for row in kernel]",
    ),
    "rho_ground_shortcut_one_depth_early": (
        _kernels, "_rho_search", "d >= n_points)", "d >= n_points - 1)",
    ),
    "blocks_without_member_lookup": (
        _kernels, "_blocks", "if masks[low.bit_length() - 1] ^ swap not in family:", "if False:",
    ),
    "independence_sequence_accepts_all": (
        constructions, "independence_sequence",
        "if _rows_zero_mask(field.p, row, normals):",
        "if False:",
    ),
    "vcdim_read_at_one_short": (
        _kernels, "_shattered_depth", "== 2 << depth", "== (2 << depth) - 1",
    ),
    # b_js keeps its first entry but loses the sign of the others
    "grid_witness_sign_flipped": (
        constructions, "grid_witness",
        "[-(total // g) for g in values]", "[total // g for g in values]",
    ),
    # the lines led by the last coordinate, e_(d-1) among them, go untried
    "bruteforce_lead_loop_one_short": (
        zerosets, "enumerate_family_bruteforce", "for lead in range(d):", "for lead in range(d - 1):",
    ),
    # each reduced member is the whole member, dependent vectors included
    "reduction_keeps_every_member_vector": (
        maximality, "minimal_spanning_reduction",
        "if span.add(vectors[i])]", "if span.add(vectors[i]) or True]",
    ),
    # each polynomial instance's dependence scan stops one point short
    # of the grid that fixes its rank
    "horizon_one_short": (
        instances, "polynomial_instance",
        "horizon=_horizon(field, dims, degree)", "horizon=_horizon(field, dims, degree) - 1",
    ),
}

SEEDS = (20240601, 7, 123)


def _failed(results):
    return [r.name for r in results if not r.passed]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_checklist_fails_under_each_mutant(monkeypatch, mutant):
    _install(monkeypatch, *MUTANTS[mutant])
    for seed in SEEDS:
        assert _failed(run_checks(seed=seed)), seed


def test_truncated_child_kernel_fails_a_rational_check(monkeypatch):
    """A walk whose witnesses go wrong while its masks stay right fails
    over Q too, not only in the F_3/F_5 enumerator comparison."""
    _install(monkeypatch, *MUTANTS["flat_child_kernel_truncated"])
    failed = _failed(run_checks())
    assert set(failed) - {"enumerator_equivalence"}


def test_vcdim_mutant_fails_the_oracle_check_at_each_seed(monkeypatch):
    """The random-family check reads the oracle vcdim off its subset scan;
    that reading alone catches a vcdim read one short."""
    _install(monkeypatch, *MUTANTS["vcdim_read_at_one_short"])
    for seed in SEEDS:
        assert _failed(run_checks(["oracle_equivalences_random"], seed=seed)), seed


def test_short_horizon_fails_both_independence_checks_at_each_seed(monkeypatch):
    """One point short of its grid, const_linear_f3 reads as dependent
    and the annihilator of (x, 2x) misses the point it did not read."""
    _install(monkeypatch, *MUTANTS["horizon_one_short"])
    checks = ["independence_three_way_positive", "independence_three_way_negative"]
    for seed in SEEDS:
        assert _failed(run_checks(checks, seed=seed)) == checks, seed
