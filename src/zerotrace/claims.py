"""The fixed checklist of structural claims, each mechanically verified.

Every check pairs a constructive route with an independent oracle and
returns exact values, never summaries.  A check passes only if every
asserted equality or inequality holds on the computed data; the
registry is deterministic given (budget, seed, depth_cap).

The checklist covers: the three-way independence equivalence with its
designed negative controls, the d-1 upper bounds for both dimensions,
dual-basis and shattering constructions, the 2^d - 1 trace count on d
points, block structure for line-covered images, the C(n,<d) maximal
profiles on samples, the plane-union grid (membership pattern, trace
counts, the big tree), span injectivity with minimal reductions, the
strict counting deficit under subspace covers, the
maximal-vs-covered dichotomy on built-ins, JSON round trips, and
randomized oracle equivalences.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Optional

from ._kernels import binom_le
from .constructions import (
    DualBasis,
    dual_basis,
    grid_max_tree,
    grid_membership,
    grid_point,
    grid_witness,
    independence_sequence,
    max_vc_trace,
    shattering_witness,
)
from .errors import BudgetExhaustedError, InvalidInputError, ResourceLimitError
from .exactalg import (
    QQ,
    PrimeField,
    Span,
    Vector,
    basis_vector,
    dot,
    entry_strings,
    rank,
    zero_mask,
)
from .instances import (
    conics,
    ellipse_carrier,
    high_vcden,
    moment_curve,
    polynomial_instance,
    two_lines,
)
from .littlestone import (
    MAX_DEPTH,
    count_well_labeled,
    ldim,
    ldim_witness,
    leaf_well_labeled,
    level_balanced_tree,
    littlestone_profile,
    rho,
    rho_via_trees,
    tree_from_json,
    tree_to_json,
    vc_profile,
)
from .maximality import (
    CoverCertificate,
    minimal_spanning_reduction,
    non_maximality_certificate,
    not_maximal_bound_check,
)
from .setsystem import (
    NEG_INF,
    GroundSet,
    SetFamily,
    as_mask,
    family_from_json,
    family_to_json,
    mask_to_indices,
    pi,
    pi_via_subsets,
    shatters,
    vcdim,
)
from .zerosets import (
    DEFAULT_BUDGET,
    Sample,
    ZeroSetFamily,
    density_zero_partition,
    enumerate_family_bruteforce,
    enumerate_family_flats,
    linearly_independent,
)

DEFAULT_SEED = 20240601
DEFAULT_RANDOM_FAMILIES = 200


@dataclass(frozen=True)
class CheckResult:
    name: str
    assertion: str
    passed: bool
    details: dict
    error: Optional[str] = None
    wall_s: float = 0.0
    limit: bool = False  # the check stopped at a ResourceLimitError


@dataclass
class CheckContext:
    budget: int = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED
    depth_cap: int = MAX_DEPTH
    _cache: dict = dc_field(default_factory=dict)

    def memo(self, key, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]


def _independent_builtins_small():
    """Independent built-ins with d <= 5, constructed fresh."""
    out = [moment_curve(d) for d in (2, 3, 4, 5)]
    out.append(
        polynomial_instance(PrimeField(3), 2, ["1", "x"], ["x"], name="const_linear_f3")
    )
    out.append(ellipse_carrier())
    return out


def _independent_builtins_all():
    return _independent_builtins_small() + [conics()]


def _dual_basis(ctx: CheckContext, inst) -> DualBasis:
    return ctx.memo(("dual", inst.name), lambda: dual_basis(inst, budget=ctx.budget))


def _proven_verdict(inst, budget: int):
    """The scan verdict, if it is a proof: d independent images, or an
    annihilator of the whole (finite) stream or of its horizon.  A scan
    the budget stopped first raises BudgetExhaustedError, a
    ResourceLimitError, so the check's result is a resource limit, not a
    refuted claim."""
    verdict = linearly_independent(inst, budget=budget)
    if verdict.kind != "independent" and not verdict.stream_exhausted:
        raise BudgetExhaustedError(
            f"{inst.name}: image rank {verdict.rank} < d={inst.d} after the "
            f"budget of {budget} stream points"
        )
    return verdict


def _checked(zfam: ZeroSetFamily) -> ZeroSetFamily:
    """zfam, once every witness re-evaluates to its own mask on the
    sample images."""
    sample = zfam.sample
    for z in zfam.sets:
        recomputed = zero_mask(z.witness, sample.images)
        assert recomputed == z.mask, (
            f"{sample.instance.name}: witness of {bin(z.mask)} vanishes on {bin(recomputed)}"
        )
    return zfam


def _enumerated(ctx: CheckContext, sample: Sample) -> ZeroSetFamily:
    key = ("enum", sample.instance.name, sample.points)
    return ctx.memo(key, lambda: _checked(enumerate_family_flats(sample)))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_independence_three_way_positive(ctx: CheckContext) -> dict:
    """Scan verdict, growing image rank, and dual-basis construction agree."""
    details = {}
    for inst in _independent_builtins_all():
        verdict = _proven_verdict(inst, ctx.budget)
        assert verdict.kind == "independent", f"{inst.name}: verdict {verdict.kind}"
        span = Span()
        for p in islice(inst.stream(), ctx.budget):
            span.add(inst.image(p))
            if len(span) == inst.d:
                break
        top = len(span)
        assert top == inst.d, f"{inst.name}: streamed image rank {top} < {inst.d}"
        db = _dual_basis(ctx, inst)
        details[inst.name] = {
            "verdict": verdict.kind,
            "image_rank": top,
            "dual_points": [str(p) for p in db.sample.points],
        }
    return details


def check_independence_three_way_negative(ctx: CheckContext) -> dict:
    """f = (x, 2x): all three independence tests fail, consistently."""
    inst = polynomial_instance(QQ, 2, ["x", "2*x"], ["x"], name="scaled_pair")
    verdict = _proven_verdict(inst, ctx.budget)
    assert verdict.kind == "dependent", f"verdict {verdict.kind}"
    w = verdict.witness_coeffs
    assert w is not None
    scanned = list(islice(inst.stream(), 50))
    images = [inst.image(p) for p in scanned]
    for p, img in zip(scanned, images):
        assert dot(w, img) == 0, f"witness misses point {p}"
    assert rank(images) == 1, "image rank should stall at 1"
    try:
        dual_basis(inst, budget=200)
        raise AssertionError("dual basis should not exist for (x, 2x)")
    except BudgetExhaustedError as e:
        stalled_at = e.partial["step"]
    assert stalled_at == 1, f"construction stalled at step {stalled_at}, expected 1"
    return {
        "verdict": verdict.kind,
        "witness": entry_strings(w),
        "image_rank": 1,
        "construction_stalled_at_step": stalled_at,
    }


def check_dependent_pair_f3(ctx: CheckContext) -> dict:
    """{x, x^3} over F_3 is dependent, proven by exhausting the domain."""
    inst = polynomial_instance(PrimeField(3), 2, ["x", "x^3"], ["x"], name="frobenius_pair_f3")
    verdict = _proven_verdict(inst, ctx.budget)
    assert verdict.kind == "dependent", f"verdict {verdict.kind}"
    w = verdict.witness_coeffs
    for p in inst.stream():
        assert dot(w, inst.image(p)) == 0
    return {"verdict": verdict.kind, "witness": entry_strings(w)}


def check_littlestone_upper_bound(ctx: CheckContext) -> dict:
    """ldim of every enumerated built-in family stays below d."""
    details = {}
    for inst in _independent_builtins_all():
        sample = _dual_basis(ctx, inst).sample
        fam = _enumerated(ctx, sample).to_set_family()
        value = ldim(fam)
        assert value <= inst.d - 1, f"{inst.name}: ldim {value} >= d"
        details[inst.name] = {"ldim": value, "d": inst.d}
    return details


def check_dual_basis_kronecker(ctx: CheckContext) -> dict:
    """g_j(c_i) = 1 if i == j else 0, evaluated exactly."""
    details = {}
    for inst in _independent_builtins_all():
        db = _dual_basis(ctx, inst)
        matrix = []
        for i, c in enumerate(db.sample.points):
            img = inst.image(c)
            values = [dot(row, img) for row in db.rows]
            for j, value in enumerate(values):
                assert value == int(i == j)
            matrix.append([str(value) for value in values])
        details[inst.name] = {"evaluation_matrix": matrix}
    return details


def check_shattering(ctx: CheckContext) -> dict:
    """The first d-1 dual points are shattered by the zero sets."""
    details = {}
    for inst in _independent_builtins_all():
        db = _dual_basis(ctx, inst)
        sample = db.sample
        d = inst.d
        images = sample.images[: d - 1]
        for trace_bits in range(1 << (d - 1)):
            trace = mask_to_indices(trace_bits)
            got = zero_mask(shattering_witness(db, trace), images)
            assert got == trace_bits, f"{inst.name}: subset {sorted(trace)} realized {bin(got)}"
        fam = _enumerated(ctx, sample).to_set_family()
        front = (1 << (d - 1)) - 1
        assert shatters(fam, front), f"{inst.name}: enumerated family misses a subset"
        assert vcdim(fam) == d - 1
        details[inst.name] = {"shattered_points": d - 1, "vcdim": d - 1}
    return details


def check_dimensions_match(ctx: CheckContext) -> dict:
    """vcdim = ldim = d-1 on the construction-derived sample."""
    details = {}
    for inst in _independent_builtins_all():
        sample = _dual_basis(ctx, inst).sample
        fam = _enumerated(ctx, sample).to_set_family()
        vc, ld = vcdim(fam), ldim(fam)
        assert vc == inst.d - 1, f"{inst.name}: vcdim {vc}"
        assert ld == inst.d - 1, f"{inst.name}: ldim {ld}"
        tree = ldim_witness(fam)
        assert count_well_labeled(tree, fam) == 1 << tree.depth
        details[inst.name] = {"vcdim": vc, "ldim": ld, "witness_depth": tree.depth}
    return details


def check_trace_count_on_d_points(ctx: CheckContext) -> dict:
    """Exactly 2^d - 1 traces on the d dual points (d <= 5)."""
    details = {}
    for inst in _independent_builtins_small():
        sample = _dual_basis(ctx, inst).sample
        fam = _enumerated(ctx, sample).to_set_family()
        d = inst.d
        count = len(fam)
        assert count == (1 << d) - 1, f"{inst.name}: {count} traces"
        assert pi(fam, d) == (1 << d) - 1
        full = (1 << d) - 1
        assert full not in fam.masks, f"{inst.name}: the full sample appeared as a trace"
        details[inst.name] = {"d": d, "traces": count}
    return details


def check_line_cover_blocks(ctx: CheckContext) -> dict:
    """Image in k lines: at most 2^k traces, every trace a block union."""
    details = {}
    tl = two_lines()
    sample = Sample.take(tl, [1, 2, 3, 4])
    lines = [basis_vector(QQ, 2, 0), basis_vector(QQ, 2, 1)]
    part = density_zero_partition(sample, lines)
    _checked(part.family)
    assert len(part.family.sets) <= part.bound == 4
    details["two_lines"] = {
        "blocks": [bin(m) for m in part.block_masks],
        "traces": [bin(z.mask) for z in part.family.sets],
        "bound": part.bound,
    }

    f3 = PrimeField(3)
    inst = polynomial_instance(f3, 2, ["x^2", "x"], ["x"], name="square_linear_f3")
    sample3 = Sample.take(inst, [0, 1, 2])
    img_lines = [inst.image(1), inst.image(2)]
    part3 = density_zero_partition(sample3, img_lines)
    _checked(part3.family)
    assert len(part3.family.sets) <= part3.bound == 4
    details["square_linear_f3"] = {
        "blocks": [bin(m) for m in part3.block_masks],
        "zero_block": bin(part3.zero_block_mask),
        "traces": [bin(z.mask) for z in part3.family.sets],
    }
    return details


def check_maximal_profile_counts(ctx: CheckContext) -> dict:
    """Moment curve d=3: trace counts, pi and rho all hit C(n,<3) for n=3..8."""
    inst = moment_curve(3)
    seq = independence_sequence(inst, 10, budget=ctx.budget)
    details = {}
    for n in range(3, 9):
        expected = binom_le(n, 2)
        constructed = max_vc_trace(seq, n)
        assert len(constructed.sets) == expected
        fam = _checked(enumerate_family_flats(constructed.sample)).to_set_family()
        assert len(fam) == expected, f"n={n}: {len(fam)} traces"
        assert pi(fam, n) == expected
        assert rho(fam, n, depth_cap=ctx.depth_cap) == expected
        if n <= 3:
            assert rho_via_trees(fam, n) == expected
        tree = level_balanced_tree(fam)
        assert count_well_labeled(tree, fam) == expected
        details[f"n={n}"] = {"expected": expected, "traces": len(fam)}
    return details


def check_grid_membership_pattern(ctx: CheckContext) -> dict:
    """Grid point (i,j) lands in the zero set of js exactly when j == js[i]."""
    d = 3
    checked = 0
    for i in range(d - 1):
        for j in range(4):
            for j0 in range(4):
                for j1 in range(4):
                    member = grid_membership(QQ, d, i, j, (j0, j1))
                    expected = j == (j0, j1)[i]
                    assert member == expected, f"(i={i}, j={j}) vs ({j0},{j1})"
                    checked += 1
    c00 = grid_point(QQ, d, 0, 0)
    b01 = grid_witness(QQ, d, (0, 1))
    assert entry_strings(c00) == ["1", "1", "0"]
    assert entry_strings(b01) == ["2", "-2", "-1"]
    assert dot(b01, c00) == 0
    return {"memberships_checked": checked, "c_0_0": "(1,1,0)", "b_0_1": "(2,-2,-1)"}


def check_grid_trace_count(ctx: CheckContext) -> dict:
    """At least n^(d-1) traces on the (d-1)*n grid points (d=3, n=4)."""
    inst = high_vcden(3)
    points = [(i, 1, j + 1) for i in range(2) for j in range(4)]
    sample = Sample.take(inst, points)
    fam = _checked(enumerate_family_flats(sample))
    count = len(fam.sets)
    assert count >= 16, f"only {count} traces on the 8 grid points"
    masks = {z.mask for z in fam.sets}
    for j0 in range(4):
        for j1 in range(4):
            mask = zero_mask(grid_witness(QQ, 3, (j0, j1)), sample.images)
            assert mask in masks, f"designed witness ({j0},{j1}) trace missing"
    return {"points": 8, "traces": count, "lower_bound": 16}


def check_grid_tree_counts(ctx: CheckContext) -> dict:
    """The depth-n grid tree has exactly C(n,<3) well-labeled leaves."""
    inst = high_vcden(3)
    details = {}
    for n in (3, 4, 5):
        res = grid_max_tree(inst, n)
        wl = count_well_labeled(res.tree, res.family)
        assert wl == binom_le(n, 2)
        for leaf in res.tree.leaf_labels:
            if leaf.count("1") >= 3:
                assert not leaf_well_labeled(res.tree, res.family, leaf), (
                    f"leaf {leaf} with large support is well-labeled"
                )
        details[f"n={n}"] = {"well_labeled": wl}
    res6 = grid_max_tree(inst, 6)
    tau = "001001"
    path = [res6.sample.points[res6.tree.node_labels[tau[:k]]] for k in range(6)]
    assert path == [(0, 1, 1), (0, 1, 2), (0, 1, 3), (1, 1, 4), (1, 1, 5), (1, 1, 6)]
    leaf_witness = res6.witnesses[res6.tree.leaf_labels[tau]]
    assert leaf_witness.entries == grid_witness(QQ, 3, (2, 5)).entries
    details["figure_path"] = {"tau": tau, "nodes": [str(p) for p in path]}
    return details


def _non_maximality(ctx: CheckContext, inst):
    key = ("nonmax", inst.name)
    return ctx.memo(key, lambda: non_maximality_certificate(inst, budget=ctx.budget))


def check_non_maximality_certificates(ctx: CheckContext) -> dict:
    """Covered instances: strict trace deficit at n = k(d-1)+1."""
    details = {}
    for inst in (high_vcden(3), two_lines()):
        report = _non_maximality(ctx, inst)
        assert report.verdict == "verified", f"{inst.name}: {report.verdict}"
        _checked(report.family)
        assert report.trace_count < report.bound
        assert report.missing_subset is not None
        assert as_mask(report.missing_subset, report.n) not in report.family.masks()
        details[inst.name] = {
            "n": report.n,
            "trace_count": report.trace_count,
            "bound": report.bound,
            "missing_subset": list(report.missing_subset),
        }
    return details


def check_cover_refutation(ctx: CheckContext) -> dict:
    """A bogus cover for a maximal instance is refuted by an escaping image."""
    inst = conics()
    fake = CoverCertificate(
        field=QQ,
        d=6,
        subspaces=(
            tuple(basis_vector(QQ, 6, i) for i in range(5)),
            tuple(basis_vector(QQ, 6, i) for i in range(1, 6)),
        ),
    )
    report = non_maximality_certificate(inst, fake, budget=ctx.budget)
    assert report.verdict == "refuted", f"got {report.verdict}"
    assert report.escape_point is not None
    escaped = inst.image(report.escape_point)
    assert fake.assign(escaped) is None
    return {
        "verdict": report.verdict,
        "escape_point": str(report.escape_point),
        "escape_image": entry_strings(escaped),
    }


def check_span_injectivity_suite(ctx: CheckContext) -> dict:
    """Image families are span injective; reduction keeps cardinality."""
    details = {}
    targets = []
    for inst in _independent_builtins_all():
        sample = _dual_basis(ctx, inst).sample
        targets.append((inst, _enumerated(ctx, sample)))
    hv = high_vcden(3)
    hv_sample = Sample.take(hv, [(i, 1, j + 1) for i in range(2) for j in range(3)])
    targets.append((hv, _checked(enumerate_family_flats(hv_sample))))
    for inst, zfam in targets:
        images = zfam.sample.images
        fam = zfam.to_set_family()
        # a SetFamily refuses a repeated mask, so reduced has fam's cardinality
        reduced = minimal_spanning_reduction(images, fam, inst.d)
        for m in reduced.masks:
            assert m.bit_count() < inst.d
            assert rank([images[i] for i in mask_to_indices(m)]) == m.bit_count()
        details[inst.name] = {
            "members": len(fam),
            "max_reduced_size": max((m.bit_count() for m in reduced.masks), default=0),
        }
    return details


def check_strict_bound_under_cover(ctx: CheckContext) -> dict:
    """|family| < C(|S|,<d) when S is covered and longer than k(d-1)."""
    details = {}
    # Synthetic d=2, k=1: two collinear nonzero vectors.
    v = Vector(QQ, (1, 0))
    w = Vector(QQ, (2, 0))
    cover = CoverCertificate(field=QQ, d=2, subspaces=((v,),))
    # Over two collinear vectors only two spans exist (trivial and the
    # line), so span-injective families top out at 2 < C(2,<2) = 3.
    fam = SetFamily(GroundSet(2), (0, 0b11))
    report = not_maximal_bound_check((v, w), cover, fam)
    assert report.count == 2 < report.bound == 3
    details["collinear_pair"] = {"count": report.count, "bound": report.bound}

    # Guard: |S| == k(d-1) is rejected, not bounded.
    try:
        not_maximal_bound_check((v,), cover, SetFamily(GroundSet(1), (1,)))
        raise AssertionError("undersized S must be rejected")
    except InvalidInputError as e:
        assert "does not exceed k(d-1)" in str(e), f"refused for another reason: {e}"

    # Plane-union instance, 7 grid points, a 3-plane cover: 7 > 3*(3-1).
    hv = high_vcden(3)
    pts = [(i, 1, j + 1) for i in range(2) for j in range(3)] + [(0, 1, 4)]
    sample = Sample.take(hv, pts)
    zfam = _checked(enumerate_family_flats(sample))
    e = [basis_vector(QQ, 3, i) for i in range(3)]
    cover3 = CoverCertificate(
        field=QQ, d=3, subspaces=((e[0], e[1]), (e[0], e[2]), (e[1], e[2]))
    )
    report_hv = not_maximal_bound_check(sample.images, cover3, zfam.to_set_family())
    assert report_hv.count < report_hv.bound == binom_le(7, 2)
    details["plane_union_3cover"] = {
        "S": len(sample.points),
        "count": report_hv.count,
        "bound": report_hv.bound,
        "crowded_subspace": report_hv.crowded_subspace,
    }
    return details


def check_dichotomy_on_builtins(ctx: CheckContext) -> dict:
    """Q built-ins are either maximal at tested n or strictly covered, never both.

    Finite-field built-ins are excluded: their domains exhaust below the
    certificate size n = k(d-1)+1, so neither branch is testable.
    """
    details = {}
    for inst in _independent_builtins_all():
        if isinstance(inst.field, PrimeField):
            continue
        n_test = 4
        seq = independence_sequence(inst, n_test + inst.d - 1, budget=ctx.budget)
        fam = max_vc_trace(seq, n_test)
        assert len(fam.sets) == binom_le(n_test, inst.d - 1)
        assert inst.cover is None
        details[inst.name] = {"branch": "maximal_at_n", "n": n_test, "traces": len(fam.sets)}
    for inst in (high_vcden(3), two_lines()):
        report = _non_maximality(ctx, inst)
        assert report.verdict == "verified"
        stalled = False
        try:
            independence_sequence(inst, report.n, budget=2_000)
        except BudgetExhaustedError as e:
            stalled = True
            stall_len = len(e.partial["points"])
        assert stalled, f"{inst.name}: sequence unexpectedly reached n={report.n}"
        assert stall_len < report.n
        details[inst.name] = {
            "branch": "covered",
            "n": report.n,
            "sequence_stalled_at": stall_len,
            "deficit": report.bound - report.trace_count,
        }
    return details


def check_json_round_trips(ctx: CheckContext) -> dict:
    """Families and trees survive export/import byte-identically."""
    import json

    inst = moment_curve(3)
    sample = _dual_basis(ctx, inst).sample
    fam = _enumerated(ctx, sample).to_set_family()
    blob = family_to_json(fam)
    fam2 = family_from_json(blob)
    assert fam2.masks == fam.masks
    assert family_to_json(fam2) == blob
    tree = ldim_witness(fam)
    tblob = tree_to_json(tree)
    tree2 = tree_from_json(tblob, fam)
    assert json.dumps(tree_to_json(tree2), sort_keys=True) == json.dumps(
        tblob, sort_keys=True
    )
    # tree_from_json validated tree2, so its leaves are counted directly
    assert sum(leaf_well_labeled(tree2, fam, leaf) for leaf in tree2.leaf_labels) == (
        count_well_labeled(tree, fam)
    )
    return {"family_masks": len(fam.masks), "tree_depth": tree.depth}


def random_family(rng: random.Random) -> SetFamily:
    n = rng.randint(0, 6)
    universe = 1 << n
    k = rng.randint(0, min(12, universe))
    masks = rng.sample(range(universe), k)
    return SetFamily.create(GroundSet(n), tuple(masks))


def check_oracle_equivalences_random(ctx: CheckContext) -> dict:
    """Seeded random families: recursions match oracles (the whole pi
    profile against the subset scan), bounds hold."""
    rng = random.Random(ctx.seed)
    checked = 0
    for _ in range(DEFAULT_RANDOM_FAMILIES):
        fam = random_family(rng)
        top = fam.ground.size
        scan = [pi_via_subsets(fam, n) for n in range(top + 1)]
        vc = vcdim(fam)
        # an n-set is shattered iff it has 2^n traces; none is in the empty family
        assert vc == max((n for n, p in enumerate(scan) if p == 1 << n), default=NEG_INF)
        ld = ldim(fam)
        assert vc <= ld
        pis = vc_profile(fam, top)
        rhos = littlestone_profile(fam, top, depth_cap=ctx.depth_cap)
        for n, (p, r) in enumerate(zip(pis, rhos)):
            assert p == scan[n], f"pi({n}) {p} vs subset scan"
            assert p <= r, f"pi {p} > rho {r}"
            assert p <= binom_le(n, vc) if fam.masks else p == 0
            assert r <= binom_le(n, ld) if fam.masks else r == 0
            if n <= 3:
                assert r == rho_via_trees(fam, n)
        checked += 1
    return {"families": checked, "seed": ctx.seed}


def check_enumerator_equivalence(ctx: CheckContext) -> dict:
    """Flat-walk and projective brute force agree over F_3 and F_5, and
    every witness of both re-evaluates to its own mask."""
    details = {}
    cases = []
    for p in (3, 5):
        field = PrimeField(p)
        cases.append(moment_curve(2, field))
        cases.append(moment_curve(3, field))
        cases.append(polynomial_instance(field, 2, ["1", "x"], ["x"], name=f"const_linear_f{p}"))
        cases.append(high_vcden(3, field))
    for inst in cases:
        points = list(islice(inst.stream(), 6))
        sample = Sample.take(inst, points)
        flats = enumerate_family_flats(sample)
        brute = enumerate_family_bruteforce(sample)
        masks_f = [z.mask for z in flats.sets]
        masks_b = [z.mask for z in brute.sets]
        assert masks_f == masks_b, f"{inst.name}: flats {masks_f} vs brute {masks_b}"
        _checked(flats)
        _checked(brute)
        details[inst.name] = {"points": len(points), "traces": len(masks_f)}
    return details


CHECKS: dict = {
    "independence_three_way_positive": (
        "scan verdict, streamed image rank, and dual-basis construction all report independent",
        check_independence_three_way_positive,
    ),
    "independence_three_way_negative": (
        "(x, 2x) fails the scan, the rank test, and the construction consistently",
        check_independence_three_way_negative,
    ),
    "dependent_pair_f3": (
        "{x, x^3} over F_3 is reported dependent with the domain exhausted",
        check_dependent_pair_f3,
    ),
    "littlestone_upper_bound": (
        "ldim(enumerated family) <= d-1 on every built-in sample",
        check_littlestone_upper_bound,
    ),
    "dual_basis_kronecker": (
        "dual rows evaluate to the identity matrix on the dual points",
        check_dual_basis_kronecker,
    ),
    "shattered_set": (
        "the first d-1 dual points are shattered, so vcdim >= d-1",
        check_shattering,
    ),
    "dimensions_match": (
        "vcdim = ldim = d-1 exactly on the construction-derived sample",
        check_dimensions_match,
    ),
    "trace_count_on_d_points": (
        "exactly 2^d - 1 traces on d independent points, full set never realized",
        check_trace_count_on_d_points,
    ),
    "line_cover_blocks": (
        "image in k lines: at most 2^k traces, each a union of blocks",
        check_line_cover_blocks,
    ),
    "maximal_profile_counts": (
        "moment curve d=3: constructed and enumerated counts hit C(n,<3), n=3..8",
        check_maximal_profile_counts,
    ),
    "grid_membership_pattern": (
        "grid membership (i,j) in Z(js) iff j == js[i], all i<2, j,j0,j1<4",
        check_grid_membership_pattern,
    ),
    "grid_trace_count": (
        "at least n^(d-1) = 16 traces on the 8 grid points",
        check_grid_trace_count,
    ),
    "grid_tree_counts": (
        "grid tree has exactly C(n,<3) well-labeled leaves, n=3,4,5; path check at n=6",
        check_grid_tree_counts,
    ),
    "non_maximality_certificates": (
        "covered instances enumerate strictly below C(n,<d) at n = k(d-1)+1",
        check_non_maximality_certificates,
    ),
    "cover_refutation": (
        "a bogus cover claim is refuted by an escaping sampled image",
        check_cover_refutation,
    ),
    "span_injectivity_suite": (
        "image families are span injective; reduction preserves cardinality",
        check_span_injectivity_suite,
    ),
    "strict_bound_under_cover": (
        "span-injective families over covered S stay strictly below C(|S|,<d)",
        check_strict_bound_under_cover,
    ),
    "dichotomy_on_builtins": (
        "each Q built-in is maximal at tested n xor strictly covered",
        check_dichotomy_on_builtins,
    ),
    "json_round_trips": (
        "families and trees export and re-import canonically",
        check_json_round_trips,
    ),
    "oracle_equivalences_random": (
        "recursive vcdim/pi match the subset scan, rho matches the exhaustive tree "
        "oracle; count bounds hold",
        check_oracle_equivalences_random,
    ),
    "enumerator_equivalence": (
        "flat-walk enumeration equals projective brute force over F_3 and F_5",
        check_enumerator_equivalence,
    ),
}


def run_checks(
    names=None,
    *,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
    depth_cap: int = MAX_DEPTH,
) -> list:
    """Run the checklist (all of it by default) and collect results.

    Each result carries its check's wall time in seconds (wall_s), and
    a failed one whether its check stopped at a ResourceLimitError
    (limit).  An unknown name raises KeyError before any check runs.
    The checks are assert statements, which python -O strips, so under
    -O none runs: that is invalid input, not a list of passes.
    """
    if not __debug__:
        raise InvalidInputError("the checks are assert statements; run python without -O")
    selected = list(CHECKS) if names is None else list(names)
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown check {name!r}")
    ctx = CheckContext(budget=budget, seed=seed, depth_cap=depth_cap)
    results = []
    for name in selected:
        assertion, fn = CHECKS[name]
        start = time.perf_counter()
        try:
            details = fn(ctx)
            passed, error, limit = True, None, False
        except Exception as e:  # noqa: BLE001 - a crashing check fails, the rest still run
            details, passed, error = {}, False, f"{type(e).__name__}: {e}"
            limit = isinstance(e, ResourceLimitError)
        wall_s = time.perf_counter() - start
        results.append(CheckResult(name, assertion, passed, details, error, wall_s, limit))
    return results
