import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import literal_report, oracle_trail
from flagsub import harness, polynomials, subdivisions
from flagsub.complexes import SimplicialComplex, cross_polytope, simplex
from flagsub.errors import FlagsubError, MalformedInstance
from flagsub.harness import (
    CHECKS,
    CONJECTURE,
    THEOREM,
    CheckResult,
    GeneratorSpec,
    Instance,
    has_theorem_failure,
    random_flag_sphere,
    random_simplex_subdivision,
    random_sphere_pair,
    run_conjecture_suite,
    summarize,
)
from flagsub.homology import classify
from flagsub.polynomials import gamma_vector
from flagsub.serialize import subdivision_to_doc
from flagsub.polynomials import ZERO, IntPolynomial
from flagsub.subdivisions import (
    DecompositionCheck,
    SubdivisionMap,
    _gamma_terms,
    edge_subdivision,
    join_subdivision,
    stellar_subdivision,
    trivial_subdivision,
)


def test_generator_spec_validation():
    with pytest.raises(MalformedInstance):
        GeneratorSpec(0, 1, 1)
    with pytest.raises(MalformedInstance):
        GeneratorSpec(2, 1, 1, moves=("warp",))


def test_zero_steps_is_cross_polytope():
    K, trail = random_flag_sphere(GeneratorSpec(2, 0, seed=0))
    assert K.f_vector() == (1, 4, 4)
    assert trail.total == trail.base == K


def test_cycle_growth_and_gamma():
    for k in (1, 3, 5):
        K, _ = random_flag_sphere(GeneratorSpec(2, k, seed=k))
        assert K.f_vector() == (1, 4 + k, 4 + k)
        assert gamma_vector(K).to_list() == [1, k]


def test_seven_vertex_flag_two_sphere():
    K, trail = random_flag_sphere(GeneratorSpec(3, 1, seed=2))
    assert K.f_vector()[1] == 7
    assert K.is_flag()
    assert gamma_vector(K).to_list() == [1, 1]
    assert classify(K).is_sphere


def test_generator_is_deterministic_to_the_byte():
    a = random_flag_sphere(GeneratorSpec(3, 4, seed=9))[1]
    b = random_flag_sphere(GeneratorSpec(3, 4, seed=9))[1]
    assert subdivision_to_doc(a) == subdivision_to_doc(b)
    c = random_flag_sphere(GeneratorSpec(3, 4, seed=10))[1]
    assert subdivision_to_doc(a) != subdivision_to_doc(c)


def test_join_move_raises_dimension():
    K, trail = random_flag_sphere(
        GeneratorSpec(2, 4, seed=1, moves=("join-with-S0",))
    )
    assert K.dim == 5
    assert K.is_flag()
    assert len(trail.base.labels) == 12


def test_mixed_moves_keep_flag_spheres():
    K, trail = random_flag_sphere(
        GeneratorSpec(2, 5, seed=4, moves=("edge-subdivide", "join-with-S0"))
    )
    assert K.is_flag()
    assert classify(K).is_sphere
    v = trail.validate(fast=True)
    assert v.is_homology_subdivision and v.is_vertex_induced


def test_size_guard_trips(monkeypatch):
    monkeypatch.setattr(harness, "MAX_FACES", 5)
    with pytest.raises(MalformedInstance):
        random_flag_sphere(GeneratorSpec(2, 3, seed=0))


def test_size_guard_refuses_join_before_building_it(monkeypatch):
    # Each join-with-S0 triples the face count; the guard must trip
    # before a complex beyond the cap is built, not after.  Every
    # complex the trail builds, its growing base and its total alike,
    # is filled in by `SimplicialComplex._fill`.
    sizes = []
    real_fill = SimplicialComplex._fill

    def spy(self, labels, index, facets, faces, ordered):
        sizes.append(len(ordered))
        real_fill(self, labels, index, facets, faces, ordered)

    monkeypatch.setattr(SimplicialComplex, "_fill", spy)
    monkeypatch.setattr(harness, "MAX_FACES", 5000)
    spec = GeneratorSpec(3, 75, 4, ("edge-subdivide", "join-with-S0"))
    with pytest.raises(MalformedInstance):
        random_flag_sphere(spec)
    assert sizes
    assert max(sizes) <= 5000


def test_default_size_guard_refuses_runaway_joins():
    # At 2**22 this trail ran for minutes and toward gigabytes; at the
    # default cap it is refused after some seconds.
    spec = GeneratorSpec(3, 75, 4, ("edge-subdivide", "join-with-S0"))
    with pytest.raises(MalformedInstance):
        random_flag_sphere(spec)


def _refuse_to_build(d):
    raise AssertionError(f"built a cross-polytope of dimension {d}")


def test_start_above_the_cap_is_refused_before_building_it(monkeypatch):
    # 3**12 faces exceed the cap of 2**18; 3**(10**9) is never computed.
    monkeypatch.setattr(harness, "cross_polytope", _refuse_to_build)
    for dim in (12, 10**9):
        with pytest.raises(MalformedInstance):
            random_flag_sphere(GeneratorSpec(dim, 0, seed=0))
        with pytest.raises(MalformedInstance):
            random_sphere_pair(dim, 0, 1, seed=0)


def test_negative_steps_are_refused():
    with pytest.raises(MalformedInstance):
        random_flag_sphere(GeneratorSpec(2, -4, seed=0))
    with pytest.raises(MalformedInstance):
        random_simplex_subdivision(("a", "b"), -1, 0)
    for pre, extra in ((-1, 1), (1, -1)):
        with pytest.raises(MalformedInstance):
            random_sphere_pair(2, pre, extra, seed=0)


def _doc_sha(s) -> str:
    text = json.dumps(subdivision_to_doc(s), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_generator_documents_are_pinned():
    # Digests of the documents as the generators wrote them before
    # complex construction and stellar moves were rewritten: a change of
    # face order, facet choice or RNG draws moves them.
    edge_only = random_flag_sphere(GeneratorSpec(3, 6, seed=11))[1]
    mixed = random_flag_sphere(
        GeneratorSpec(2, 6, seed=4, moves=("edge-subdivide", "join-with-S0"))
    )[1]
    assert len(mixed.base.labels) > 4  # at least one join was drawn
    ball = random_simplex_subdivision(("a", "b", "c", "d"), 8, 3)
    pair = random_sphere_pair(3, 3, 4, seed=5)
    assert _doc_sha(edge_only) == (
        "45b230aff60ee065c54a93b60686537cb5f4bb02b6ceb846aac24c22446907fd"
    )
    assert _doc_sha(mixed) == (
        "7e76a86ff39f916caf9e7217b0cc52e1defa2618652a6c6cc0c4e9401049741c"
    )
    assert _doc_sha(ball) == (
        "89d8a49d276bea453c802036d8d5b19155b12319c20b5f73128c21ec0b35ecdd"
    )
    assert _doc_sha(pair) == (
        "4a42b88a51e331d768992f6bbe8f139469b718e2bba32c9aa68beadd161649d6"
    )


EDGE_ONLY = ("edge-subdivide",)
JOIN_ONLY = ("join-with-S0",)
MIXED = ("edge-subdivide", "join-with-S0")


@st.composite
def _trail_cases(draw):
    """A generator call and its oracle.  Joins triple the face count, so
    trails that may join stay short enough for the oracle to build."""
    kind = draw(st.sampled_from(["sphere", "simplex", "pair"]))
    seed = draw(st.integers(0, 10**6))
    if kind == "simplex":
        verts = tuple(f"p{j}" for j in range(draw(st.integers(2, 6))))
        steps = draw(st.integers(0, 12))

        def simplex_oracle(sizes):
            return oracle_trail(simplex(verts), steps, random.Random(seed), None, sizes)

        return lambda: random_simplex_subdivision(verts, steps, seed), simplex_oracle
    if kind == "pair":
        dim = draw(st.integers(2, 4))
        pre, extra = draw(st.integers(0, 6)), draw(st.integers(0, 6))

        def pair_oracle(sizes):
            rng = random.Random(seed)
            start = cross_polytope(dim)
            sizes.append(start.num_faces())
            K = oracle_trail(start, pre, rng, None, sizes).total
            return oracle_trail(K, extra, rng, None, sizes)

        return lambda: random_sphere_pair(dim, pre, extra, seed), pair_oracle
    moves = draw(st.sampled_from([EDGE_ONLY, JOIN_ONLY, MIXED]))
    dim = draw(st.integers(1 if moves == JOIN_ONLY else 2, 4))
    steps = draw(st.integers(0, 12 if moves == EDGE_ONLY else 7 - dim))
    spec = GeneratorSpec(dim, steps, seed, moves)

    def sphere_oracle(sizes):
        start = cross_polytope(dim)
        sizes.append(start.num_faces())
        return oracle_trail(start, steps, random.Random(seed), moves, sizes)

    return lambda: random_flag_sphere(spec)[1], sphere_oracle


@settings(max_examples=200, deadline=None)
@given(_trail_cases())
def test_graph_trail_equals_the_constructor_oracle(case):
    generate, oracle = case
    counts, sizes = [], []

    def record(num_faces):
        counts.append(num_faces)
        real_guard(num_faces)

    real_guard = harness._size_guard
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_size_guard", record)
        got = generate()
    _assert_same_trail(got, oracle(sizes))
    # The guard reads, after each step, the face count the oracle built.
    assert counts == sizes


def _assert_same_trail(got, want):
    for K, L in ((got.total, want.total), (got.base, want.base)):
        assert K.labels == L.labels
        assert K.faces() == L.faces()
        assert K.facets == L.facets
    assert list(got.carrier.items()) == list(want.carrier.items())


def _cut_base_edges(s) -> list[set[str]]:
    """The edges of the base that a step subdivided: their names span no
    edge of the total."""
    return [
        set(s.base.names(e))
        for e in s.base.faces()
        if e.bit_count() == 2 and not s.total.has_face(s.total.mask(s.base.names(e)))
    ]


def test_pair_trail_that_cuts_an_edge_of_its_base():
    got = random_sphere_pair(3, 2, 4, seed=0)
    rng = random.Random(0)
    K = oracle_trail(cross_polytope(3), 2, rng).total
    _assert_same_trail(got, oracle_trail(K, 4, rng))
    assert _cut_base_edges(got)


def test_mixed_trail_that_cuts_a_start_edge_and_a_join_edge():
    got = random_flag_sphere(GeneratorSpec(2, 5, 7, MIXED))[1]
    _assert_same_trail(got, oracle_trail(cross_polytope(2), 5, random.Random(7), MIXED))
    # The base is the start joined with two-point spheres, so its edges
    # off the start's vertices are the ones the joins added.
    start = set(cross_polytope(2).labels)
    cut = _cut_base_edges(got)
    assert any(e <= start for e in cut)
    assert any(not e <= start for e in cut)


def test_sphere_pair_is_subdivision_of_smaller_sphere():
    pair = random_sphere_pair(3, 2, 3, seed=5)
    assert pair.base.is_flag() and pair.total.is_flag()
    assert pair.total.f_vector()[1] == pair.base.f_vector()[1] + 3
    v = pair.validate(fast=True)
    assert v.is_homology_subdivision and v.is_vertex_induced


def test_monotonicity_witness_lists_the_gamma_terms():
    # Subdividing a facet of the octahedral 3-sphere stellarly is not
    # flag, and γ loses at γ_2: the one term is the facet's own.
    K = cross_polytope(4)
    F = min(K.facets)
    inst = Instance(id="stellar-facet", pair=stellar_subdivision(K, F))
    result = run_conjecture_suite([inst], {"monotonicity"})[0].checks
    assert result["monotonicity"].status == "fail"
    assert result["monotonicity"].witness == {
        "gamma_base": [1, 0, 0],
        "gamma_total": [1, 1, -1],
        "terms": [{"face": list(K.names(F)), "xi": [0, 1, -1], "gamma_link": [1]}],
    }
    # On flag sphere pairs the terms sum to the change of γ.
    for seed in range(6):
        pair = random_sphere_pair(4 + seed % 2, seed % 3, 2, seed)
        change = (
            gamma_vector(pair.total).polynomial() - gamma_vector(pair.base).polynomial()
        )
        terms = [xi.polynomial() * g.polynomial() for _, xi, g in _gamma_terms(pair)]
        assert terms
        assert sum(terms, ZERO) == change


def test_check_registry_tiers():
    assert {name: (c.tier, c.reads) for name, c in CHECKS.items()} == {
        "gal": (CONJECTURE, ("gamma",)),
        "local-gamma": (CONJECTURE, ("xi",)),
        "monotonicity": (CONJECTURE, ("pair",)),
        "unimodality": (CONJECTURE, ("local_h",)),
        "relative-symmetry": (CONJECTURE, ("subdivision",)),
        "field-agreement": (CONJECTURE, ("complex",)),
        "local-h-symmetry": (THEOREM, ("subdivision", "local_h")),
        "local-h-nonneg": (THEOREM, ("quasi_geometric_local_h",)),
        "h-decomposition": (THEOREM, ("map",)),
        "locality": (THEOREM, ("outer", "inner")),
        "xi-product": (THEOREM, ("factors", "xi")),
        "xi-formulas": (THEOREM, ("subdivision", "xi")),
        "hierarchy": (THEOREM, ("map",)),
    }


def _full_instance() -> Instance:
    """An instance with every field set, on which no check is skipped."""
    s1 = random_simplex_subdivision(("a1", "a2"), 1, 1)
    s2 = random_simplex_subdivision(("c1", "c2", "c3"), 2, 2)
    outer = random_simplex_subdivision(("p1", "p2", "p3"), 1, 3)
    edge = next(f for f in outer.total.faces() if f.bit_count() == 2)
    return Instance(
        id="full",
        complex=random_flag_sphere(GeneratorSpec(3, 2, seed=4))[0],
        subdivision=join_subdivision(s1, s2),
        pair=random_sphere_pair(3, 1, 1, seed=5),
        outer=outer,
        inner=edge_subdivision(outer.total, edge),
        factors=(s1, s2),
    )


#: The fields each derived value is read from.  `map` is the
#: subdivision, else the pair, so it is None only when both are.
_SOURCES = {
    "map": ("subdivision", "pair"),
    "h": ("complex",),
    "gamma": ("complex",),
    "local_h": ("subdivision",),
    "quasi_geometric_local_h": ("subdivision",),
    "xi": ("subdivision",),
}


def _without(inst: Instance, name: str) -> Instance:
    fields = _SOURCES.get(name, (name,))
    return dataclasses.replace(inst, **dict.fromkeys(fields))


def test_instance_map_prefers_the_subdivision():
    inst = _full_instance()
    assert inst.map is inst.subdivision
    assert _without(inst, "subdivision").map is inst.pair
    assert _without(inst, "map").map is None


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_check_is_skipped_exactly_when_a_field_it_reads_is_missing(name):
    inst = _full_instance()
    (report,) = run_conjecture_suite([inst], {name})
    status = report.checks[name].status
    assert status != "skipped"
    # Every theorem holds on this instance.
    assert status == "pass" or CHECKS[name].tier == CONJECTURE
    for missing in CHECKS[name].reads:
        (report,) = run_conjecture_suite([_without(inst, missing)], {name})
        assert report.checks[name] == CheckResult("skipped"), missing


_BASE_NOT_SIMPLEX = {
    "field-agreement": "skipped",
    "gal": "skipped",
    "h-decomposition": "pass",
    "hierarchy": "pass",
    "local-gamma": "BaseNotSimplex",
    "local-h-nonneg": "BaseNotSimplex",
    "local-h-symmetry": "BaseNotSimplex",
    "locality": "skipped",
    "monotonicity": "skipped",
    "relative-symmetry": "BaseNotSimplex",
    "unimodality": "BaseNotSimplex",
    "xi-formulas": "BaseNotSimplex",
    "xi-product": "skipped",
}


def _outcome(inst: Instance, name: str) -> str:
    try:
        (report,) = run_conjecture_suite([inst], {name})
    except FlagsubError as exc:
        return type(exc).__name__
    return report.checks[name].status


@pytest.mark.parametrize(
    "key", ["ex-2.3a", "ex-2.3b", "ex-2.3c", "rem-4.5", "sphere-pair"]
)
def test_local_checks_on_a_base_that_is_not_a_simplex(key):
    # A map onto a sphere given as `subdivision`: the local checks raise
    # `BaseNotSimplex`, except that local-h-nonneg first skips a map
    # that is not quasi-geometric, and there are no local digests.
    from flagsub.constructions import ball_to_sphere, example_complexes

    if key == "sphere-pair":
        s = random_sphere_pair(4, 1, 1, 3)
    else:
        s = ball_to_sphere(example_complexes(key))
    want = dict(_BASE_NOT_SIMPLEX)
    if key in ("ex-2.3a", "rem-4.5"):
        want["local-h-nonneg"] = "skipped"
    got = {name: _outcome(Instance(id=key, subdivision=s), name) for name in CHECKS}
    assert got == want
    factors = (trivial_subdivision(simplex(["a"])),) * 2
    inst = Instance(id=key, subdivision=s, factors=factors)
    assert _outcome(inst, "xi-product") == "BaseNotSimplex"
    (report,) = run_conjecture_suite([Instance(id=key, subdivision=s)], set())
    assert report.digests == {}


def _suite_instance(seed: int) -> Instance:
    """The instance `flagsub suite --dim 4` builds at ``seed``."""
    steps = seed % 5
    return Instance(
        id=f"d4-s{seed}",
        complex=random_flag_sphere(GeneratorSpec(4, steps, seed))[0],
        subdivision=random_simplex_subdivision(("p1", "p2", "p3", "p4"), steps, seed),
        pair=random_sphere_pair(4, steps, 1 + seed % 3, seed),
    )


def test_derived_values_are_computed_once_per_instance(monkeypatch):
    calls = Counter()
    real_local_h = SubdivisionMap.local_h
    real_h = polynomials.h_polynomial

    def local_h(self):
        calls["local_h", id(self)] += 1
        return real_local_h(self)

    def h_polynomial(K):
        calls["h", id(K)] += 1
        return real_h(K)

    monkeypatch.setattr(SubdivisionMap, "local_h", local_h)
    for module in (polynomials, harness, subdivisions):
        monkeypatch.setattr(module, "h_polynomial", h_polynomial)
    for inst in (_full_instance(), _suite_instance(3), _suite_instance(4)):
        want = literal_report(inst, CHECKS)
        calls.clear()
        (report,) = run_conjecture_suite([inst], set(CHECKS))
        doc = report.to_dict()
        del doc["timings_ms"]
        assert doc == want
        assert calls["local_h", id(inst.subdivision)] == 1
        assert calls["h", id(inst.complex)] == 1
        assert all(n == 1 for (kind, _), n in calls.items() if kind == "local_h")


def test_unknown_check_rejected():
    with pytest.raises(MalformedInstance):
        run_conjecture_suite([], {"definitely-not-a-check"})


def test_conjecture_failures_are_reported_not_raised():
    from flagsub.constructions import example_complexes

    inst = Instance(id="counterexample", subdivision=example_complexes("ex-2.3b"))
    reports = run_conjecture_suite([inst], {"local-gamma", "unimodality"})
    checks = reports[0].checks
    assert checks["local-gamma"].status == "fail"
    assert checks["local-gamma"].witness == {"xi": [0, 1, -2]}
    assert checks["unimodality"].status == "fail"
    assert not has_theorem_failure(reports)


def test_skipped_when_instance_lacks_structure():
    inst = Instance(id="bare")
    reports = run_conjecture_suite([inst], {"gal", "locality"})
    assert all(r.status == "skipped" for r in reports[0].checks.values())


def test_xi_formulas_pass_on_trivial_subdivisions_of_simplices():
    # At d = 1, ξ has no degree-1 coordinate to equal the one interior
    # vertex.
    for n in range(1, 5):
        s = trivial_subdivision(simplex([f"a{i}" for i in range(n)]))
        reports = run_conjecture_suite(
            [Instance(id=f"simplex-{n}", subdivision=s)], {"xi-formulas"}
        )
        assert reports[0].checks["xi-formulas"] == CheckResult("pass"), n
        assert not has_theorem_failure(reports)


def test_field_agreement_check():
    K, _ = random_flag_sphere(GeneratorSpec(2, 2, seed=8))
    reports = run_conjecture_suite(
        [Instance(id="fa", complex=K)], {"field-agreement"}
    )
    assert reports[0].checks["field-agreement"].status == "pass"

    from flagsub.complexes import from_facets

    rp2 = from_facets(
        [str(i) for i in range(1, 7)],
        [
            ["1", "2", "4"], ["1", "2", "5"], ["1", "3", "4"], ["1", "3", "6"],
            ["1", "5", "6"], ["2", "3", "5"], ["2", "3", "6"], ["2", "4", "6"],
            ["3", "4", "5"], ["4", "5", "6"],
        ],
    )
    # same verdict over both fields here, so agreement still holds even
    # though the Betti numbers differ
    reports = run_conjecture_suite(
        [Instance(id="rp2", complex=rp2)], {"field-agreement"}
    )
    assert reports[0].checks["field-agreement"].status == "pass"


def test_suite_summary_and_digests():
    subs = [
        Instance(
            id=f"s{i}",
            complex=random_flag_sphere(GeneratorSpec(2, i, seed=i))[0],
            subdivision=random_simplex_subdivision(("a", "b", "c"), i, i),
        )
        for i in range(4)
    ]
    reports = run_conjecture_suite(
        subs, {"gal", "local-gamma", "local-h-symmetry"}
    )
    tally = summarize(reports)
    assert tally["gal"] == {"pass": 4, "fail": 0, "skipped": 0}
    assert tally["local-h-symmetry"]["pass"] == 4
    assert all("gamma" in r.digests and "local_h" in r.digests for r in reports)
    assert all(set(r.timings) == set(r.checks) for r in reports)
    doc = reports[0].to_dict()
    assert doc["instance"] == "s0"
    assert set(doc) == {"instance", "checks", "timings_ms", "digests"}


def test_digests_skip_only_library_errors(monkeypatch):
    sphere = random_flag_sphere(GeneratorSpec(2, 1, seed=1))[0]
    inst = Instance(
        id="sphere-base",
        complex=sphere,
        subdivision=random_sphere_pair(2, 1, 1, seed=1),
    )
    digests = run_conjecture_suite([inst], set())[0].digests
    assert set(digests) == {"gamma", "h"}

    def broken(self):
        raise TypeError("defect in local_h")

    monkeypatch.setattr(SubdivisionMap, "local_h", broken)
    inst.subdivision = random_simplex_subdivision(("a", "b", "c"), 1, 1)
    with pytest.raises(TypeError):
        run_conjecture_suite([inst], set())


def test_h_decomposition_witness_shows_a_gamma_failure(monkeypatch):
    # Equal h sides alone would leave a gamma-only failure unexplained.
    h = IntPolynomial([1, 3, 1])
    fake = DecompositionCheck(h, h, IntPolynomial([1, 1]), IntPolynomial([1, 2]))
    monkeypatch.setattr(harness, "check_h_decomposition", lambda s: fake)
    inst = Instance(id="gamma-only", pair=random_sphere_pair(2, 1, 1, seed=2))
    result = run_conjecture_suite([inst], {"h-decomposition"})[0].checks
    assert result["h-decomposition"].status == "fail"
    assert result["h-decomposition"].witness == {
        "h_lhs": [1, 3, 1],
        "h_rhs": [1, 3, 1],
        "gamma_lhs": [1, 1],
        "gamma_rhs": [1, 2],
    }
    h_only = DecompositionCheck(h, IntPolynomial([1, 2, 1]), None, None)
    monkeypatch.setattr(harness, "check_h_decomposition", lambda s: h_only)
    result = run_conjecture_suite([inst], {"h-decomposition"})[0].checks
    assert result["h-decomposition"].witness == {"h_lhs": [1, 3, 1], "h_rhs": [1, 2, 1]}
