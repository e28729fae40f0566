"""`SubdivisionMap.validate` against the per-restriction oracles of
`conftest`, over valid maps and maps broken in every way the verdict
can report."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagsub.complexes import SimplicialComplex, from_facets, simplex
from flagsub.constructions import FIXTURE_NAMES, ball_to_sphere, example_complexes
from flagsub.errors import InvalidCarrier
from flagsub.harness import (
    CheckResult,
    _check_hierarchy,
    random_simplex_subdivision,
    random_sphere_pair,
)
from flagsub.subdivisions import SubdivisionMap

from conftest import literal_fast_verdict, literal_full_verdict

KINDS = ("fixture", "simplex", "sphere", "upward", "vertex-assignment")


def letters(d):
    return tuple(chr(97 + i) for i in range(d))


def upward_mutation(s: SubdivisionMap, rng: random.Random) -> SubdivisionMap:
    """Carry every face through one total face E0 onto the full simplex
    base; E0 is the first, in a random order, that keeps the map
    surjective.  The result stays monotone and dimension-growing."""
    full = (1 << len(s.base.labels)) - 1
    candidates = list(s.total.faces()[1:])
    rng.shuffle(candidates)
    for E0 in candidates:
        carrier = {E: full if E & E0 == E0 else c for E, c in s.carrier.items()}
        try:
            return SubdivisionMap(s.total, s.base, carrier)
        except InvalidCarrier:
            continue
    return s


def vertex_assignment_map(rng: random.Random) -> SubdivisionMap:
    """A random complex over a simplex, carried by a random assignment of
    base faces to its vertices.  The complex holds a copy of the base
    simplex on vertices carried to its vertices, so the map is onto; a
    face carries to the union of the carriers of its facets, or to the
    whole simplex where that union is too small."""
    d = rng.randint(2, 4)
    n = d + rng.randint(1, 3)
    full = (1 << d) - 1
    labels = tuple(f"t{i}" for i in range(n))
    facets = [(1 << d) - 1]
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, d)
        facets.append(sum(1 << i for i in rng.sample(range(n), size)))
    total = SimplicialComplex(labels, facets)
    carrier = {0: 0}
    for E in total.faces()[1:]:
        if E.bit_count() == 1:
            carrier[E] = E if E < 1 << d else rng.randint(1, full)
            continue
        c = 0
        rest = E
        while rest:
            low = rest & -rest
            c |= carrier[E ^ low]
            rest ^= low
        carrier[E] = c if c.bit_count() >= E.bit_count() else full
    return SubdivisionMap(total, simplex(letters(d)), carrier)


def doubled_cofacet_map() -> SubdivisionMap:
    """Over the triangle abc, the vertex a has two edges carried onto ab
    and none onto ac: as many as ab and ac together, but the
    restriction to ac has the lone vertex a as a facet."""
    total = from_facets(
        "abcxyz", [["a", "x"], ["a", "y"], ["y", "b"], ["x", "b", "c"], ["z", "c"]]
    )
    base = simplex("abc")
    onto = {"x": "ab", "y": "ab", "z": "ac", "a,x": "ab", "a,y": "ab", "b,y": "ab",
            "b,x": "ab", "c,x": "abc", "c,z": "ac", "b,c,x": "abc"}
    carrier = {}
    for E in total.faces():
        key = ",".join(sorted(total.names(E)))
        carrier[E] = base.mask(onto.get(key, key.replace(",", "")))
    return SubdivisionMap(total, base, carrier)


def validation_case(kind: str, seed: int) -> SubdivisionMap:
    rng = random.Random(seed)
    if kind == "fixture":
        if seed % (len(FIXTURE_NAMES) + 1) == len(FIXTURE_NAMES):
            return doubled_cofacet_map()
        return example_complexes(FIXTURE_NAMES[seed % len(FIXTURE_NAMES)])
    if kind == "simplex":
        return random_simplex_subdivision(letters(2 + seed % 3), seed % 6, seed)
    if kind == "sphere":
        return random_sphere_pair(2 + seed % 2, seed % 3, 1 + seed % 3, seed)
    if kind == "upward":
        if seed % 3 == 0:
            s = example_complexes(FIXTURE_NAMES[seed % len(FIXTURE_NAMES)])
        else:
            s = random_simplex_subdivision(letters(2 + seed % 3), seed % 5, seed)
        return upward_mutation(s, rng)
    return vertex_assignment_map(rng)


FAILURE_KINDS = {
    "restriction not pure of full dimension": "impure",
    "carrier preimage is not the interior": "interior",
    "restriction is not flag": "non-flag",
    "vertex carriers fit inside a lower-dimensional base face": "quasi-geometric",
}


def failure_kind(reason: str) -> str:
    if reason.startswith("induced by vertices"):
        return "vertex-induced"
    return FAILURE_KINDS.get(reason, "homology")


def test_validation_matches_per_restriction_oracles():
    seen: set[str] = set()
    seen_full: set[str] = set()

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=10**6))
    def check(kind, seed):
        s = validation_case(kind, seed)
        want = literal_fast_verdict(s)
        assert s.validate(fast=True).to_dict() == want
        want_full = literal_full_verdict(s)
        assert s.validate().to_dict() == want_full
        seen.update(failure_kind(reason) for _, reason in want["failures"])
        seen_full.update(failure_kind(reason) for _, reason in want_full["failures"])

    check()
    assert seen >= {"impure", "interior", "vertex-induced", "non-flag", "quasi-geometric"}
    assert seen_full >= {"homology", "interior"}


def test_fast_validation_builds_no_complex(monkeypatch):
    maps = [validation_case(kind, seed) for kind in KINDS for seed in range(4)]
    built = []
    init = SimplicialComplex.__init__
    from_ordered = SimplicialComplex._from_ordered.__func__

    def spy_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def spy_from_ordered(cls, *args, **kwargs):
        built.append("ordered")
        return from_ordered(cls, *args, **kwargs)

    monkeypatch.setattr(SimplicialComplex, "__init__", spy_init)
    monkeypatch.setattr(SimplicialComplex, "_from_ordered", classmethod(spy_from_ordered))
    for s in maps:
        s.validate(fast=True)
    assert built == []
    maps[0].validate()
    assert "init" in built


def literal_hierarchy(s: SubdivisionMap) -> CheckResult:
    """The `hierarchy` check read off `literal_fast_verdict`, with the
    total's flagness from its listed minimal non-faces."""
    v = literal_fast_verdict(s)
    if v["vertex_induced"] and not v["quasi_geometric"]:
        return CheckResult("fail", {"reason": "vertex-induced but not quasi-geometric"})
    flag_total = all(m.bit_count() == 2 for m in s.total.minimal_non_faces())
    if v["vertex_induced"] and flag_total and not v["flag_subdivision"]:
        return CheckResult(
            "fail", {"reason": "flag total + vertex-induced but not flag subdivision"}
        )
    return CheckResult("pass")


def test_hierarchy_walks_a_flag_total_once_and_lists_no_non_faces(monkeypatch):
    calls: list[str] = []
    is_flag = SimplicialComplex.is_flag
    minimal_non_faces = SimplicialComplex.minimal_non_faces

    def spy_is_flag(self):
        calls.append("is_flag")
        return is_flag(self)

    def spy_minimal_non_faces(self):
        calls.append("minimal_non_faces")
        return minimal_non_faces(self)

    monkeypatch.setattr(SimplicialComplex, "is_flag", spy_is_flag)
    monkeypatch.setattr(SimplicialComplex, "minimal_non_faces", spy_minimal_non_faces)
    for seed in range(4):
        s = random_sphere_pair(2 + seed % 2, seed % 3, 1 + seed % 2, seed)
        assert s.validate(fast=True).is_flag_subdivision
        assert calls == ["is_flag"]
        calls.clear()
        assert _check_hierarchy(s) == CheckResult("pass")
        assert calls == ["is_flag"]
        calls.clear()
    monkeypatch.undo()

    # Non-flag totals still list their minimal non-faces as witnesses.
    maps = [example_complexes("ex-2.3b")]
    maps += [ball_to_sphere(example_complexes(name)) for name in FIXTURE_NAMES]
    for s in maps:
        assert not s.total.is_flag()
        assert s.validate(fast=True).to_dict() == literal_fast_verdict(s)
        assert _check_hierarchy(s) == literal_hierarchy(s)
