import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsub.complexes import (
    SimplicialComplex,
    cross_polytope,
    cross_polytope_on,
    from_facets,
    link_table,
    simplex,
)
from flagsub.constructions import FIXTURE_NAMES, example_complexes
from flagsub.errors import (
    BaseMismatch,
    FlagsubError,
    BaseNotSimplex,
    CarrierMismatch,
    InvalidCarrier,
    NotAFace,
    NotHomologySubdivision,
    VertexCollision,
)
from flagsub.harness import (
    CheckResult,
    _check_relative_symmetry,
    random_simplex_subdivision,
    random_sphere_pair,
)
from flagsub.polynomials import (
    IntPolynomial,
    SymmetryFailure,
    gamma_from_symmetric,
    h_polynomial,
)
from flagsub.subdivisions import (
    SubdivisionMap,
    _relative_local_h_table,
    _restricted_local_h,
    barycentric_subdivision,
    barycenter_name,
    check_h_decomposition,
    check_locality,
    compose,
    edge_subdivision,
    join_subdivision,
    link_subdivision,
    stellar_subdivision,
    trivial_subdivision,
)

from conftest import (
    dense_coeffs,
    literal_relative_local_h,
    literal_is_eulerian,
    literal_quasi_geometric,
    poly_coeffs,
    sympy_h_of,
    sympy_local_h,
    sympy_poly,
    sympy_relative_local_h,
)

X = IntPolynomial([0, 1])


def letters(d):
    return [chr(97 + i) for i in range(d)]


def tag(K, masks):
    return sorted(sorted(K.names(m)) for m in masks)


# -- carrier invariants -------------------------------------------------------


def test_constructor_rejects_missing_faces():
    K = simplex(["a", "b"])
    carrier = {E: E for E in K.faces()}
    del carrier[K.mask(["a"])]
    with pytest.raises(InvalidCarrier):
        SubdivisionMap(K, K, carrier)


def test_constructor_rejects_non_monotone():
    K = simplex(["a", "b"])
    carrier = {E: E for E in K.faces()}
    carrier[K.mask(["a"])] = K.mask(["b"])
    with pytest.raises(InvalidCarrier):
        SubdivisionMap(K, K, carrier)


def test_constructor_rejects_dimension_drop():
    K = simplex(["a", "b"])
    carrier = {E: K.mask(["a", "b"]) for E in K.faces()}
    carrier[0] = 0
    with pytest.raises(InvalidCarrier):
        SubdivisionMap(K, K, carrier)


def test_constructor_rejects_non_surjective():
    total = simplex(["a", "b"])
    base = simplex(["p", "q"])
    full = base.mask(["p", "q"])
    carrier = {0: 0}
    carrier[total.mask(["a"])] = base.mask(["p"])
    carrier[total.mask(["b"])] = base.mask(["p"])
    carrier[total.mask(["a", "b"])] = full
    with pytest.raises(InvalidCarrier):
        SubdivisionMap(total, base, carrier)


# -- stellar and edge subdivisions -------------------------------------------


def test_stellar_on_full_simplex_is_cone_over_boundary():
    for d in range(2, 7):
        K = simplex(letters(d))
        s = stellar_subdivision(K, (1 << d) - 1)
        assert s.local_h() == IntPolynomial([0] + [1] * (d - 1))


def test_stellar_square_edge_gives_pentagon():
    K = cross_polytope(2)
    e = K.mask(["u1", "u2"])
    s = stellar_subdivision(K, e)
    assert s.total.f_vector() == (1, 5, 5)
    assert s.total.is_flag()


def test_stellar_octahedron_edge():
    K = cross_polytope(3)
    s = stellar_subdivision(K, K.mask(["u1", "u2"]))
    assert s.total.f_vector()[1] == 7
    assert s.total.is_flag()
    h = h_polynomial(s.total)
    assert h == IntPolynomial([1, 4, 4, 1])


def test_stellar_carrier_rules():
    K = cross_polytope(2)
    e = K.mask(["u1", "u2"])
    s = stellar_subdivision(K, e, "m")
    v = s.total.mask(["m"])
    assert s.carrier[v] == e
    assert s.carrier[s.total.mask(["m", "u1"])] == e
    old = s.total.mask(["v1", "v2"])
    assert s.carrier[old] == K.mask(["v1", "v2"])
    assert not s.total.has_face(e)  # the subdivided edge is gone


def test_stellar_errors():
    K = simplex(["a", "b"])
    with pytest.raises(NotAFace):
        stellar_subdivision(K, 0)
    with pytest.raises(VertexCollision):
        stellar_subdivision(K, K.mask(["a", "b"]), "a")
    with pytest.raises(NotAFace):
        edge_subdivision(K, K.mask(["a"]))


def test_stellar_default_vertex_name():
    K = simplex(["a", "b"])
    s = stellar_subdivision(K, K.mask(["a", "b"]))
    assert barycenter_name(("b", "a")) == "b{a.b}"
    assert "b{a.b}" in s.total.labels


def test_stellar_total_and_carrier_match_the_facet_construction():
    # The star-local construction against the literal one: facets
    # rebuilt from K's facets, faces from a fresh closure, carriers by
    # the rule on the new vertex.
    rng = random.Random(41)
    for trial in range(25):
        labels = letters(rng.randint(2, 7))
        gens = [
            rng.sample(labels, rng.randint(1, len(labels)))
            for _ in range(rng.randint(1, 5))
        ]
        K = from_facets(labels, gens)
        for face in K.faces()[1:]:
            s = stellar_subdivision(K, face, "new")
            total = s.total
            v_bit = 1 << len(K.labels)
            facets = [G for G in K.facets if G & face != face] + [
                v_bit | (G & ~(1 << b))
                for G in K.facets
                if G & face == face
                for b in range(len(K.labels))
                if face >> b & 1
            ]
            closure = SimplicialComplex(total.labels, total.facets)
            assert total == SimplicialComplex(total.labels, facets)
            assert total.faces() == closure.faces()
            assert total.face_set == closure.face_set
            assert s.carrier == {
                E: ((E & ~v_bit) | face) if E & v_bit else E
                for E in total.faces()
            }


def test_stellar_validates_fully():
    K = cross_polytope(2)
    s = stellar_subdivision(K, K.mask(["u1", "u2"]))
    v = s.validate()
    assert v.is_homology_subdivision
    assert v.is_quasi_geometric
    assert v.is_vertex_induced
    assert v.is_flag_subdivision


# -- local h / local gamma ----------------------------------------------------


def test_trivial_subdivision_local_h():
    assert trivial_subdivision(from_facets([], [])).local_h() == IntPolynomial([1])
    for d in (1, 2, 3, 4):
        s = trivial_subdivision(simplex(letters(d)))
        assert not s.local_h()


def test_local_h_requires_simplex_base():
    K = cross_polytope(2)
    with pytest.raises(BaseNotSimplex):
        trivial_subdivision(K).local_h()


def test_local_h_matches_symbolic_oracle_on_random_instances():
    for seed in range(12):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), seed % 5, seed)
        assert poly_coeffs(s.local_h()) == sympy_local_h(s)


def test_local_h_symmetry_on_random_instances():
    for seed in range(12):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 4, seed)
        assert s.local_h().is_symmetric(d)


def test_local_h_nonnegative_on_quasi_geometric_instances():
    for seed in range(8):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 4, seed)
        assert s.validate(fast=True).is_quasi_geometric
        assert s.local_h().is_nonnegative()


def test_barycentric_small_cases():
    assert barycentric_subdivision(["a"]).total == simplex(["a"])
    assert barycentric_subdivision(["a", "b"]).local_h() == X
    b3 = barycentric_subdivision(["a", "b", "c"])
    assert b3.local_h() == IntPolynomial([0, 1, 1])
    assert b3.local_gamma().to_list() == [0, 1]
    v = b3.validate()
    assert v.is_homology_subdivision and v.is_vertex_induced
    assert v.is_flag_subdivision and b3.total.is_flag()


def test_barycentric_matches_chain_model():
    # independent model: faces are chains of nonempty subsets of V,
    # carrier of a chain is its maximal element
    names = ("a", "b", "c")
    b = barycentric_subdivision(names)
    subsets = []
    for m in range(1, 8):
        subsets.append(frozenset(n for i, n in enumerate(names) if (m >> i) & 1))

    def vertex_name(S):
        return min(S) if len(S) == 1 else barycenter_name(tuple(S))

    chains = [frozenset()]
    for S in subsets:
        chains += [c | {S} for c in chains if all(T < S or S < T for T in c)]
    model_faces = {
        tuple(sorted(vertex_name(S) for S in c)): (
            max(c, key=len) if c else frozenset()
        )
        for c in chains
    }
    got_faces = {
        tuple(sorted(b.total.names(E))): frozenset(b.base.names(c))
        for E, c in b.carrier.items()
    }
    assert got_faces == model_faces


def test_interior_stats_fixtures():
    t = trivial_subdivision(simplex(letters(3)))
    assert t.interior_stats().to_dict() == {
        "interior_vertices": 0,
        "interior_edges": 0,
        "codim1_relint_vertices": 0,
    }
    st = stellar_subdivision(simplex(letters(4)), 0b1111)
    assert st.interior_stats().f0_interior == 1
    b4 = barycentric_subdivision(letters(4))
    stats = b4.interior_stats()
    assert stats.f0_interior == 1
    assert stats.f0_codim1_relint == 4


def test_local_gamma_low_dimension_is_interior_vertex_count():
    for seed in range(8):
        d = 2 + seed % 2
        s = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 4, seed)
        xi = s.local_gamma()
        t = s.interior_stats().f0_interior
        assert xi.to_list() == [0] + ([t] if d >= 2 else [])


def test_xi_coefficient_formulas():
    for seed in range(6):
        s = random_simplex_subdivision(tuple(letters(4)), 2 + seed % 3, seed)
        xi = s.local_gamma()
        stats = s.interior_stats()
        assert xi.coeffs[0] == 0
        assert xi.coeffs[1] == stats.f0_interior
        assert xi.coeffs[2] == (
            -5 * stats.f0_interior
            + stats.f1_interior
            - stats.f0_codim1_relint
        )


# -- relative local h ---------------------------------------------------------


def test_relative_local_h_at_empty_face_is_local_h():
    for seed in range(6):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), seed % 4, seed)
        assert s.relative_local_h(0) == s.local_h()


def test_relative_local_h_of_trivial_subdivision():
    for d in (3, 4, 5):
        s = trivial_subdivision(simplex(letters(d)))
        edge = s.total.mask(letters(2))
        assert not s.relative_local_h(edge)
        full = (1 << d) - 1
        assert s.relative_local_h(full) == IntPolynomial([1])


def test_relative_local_h_symmetry():
    for seed in range(6):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 3, seed)
        for E in s.total.faces():
            ell = s.relative_local_h(E)
            assert ell.reflect(d - E.bit_count()) == ell


def _value_or_error(f, *args):
    try:
        return f(*args)
    except FlagsubError as exc:
        return type(exc)


def test_relative_local_h_matches_the_facet_star_histogram():
    maps = [example_complexes(name) for name in FIXTURE_NAMES]
    maps += [
        random_simplex_subdivision(tuple(letters(2 + seed % 3)), seed % 7, seed)
        for seed in range(12)
    ]
    maps.append(trivial_subdivision(simplex(["a"])))
    # Bases that are not simplices: both refuse with BaseNotSimplex.
    maps += [random_sphere_pair(2, 1, 2, 0), trivial_subdivision(cross_polytope(3))]
    outcomes = set()
    for s in maps:
        # Every face, and every mask on the first six labels, which
        # holds non-faces wherever the total is not a simplex.
        n = len(s.total.labels)
        masks = set(s.total.faces()) | set(range(1 << min(n, 6))) | {1 << n}
        for E in sorted(masks):
            want = _value_or_error(literal_relative_local_h, s, E)
            assert _value_or_error(s.relative_local_h, E) == want
            outcomes.add(want if isinstance(want, type) else IntPolynomial)
        assert _value_or_error(s.local_h) == _value_or_error(
            literal_relative_local_h, s, 0
        )
    assert outcomes == {IntPolynomial, NotAFace, BaseNotSimplex}


def test_relative_local_h_rejects_non_face():
    s = trivial_subdivision(simplex(["a", "b"]))
    with pytest.raises(NotAFace):
        s.relative_local_h(0b1100)


# -- restriction --------------------------------------------------------------


def test_restriction_of_trivial_is_trivial():
    s = trivial_subdivision(simplex(letters(4)))
    F = s.base.mask(["a", "c"])
    r = s.restriction(F)
    assert r == trivial_subdivision(simplex(["a", "c"]))


def test_restriction_to_empty_face():
    s = trivial_subdivision(simplex(["a", "b"]))
    r = s.restriction(0)
    assert r.total.faces() == (0,) and r.base.faces() == (0,)


def test_restriction_carrier_commutes():
    s = random_simplex_subdivision(("a", "b", "c"), 3, seed=4)
    F = s.base.mask(["a", "b"])
    r = s.restriction(F)
    for E, c in r.carrier.items():
        names = r.total.names(E)
        assert set(r.base.names(c)) == set(
            s.base.names(s.carrier[s.total.mask(names)])
        )


def test_restriction_rejects_non_face():
    s = trivial_subdivision(simplex(["a", "b"]))
    with pytest.raises(NotAFace):
        s.restriction(0b111)


# -- validation hierarchy -----------------------------------------------------


def test_trivial_subdivision_validates_everywhere():
    for K in (simplex(letters(3)), cross_polytope(2)):
        v = trivial_subdivision(K).validate()
        assert v.is_homology_subdivision
        assert v.is_quasi_geometric
        assert v.is_vertex_induced
        assert v.is_flag_subdivision
        assert v.failures == ()


def test_fast_validation_agrees_on_valid_and_invalid_fixtures():
    from flagsub.constructions import example_complexes

    for name in ("ex-2.3a", "ex-2.3b", "ex-2.3c"):
        s = example_complexes(name)
        full = s.validate()
        fast = s.validate(fast=True)
        assert full.is_homology_subdivision == fast.is_homology_subdivision
        assert full.is_quasi_geometric == fast.is_quasi_geometric
        assert full.is_vertex_induced == fast.is_vertex_induced
        assert full.is_flag_subdivision == fast.is_flag_subdivision


def test_quasi_geometric_cardinality_criterion_matches_literal_form():
    from flagsub.constructions import example_complexes

    cases = [
        example_complexes("ex-2.3a"),
        example_complexes("ex-2.3b"),
        example_complexes("rem-4.5"),
        random_simplex_subdivision(("a", "b", "c"), 3, 1),
        stellar_subdivision(cross_polytope(2), 0b11),
    ]
    for s in cases:
        assert s.validate(fast=True).is_quasi_geometric == literal_quasi_geometric(s)
        assert (s.quasi_geometric_witness() is None) == literal_quasi_geometric(s)
    assert any(s.quasi_geometric_witness() is not None for s in cases)


def test_hierarchy_on_random_instances():
    for seed in range(10):
        d = 2 + seed % 3
        s = random_simplex_subdivision(tuple(letters(d)), seed % 5, seed)
        v = s.validate(fast=True)
        assert not (v.is_vertex_induced and not v.is_quasi_geometric)
        if v.is_vertex_induced and s.total.is_flag():
            assert v.is_flag_subdivision


def test_validation_reports_failures():
    from flagsub.constructions import example_complexes

    v = example_complexes("ex-2.3a").validate()
    assert any("lower-dimensional" in reason for _, reason in v.failures)


# -- decomposition and locality ----------------------------------------------


def test_h_decomposition_trivial():
    K = cross_polytope(2)
    chk = check_h_decomposition(trivial_subdivision(K))
    assert chk.h_lhs == chk.h_rhs == h_polynomial(K)
    assert chk.gamma_lhs == chk.gamma_rhs  # base is Eulerian


def test_h_decomposition_stellar_octahedron_edge():
    K = cross_polytope(3)
    s = stellar_subdivision(K, K.mask(["u1", "u2"]))
    chk = check_h_decomposition(s)
    assert chk.h_lhs == IntPolynomial([1, 4, 4, 1])
    assert chk.h_equal and chk.gamma_equal


def test_h_decomposition_simplex_base_has_no_gamma_part():
    s = random_simplex_subdivision(("a", "b", "c"), 2, 3)
    chk = check_h_decomposition(s)
    assert chk.h_equal
    assert chk.gamma_lhs is None


def test_h_decomposition_symmetry_failure_raises_not_homology_subdivision():
    # A third point carried to a point of the 0-sphere: structurally
    # valid, but h(total) = 1 + 2x is not symmetric.
    s0 = from_facets(["a", "b"], [["a"], ["b"]])
    points = from_facets(["a", "b", "c"], [["a"], ["b"], ["c"]])
    extra = SubdivisionMap(points, s0, {0: 0, 1: 1, 2: 2, 4: 1})
    with pytest.raises(NotHomologySubdivision):
        check_h_decomposition(extra)


def test_locality_trivial_inner():
    outer = random_simplex_subdivision(("a", "b", "c"), 2, 5)
    inner = trivial_subdivision(outer.total)
    chk = check_locality(outer, inner)
    assert chk.ok
    assert chk.lhs == outer.local_h()


def test_locality_trivial_outer():
    d = 3
    outer = trivial_subdivision(simplex(letters(d)))
    inner = random_simplex_subdivision(tuple(letters(d)), 2, 6)
    chk = check_locality(outer, inner)
    assert chk.ok


def test_locality_on_composed_random_instances():
    rng = random.Random(0)
    for seed in range(6):
        d = 2 + seed % 3
        outer = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 3, seed)
        edges = [f for f in outer.total.faces() if f.bit_count() == 2]
        inner = edge_subdivision(outer.total, edges[rng.randrange(len(edges))])
        assert check_locality(outer, inner).ok


def test_edge_recursion_identity():
    for seed in range(6):
        d = 2 + seed % 3
        before = random_simplex_subdivision(tuple(letters(d)), seed % 3, seed)
        edges = [f for f in before.total.faces() if f.bit_count() == 2]
        e = edges[seed % len(edges)]
        after = compose(before, edge_subdivision(before.total, e))
        assert after.local_h() == before.local_h() + X * before.relative_local_h(e)


def test_compose_requires_matching_complexes():
    s1 = trivial_subdivision(simplex(["a", "b"]))
    s2 = trivial_subdivision(simplex(["p", "q"]))
    with pytest.raises(BaseMismatch):
        compose(s1, s2)


# -- joins and links ----------------------------------------------------------


def test_join_of_barycentric_edges():
    a = barycentric_subdivision(["a1", "a2"])
    b = barycentric_subdivision(["b1", "b2"])
    j = join_subdivision(a, b)
    assert j.local_h() == IntPolynomial([0, 0, 1])
    v = j.validate()
    assert v.is_homology_subdivision and v.is_vertex_induced
    assert v.is_flag_subdivision


def test_join_with_trivial_vertex_kills_local_h():
    a = barycentric_subdivision(["a1", "a2"])
    t = trivial_subdivision(simplex(["z"]))
    assert not join_subdivision(a, t).local_h()


def test_xi_multiplicativity_on_random_pairs():
    for seed in range(6):
        s1 = random_simplex_subdivision(("a", "b"), 1 + seed % 3, seed)
        s2 = random_simplex_subdivision(("p", "q", "r"), seed % 3, seed + 50)
        j = join_subdivision(s1, s2)
        lhs = j.local_gamma().polynomial()
        rhs = s1.local_gamma().polynomial() * s2.local_gamma().polynomial()
        assert lhs == rhs


def test_link_subdivision_at_empty_face_is_identity():
    s = random_simplex_subdivision(("a", "b", "c"), 2, 9)
    assert link_subdivision(s, []) == s


def test_link_subdivision_of_stellar_outside_the_star():
    K = cross_polytope(3)
    s = stellar_subdivision(K, K.mask(["u1", "u2"]))
    ls = link_subdivision(s, ["v1"])
    # v1 is far from the subdivided edge, so its link is untouched
    assert ls.total.facets == ls.base.facets == cross_polytope(3).link(
        K.mask(["v1"])
    ).facets
    assert all(E == c for E, c in ls.carrier.items())


def test_link_subdivision_preserves_validity():
    K = cross_polytope(3)
    s = stellar_subdivision(K, K.mask(["u1", "u2"]))
    ls = link_subdivision(s, ["u1"])
    v = ls.validate()
    assert v.is_homology_subdivision and v.is_vertex_induced


def test_link_subdivision_requires_fixed_face():
    from flagsub.constructions import example_complexes

    s = example_complexes("ex-2.3a")
    # the pushed face is common to total and base but carries to the
    # whole simplex, so it cannot be linked
    with pytest.raises(CarrierMismatch):
        link_subdivision(s, ["b", "c", "d"])


def test_unimodality_counterexample_is_pinned():
    from flagsub.constructions import example_complexes

    s = example_complexes("ex-2.3b")
    assert s.validate(fast=True).is_quasi_geometric
    assert not s.local_h().is_unimodal()


# -- local invariants against literal oracles ---------------------------------


def simplex_subdivisions():
    """Seeded subdivisions of the 1-, 2- and 3-simplex."""
    return [
        random_simplex_subdivision(tuple(letters(2 + seed % 3)), 1 + seed % 4, seed)
        for seed in range(9)
    ]


def sphere_subdivisions():
    """Seeded flag subdivisions of flag 1- and 2-spheres."""
    return [
        random_sphere_pair(2 + seed % 2, seed % 3, 1 + seed % 2, seed)
        for seed in range(6)
    ]


def test_restricted_local_h_matches_sympy_oracle():
    # The result is sparse: a missing key reads as zero, and the keys are
    # exactly the base faces whose restriction has nonzero local h.
    for s in simplex_subdivisions() + sphere_subdivisions():
        local = _restricted_local_h(s, link_table(s.base))
        oracle = {F: sympy_local_h(s.restriction(F)) for F in s.base.faces()}
        assert set(local) == {F for F, ell in oracle.items() if ell}
        for F in s.base.faces():
            assert poly_coeffs(local.get(F, IntPolynomial())) == oracle[F]


def test_relative_local_h_matches_sympy_oracle():
    for s in simplex_subdivisions():
        for E in s.total.faces():
            assert poly_coeffs(s.relative_local_h(E)) == sympy_relative_local_h(s, E)


def test_h_decomposition_sides_match_literal_sums():
    for s in simplex_subdivisions() + sphere_subdivisions():
        chk = check_h_decomposition(s)
        d = s.base.dim + 1
        sphere = s.base.facets != {(1 << len(s.base.labels)) - 1}
        rhs = 0
        gamma_rhs = IntPolynomial()
        for F in s.base.faces():
            ell = sympy_local_h(s.restriction(F))
            link = s.base.link(F)
            rhs += sympy_poly(ell) * sympy_h_of(link)
            if sphere:
                link_h = IntPolynomial(dense_coeffs(sympy_h_of(link), link.dim + 1))
                g_local = gamma_from_symmetric(IntPolynomial(ell), F.bit_count())
                g_link = gamma_from_symmetric(link_h, d - F.bit_count())
                gamma_rhs = gamma_rhs + g_local.polynomial() * g_link.polynomial()
        assert poly_coeffs(chk.h_lhs) == dense_coeffs(sympy_h_of(s.total), d)
        assert poly_coeffs(chk.h_rhs) == dense_coeffs(rhs, d)
        if sphere:
            assert chk.gamma_lhs == gamma_from_symmetric(chk.h_lhs, d).polynomial()
            assert chk.gamma_rhs == gamma_rhs
        else:
            assert chk.gamma_lhs is None
        assert chk.ok


def test_locality_sides_match_literal_sums():
    rng = random.Random(1)
    for seed in range(4):
        d = 2 + seed % 2
        outer = random_simplex_subdivision(tuple(letters(d)), 1 + seed % 2, seed)
        inner = trivial_subdivision(outer.total)
        for _ in range(1 + seed % 2):
            edges = [f for f in inner.total.faces() if f.bit_count() == 2]
            inner = compose(
                inner, edge_subdivision(inner.total, edges[rng.randrange(len(edges))])
            )
        chk = check_locality(outer, inner)
        rhs = 0
        for E in outer.total.faces():
            rhs += sympy_poly(sympy_local_h(inner.restriction(E))) * sympy_poly(
                sympy_relative_local_h(outer, E)
            )
        assert poly_coeffs(chk.lhs) == sympy_local_h(compose(outer, inner))
        assert poly_coeffs(chk.rhs) == dense_coeffs(rhs, d)
        assert chk.ok



def derived_maps(rng: random.Random) -> list[SubdivisionMap]:
    """Maps built by the constructors that skip the structural check:
    trivial maps, stellar moves on faces of any dimension, their
    composites along a chain, and joins of two chains on disjoint
    labels.  The first chain may start from a checked fixture."""

    def chain(prefix: str, start: SubdivisionMap) -> list[SubdivisionMap]:
        s, out = start, [start]
        for i in range(rng.randint(0, 3)):
            step = stellar_subdivision(
                s.total, rng.choice(s.total.faces()[1:]), f"{prefix}n{i}"
            )
            s = compose(s, step)
            out += [step, s]
        return out

    def start(prefix: str) -> SubdivisionMap:
        d = rng.randint(1, 3)
        if rng.randrange(2):
            return trivial_subdivision(simplex([prefix + x for x in letters(d + 1)]))
        u = [f"{prefix}u{i}" for i in range(d)]
        v = [f"{prefix}v{i}" for i in range(d)]
        return trivial_subdivision(cross_polytope_on(u, v))

    if rng.randrange(3):
        maps = chain("", start(""))
    else:
        maps = chain("", example_complexes(rng.choice(FIXTURE_NAMES)))
    if rng.randrange(2):
        maps += chain("j", join_subdivision(maps[-1], chain("z", start("z"))[-1]))
    return maps


def test_relative_local_h_table_matches_the_per_face_method():
    maps = simplex_subdivisions()
    for seed in range(30):
        maps += [
            m
            for m in derived_maps(random.Random(seed))
            if m.base.facets == {(1 << len(m.base.labels)) - 1}
        ]
    assert len(maps) > 40
    for s in maps:
        table = _relative_local_h_table(s)
        assert list(table) == list(s.total.faces())
        for E, ell in table.items():
            assert ell == s.relative_local_h(E)


def per_face_relative_symmetry(s: SubdivisionMap) -> CheckResult:
    """`relative-symmetry` as a walk over `relative_local_h` in face
    order, stopping at the first asymmetric face."""
    d = len(s.base.labels)
    for E in s.total.faces():
        ell = s.relative_local_h(E)
        if ell.reflect(d - E.bit_count()) != ell:
            return CheckResult(
                "fail",
                {"face": list(s.total.names(E)), "relative_local_h": ell.to_list()},
            )
    return CheckResult("pass")


def carried(
    total: SimplicialComplex, base: SimplicialComplex, onto: dict
) -> SubdivisionMap:
    """The map carrying each total face named in ``onto`` (comma-joined,
    in label order) onto the named base face, and every other total
    face onto the base face of the same names."""
    carrier = {}
    for E in total.faces():
        key = ",".join(total.names(E))
        carrier[E] = base.mask(onto.get(key, total.names(E)))
    return SubdivisionMap(total, base, carrier)


def path_over_an_edge() -> SubdivisionMap:
    """The path b0,b1 + b1,x0 over the 1-simplex (b0, b1), with x0 and
    both edges carried onto the whole base.  l_∅ = x passes at width 2
    and l_b1 = x fails at width 1, so a check that tests each
    polynomial once must key it by its width too."""
    total = from_facets(["b0", "b1", "x0"], [["b0", "b1"], ["b1", "x0"]])
    whole = ["b0", "b1"]
    return carried(total, simplex(whole), {"x0": whole, "b0,b1": whole, "b1,x0": whole})


def disjoint_edges() -> SubdivisionMap:
    """Two disjoint edges over the 1-simplex (p, q).  The faces m and
    m,p share l = 1, asymmetric at width 1 and symmetric at width 0."""
    total = from_facets(["p", "q", "m", "n"], [["p", "m"], ["q", "n"]])
    whole = ["p", "q"]
    onto = {"m": whole, "n": whole, "p,m": whole, "q,n": whole}
    return carried(total, simplex(whole), onto)


def test_relative_symmetry_check_matches_the_per_face_walk():
    maps = simplex_subdivisions()
    for seed in range(30):
        maps += [
            m
            for m in derived_maps(random.Random(seed))
            if m.base.facets == {(1 << len(m.base.labels)) - 1}
        ]
    for s in maps:
        assert _check_relative_symmetry(s) == per_face_relative_symmetry(s)

    path = path_over_an_edge()
    want = CheckResult("fail", {"face": ["b1"], "relative_local_h": [0, 1]})
    assert _check_relative_symmetry(path) == per_face_relative_symmetry(path) == want
    edges = disjoint_edges()
    table = _relative_local_h_table(edges)
    m, mp = edges.total.mask(["m"]), edges.total.mask(["p", "m"])
    assert table[m] == table[mp] == IntPolynomial([1])
    want = CheckResult("fail", {"face": [], "relative_local_h": [0, 2, -1]})
    assert _check_relative_symmetry(edges) == per_face_relative_symmetry(edges) == want


def disjoint_union(A: SimplicialComplex, B: SimplicialComplex) -> SimplicialComplex:
    shift = len(A.labels)
    return SimplicialComplex(
        A.labels + B.labels, list(A.facets) + [f << shift for f in B.facets]
    )


def boundary(names) -> SimplicialComplex:
    """The boundary of the simplex on ``names``: a sphere of dimension
    len(names) - 2."""
    full = (1 << len(names)) - 1
    return SimplicialComplex(names, [full ^ (1 << i) for i in range(len(names))])


def guard_complexes() -> list[SimplicialComplex]:
    """Fixture totals and bases, random complexes on up to six vertices
    (mostly impure), and random disjoint unions of simplex boundaries,
    some suspended.  S^3 + S^1 is Eulerian with symmetric h, but the
    vertex links of its circle are not symmetric at width 3."""
    out = [disjoint_union(boundary(letters(5)), boundary(["p", "q", "r"]))]
    for name in FIXTURE_NAMES:
        fx = example_complexes(name)
        out += [fx.total, fx.base]
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        generators = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 4))]
        out.append(SimplicialComplex(letters(n), generators))
    for i in range(40):
        parts = [
            boundary([f"p{j}{x}" for x in letters(rng.randint(2, 5))])
            for j in range(rng.randint(1, 3))
        ]
        K = parts[0]
        for P in parts[1:]:
            K = disjoint_union(K, P)
        if i % 3 == 0:
            K = K.join(from_facets(["s", "t"], [["s"], ["t"]]))
        out.append(K)
    return out


def literal_decomposition(s: SubdivisionMap):
    """The four sides as dense sums over every base face, each link and
    restriction built on its own, or None where some gamma conversion
    fails: the rule `check_h_decomposition` must raise on."""
    d = s.base.dim + 1
    h_lhs = h_polynomial(s.total)
    terms = [
        (F, s.restriction(F).local_h(), h_polynomial(s.base.link(F)))
        for F in s.base.faces()
    ]
    h_rhs = IntPolynomial()
    for _, ell, link_h in terms:
        h_rhs = h_rhs + ell * link_h
    if not literal_is_eulerian(s.base):
        return h_lhs, h_rhs, None, None
    g_lhs = gamma_from_symmetric(h_lhs, d)
    g_rhs = IntPolynomial()
    for F, ell, link_h in terms:
        g_local = gamma_from_symmetric(ell, F.bit_count())
        g_link = gamma_from_symmetric(link_h, d - F.bit_count())
        if isinstance(g_local, SymmetryFailure) or isinstance(g_link, SymmetryFailure):
            return None
        g_rhs = g_rhs + g_local.polynomial() * g_link.polynomial()
    if isinstance(g_lhs, SymmetryFailure):
        return None
    return h_lhs, h_rhs, g_lhs.polynomial(), g_rhs


def test_link_symmetry_guard_matches_the_literal_rule():
    outcomes = set()
    for K in guard_complexes():
        s = trivial_subdivision(K)
        want = literal_decomposition(s)
        symmetric_h = not isinstance(
            gamma_from_symmetric(h_polynomial(K), K.dim + 1), SymmetryFailure
        )
        if want is None:
            with pytest.raises(NotHomologySubdivision):
                check_h_decomposition(s)
            outcomes.add("raises" if not symmetric_h else "raises on a link only")
        else:
            chk = check_h_decomposition(s)
            assert (chk.h_lhs, chk.h_rhs, chk.gamma_lhs, chk.gamma_rhs) == want
            outcomes.add("no gamma" if want[2] is None else "gamma")
    assert outcomes == {"raises", "raises on a link only", "no gamma", "gamma"}


def test_h_decomposition_converts_only_the_nonzero_terms(monkeypatch):
    # One gamma conversion of h(total), then a local and a link one for
    # the empty face and for each nonempty F with nonzero local h: the
    # dense sum made two for every base face.
    from flagsub import subdivisions

    calls = []

    def spy(h, d):
        calls.append(d)
        return gamma_from_symmetric(h, d)

    s = random_sphere_pair(5, 1, 2, 3)
    nonzero = [F for F in s.base.faces()[1:] if s.restriction(F).local_h()]
    assert 0 < len(nonzero) < s.base.num_faces() // 20
    monkeypatch.setattr(subdivisions, "gamma_from_symmetric", spy)
    assert check_h_decomposition(s).ok
    assert len(calls) == 1 + 2 * len(nonzero) + 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_trusted_constructors_agree_with_the_checked_one(seed):
    for m in derived_maps(random.Random(seed)):
        assert SubdivisionMap(m.total, m.base, m.carrier) == m
        assert list(m.carrier) == list(m.total.faces())
