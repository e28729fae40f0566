import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import literal_sigma_carrier

from flagsub import constructions
from flagsub.complexes import cross_polytope, from_facets, iter_submasks, simplex
from flagsub.constructions import (
    FIXTURE_NAMES,
    FacetChoice,
    ball_to_sphere,
    example_complexes,
    sigma_cross_polytope_map,
)
from flagsub.errors import (
    BaseNotSimplex,
    NotAFacet,
    NotASphere,
    NotFlag,
    UnknownFixture,
)
from flagsub.harness import GeneratorSpec, random_flag_sphere
from flagsub.homology import classify
from flagsub.polynomials import (
    IntPolynomial,
    gamma_vector,
    h_polynomial,
    one_plus_x_power,
)
from flagsub.serialize import subdivision_to_doc
from flagsub.subdivisions import (
    barycentric_subdivision,
    check_h_decomposition,
    edge_subdivision,
    trivial_subdivision,
)

DATA = pathlib.Path(__file__).parent / "data"


def hexagon():
    return from_facets(
        list("abcdef"),
        [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["f", "a"]],
    )


# -- the facet-anchored map onto the cross-polytope boundary ------------------


def test_sigma_map_identity_case():
    K = cross_polytope(3)
    s = sigma_cross_polytope_map(K, FacetChoice.of(["u1", "u2", "u3"]))
    assert all(
        sorted(K.names(E)) == sorted(s.base.names(c))
        for E, c in s.carrier.items()
    )


def test_sigma_map_hexagon():
    s = sigma_cross_polytope_map(hexagon(), FacetChoice.of(["a", "b"]), verify_sphere=True)
    v = s.validate()
    assert v.is_homology_subdivision
    assert v.is_quasi_geometric
    assert v.is_vertex_induced
    assert v.is_flag_subdivision
    chk = check_h_decomposition(s)
    assert chk.ok
    assert chk.gamma_lhs == IntPolynomial([1, 2])


def test_sigma_map_carrier_is_union_of_vertex_carriers():
    K, _ = random_flag_sphere(GeneratorSpec(3, 2, seed=3))
    facet = sorted(K.names(next(iter(K.facets))))
    s = sigma_cross_polytope_map(K, FacetChoice.of(facet))
    from flagsub.complexes import iter_bits

    for E in K.faces():
        union = 0
        for b in iter_bits(E):
            union |= s.carrier[1 << b]
        assert union == s.carrier[E]


def test_sigma_map_octahedron_with_subdivided_edge():
    K0 = cross_polytope(3)
    K = edge_subdivision(K0, K0.mask(["u1", "v2"])).total
    facet = sorted(K.names(next(iter(K.facets))))
    s = sigma_cross_polytope_map(K, FacetChoice.of(facet), verify_sphere=True)
    v = s.validate()
    assert v.is_homology_subdivision and v.is_vertex_induced
    chk = check_h_decomposition(s)
    assert chk.ok
    # explicit cross-check of the face sum with binomial link factors
    d = 3
    rhs = IntPolynomial()
    for F in s.base.faces():
        rhs = rhs + s.restriction(F).local_h() * one_plus_x_power(d - F.bit_count())
    assert h_polynomial(K) == rhs


def test_sigma_map_flag_sphere_h_dominates_binomials():
    for seed in (0, 1, 2):
        K, _ = random_flag_sphere(GeneratorSpec(3, seed % 3, seed=seed))
        d = K.dim + 1
        h = h_polynomial(K)
        binom = one_plus_x_power(d)
        assert all(h[i] >= binom[i] for i in range(d + 1))


def test_sigma_map_errors():
    hollow = from_facets(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
    with pytest.raises(NotFlag):
        sigma_cross_polytope_map(hollow, FacetChoice.of(["a", "b"]))
    K = cross_polytope(2)
    with pytest.raises(NotAFacet):
        sigma_cross_polytope_map(K, FacetChoice.of(["u1"]))
    path = from_facets(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    with pytest.raises(NotASphere):
        sigma_cross_polytope_map(path, FacetChoice.of(["a", "b"]), verify_sphere=True)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([("edge-subdivide",), ("edge-subdivide", "join-with-S0")]),
    st.integers(2, 4),
    st.integers(0, 12),
    st.integers(0, 10**6),
    st.data(),
)
def test_sigma_map_carriers_match_the_face_set_lookup(moves, dim, steps, seed, data):
    if len(moves) == 2:
        dim, steps = 2, steps % 5  # each join triples the face count
    K, _ = random_flag_sphere(GeneratorSpec(dim, steps, seed, moves))
    facet = data.draw(st.sampled_from(sorted(K.facets)))
    ordered = data.draw(st.permutations(K.names(facet)))
    s = sigma_cross_polytope_map(K, FacetChoice.of(ordered))
    assert list(s.carrier.items()) == list(literal_sigma_carrier(K, ordered).items())


def test_sigma_map_carriers_on_fixtures(monkeypatch):
    # The fixture totals are balls, which the map onto a sphere refuses
    # as not surjective, so the carriers are read as the map receives
    # them: at every facet of each flag total among the fixtures; the
    # others, and their ball_to_sphere extensions, are not flag.
    totals = []
    for name in FIXTURE_NAMES:
        s = example_complexes(name)
        totals += [s.total, ball_to_sphere(s).total]
    monkeypatch.setattr(constructions, "SubdivisionMap", lambda K, base, c: c)
    flag = 0
    for K in totals:
        for facet in sorted(K.facets):
            ordered = K.names(facet)
            if not K.is_flag():
                with pytest.raises(NotFlag):
                    sigma_cross_polytope_map(K, FacetChoice.of(ordered))
                continue
            flag += 1
            got = sigma_cross_polytope_map(K, FacetChoice.of(ordered))
            assert list(got.items()) == list(literal_sigma_carrier(K, ordered).items())
    assert flag


def test_sigma_map_refuses_a_complex_that_is_not_flag_first():
    # Not flag, not a sphere, and the choice is not a facet.
    K = from_facets(list("abcd"), [["a", "b"], ["a", "c"], ["b", "c"], ["c", "d"]])
    with pytest.raises(NotFlag):
        sigma_cross_polytope_map(K, FacetChoice.of(["a"]), verify_sphere=True)


# -- ball to sphere ------------------------------------------------------------


def test_ball_to_sphere_trivial_gives_cross_polytope():
    for d in (1, 2, 3):
        t = trivial_subdivision(simplex([f"p{i}" for i in range(d)]))
        D = ball_to_sphere(t)
        assert D.total == D.base
        assert D.total.f_vector() == cross_polytope(d).f_vector()
        assert all(E == c for E, c in D.carrier.items())


def test_ball_to_sphere_barycentric_triangle():
    b = barycentric_subdivision(["p", "q", "r"])
    D = ball_to_sphere(b, verify=True)
    assert D.total.is_flag()
    hc = classify(D.total)
    assert hc.is_sphere and hc.dimension == 2
    assert gamma_vector(D.total).to_list() == [1, 4]
    v = D.validate()
    assert v.is_homology_subdivision and v.is_vertex_induced
    assert v.is_flag_subdivision
    # gamma decomposes over the original simplex faces only
    v_mask = D.base.mask(["p", "q", "r"])
    xi_sum = IntPolynomial()
    for F in iter_submasks(v_mask):
        xi_sum = xi_sum + D.restriction(F).local_gamma().polynomial()
    assert xi_sum == IntPolynomial([1, 4])


def test_ball_to_sphere_restrictions():
    b = barycentric_subdivision(["p", "q", "r"])
    D = ball_to_sphere(b)
    v_mask = D.base.mask(["p", "q", "r"])
    # restriction over a face inside the original simplex is the input's
    for F in iter_submasks(v_mask):
        names = D.base.names(F)
        assert D.restriction(F) == b.restriction(b.base.mask(names))
    # restrictions meeting the fresh vertices are cones: zero local h
    for F in D.base.faces():
        if F & ~v_mask:
            assert not D.restriction(F).local_h()


def test_ball_to_sphere_requires_simplex_base():
    K = cross_polytope(2)
    with pytest.raises(BaseNotSimplex):
        ball_to_sphere(trivial_subdivision(K))


def test_ball_to_sphere_quasi_geometric_input_is_not_flag():
    D = ball_to_sphere(example_complexes("rem-4.5"))
    assert not D.total.is_flag()
    witnesses = [
        sorted(D.total.names(m))
        for m in D.total.minimal_non_faces()
        if m.bit_count() == 3
    ]
    assert witnesses == [["u1", "v2", "v3"]]


def test_ball_to_sphere_fresh_names_avoid_collisions():
    t = trivial_subdivision(simplex(["u1", "u2"]))
    D = ball_to_sphere(t)
    assert len(set(D.total.labels)) == 4


# -- bundled fixtures -----------------------------------------------------------


def test_fixture_local_h_values():
    assert example_complexes("ex-2.3a").local_h() == IntPolynomial([0, 0, -1])
    assert example_complexes("ex-2.3b").local_h() == IntPolynomial([0, 1, 0, 1])
    assert example_complexes("ex-2.3b").local_gamma().to_list() == [0, 1, -2]
    assert example_complexes("ex-2.3c").local_h() == IntPolynomial([0, 1, 0, 1])
    assert example_complexes("ex-2.3c").local_gamma().to_list() == [0, 1, -2]


def test_fixture_verdicts():
    va = example_complexes("ex-2.3a").validate()
    assert va.is_homology_subdivision and not va.is_quasi_geometric

    vb = example_complexes("ex-2.3b").validate()
    assert vb.is_homology_subdivision
    assert vb.is_quasi_geometric and not vb.is_vertex_induced
    assert not vb.is_flag_subdivision

    sc = example_complexes("ex-2.3c")
    vc = sc.validate()
    assert vc.is_homology_subdivision
    assert vc.is_quasi_geometric and not vc.is_vertex_induced
    assert sc.total.is_flag()
    assert not vc.is_flag_subdivision


def test_fixture_23a_restriction_is_cone_over_boundary():
    s = example_complexes("ex-2.3a")
    F = s.base.mask(["b", "c", "d"])
    r = s.restriction(F)
    assert r.total.f_vector() == (1, 4, 6, 3)
    assert not r.total.is_flag()
    assert set(r.total.labels) == {"b", "c", "d", "e"}


def test_fixture_23a_carrier_rules():
    s = example_complexes("ex-2.3a")
    t, b = s.total, s.base
    F_t, V_b = t.mask(["b", "c", "d"]), b.mask(["a", "b", "c", "d"])
    assert s.carrier[F_t] == V_b
    assert s.carrier[t.mask(["b", "c", "d", "e"])] == V_b
    assert s.carrier[t.mask(["e"])] == b.mask(["b", "c", "d"])
    assert s.carrier[t.mask(["a", "b"])] == b.mask(["a", "b"])


def test_fixture_23c_restriction_not_flag_with_empty_triangle():
    s = example_complexes("ex-2.3c")
    r = s.restriction(s.base.mask(["b", "c", "d"]))
    assert not r.total.is_flag()
    bad = [
        sorted(r.total.names(m))
        for m in r.total.minimal_non_faces()
        if m.bit_count() != 2
    ]
    assert bad == [["b", "c", "d"]]


def test_fixture_23c_carrier_pins():
    s = example_complexes("ex-2.3c")
    V = s.base.mask(["a", "b", "c", "d"])
    assert s.carrier[s.total.mask(["v"])] == V
    assert s.carrier[s.total.mask(["b", "c", "d"])] == V


def test_fixture_23c_matches_golden_file():
    golden = json.loads((DATA / "fixture_ex23c.json").read_text())
    doc = json.loads(
        json.dumps(subdivision_to_doc(example_complexes("ex-2.3c")), sort_keys=True)
    )
    assert doc == golden


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        example_complexes("nope")


# -- gamma doubling identity on 4-dimensional instances -------------------------


def test_gamma2_doubling_on_d5_instances():
    for seed, steps in ((0, 0), (1, 1), (2, 2)):
        K, _ = random_flag_sphere(GeneratorSpec(5, steps, seed=seed))
        g = gamma_vector(K)
        total = 0
        for v in (f for f in K.faces() if f.bit_count() == 1):
            link = K.link(v)
            total += gamma_vector(link).coeffs[2]
        assert 2 * g.coeffs[2] == total
