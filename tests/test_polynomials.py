import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagsub.complexes import cross_polytope, cross_polytope_on, from_facets, simplex
from flagsub.errors import InteriorNotSubset
from flagsub.harness import (
    GeneratorSpec,
    random_flag_sphere,
    random_simplex_subdivision,
    random_sphere_pair,
)
from flagsub.homology import classify, interior_faces
from flagsub.polynomials import (
    GammaVector,
    IntPolynomial,
    SymmetryFailure,
    gamma_from_symmetric,
    gamma_vector,
    h_polynomial,
    interior_h_polynomial,
    is_eulerian,
    one_plus_x_power,
    reduced_euler_characteristic,
)
from flagsub.subdivisions import barycentric_subdivision

from conftest import literal_is_eulerian, oracle_gamma_from_symmetric, sympy_h


def test_polynomial_arithmetic_basics():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert (p + IntPolynomial([0, -2])) == IntPolynomial([1])
    assert p * 3 == IntPolynomial([3, 6])
    assert (p * p) == IntPolynomial([1, 4, 4])
    assert p(10) == 21
    assert not IntPolynomial([0])
    assert str(IntPolynomial([0, 1, -2])) == "x - 2*x^2"


def test_reflection():
    p = IntPolynomial([1, 4, 1])
    assert p.reflect(2) == p
    assert IntPolynomial([1, 1]).reflect(3) == IntPolynomial([0, 0, 1, 1])
    with pytest.raises(ValueError):
        p.reflect(1)


def test_h_polynomial_fixtures():
    octa = cross_polytope(3)
    assert h_polynomial(octa) == one_plus_x_power(3)
    assert h_polynomial(simplex(["a", "b", "c"])) == IntPolynomial([1])
    path = from_facets(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert h_polynomial(path) == IntPolynomial([1, 1])
    bottom = from_facets(["a"], [])
    assert h_polynomial(bottom) == IntPolynomial([1])


def test_h_polynomial_against_symbolic_face_sum():
    rng = random.Random(5)
    for _ in range(12):
        labels = [f"q{i}" for i in range(rng.randint(1, 6))]
        gens = [
            rng.sample(labels, rng.randint(1, len(labels)))
            for _ in range(rng.randint(1, 4))
        ]
        K = from_facets(labels, gens)
        d = K.dim + 1
        cards = [f.bit_count() for f in K.faces()]
        assert h_polynomial(K).padded(d) == tuple(sympy_h(cards, d))


def test_h_contract_values():
    K = cross_polytope(3)
    h = h_polynomial(K)
    d = K.dim + 1
    assert h[0] == 1
    assert h(1) == K.f_vector()[-1]
    assert (-1) ** (d - 1) * h[d] == reduced_euler_characteristic(K)


def test_interior_h_single_edge():
    K = simplex(["a", "b"])
    interior = {K.mask(["a", "b"])}
    assert interior_h_polynomial(K, interior) == IntPolynomial([0, 0, 1])


def test_interior_h_rejects_non_faces():
    K = simplex(["a", "b"])
    with pytest.raises(InteriorNotSubset):
        interior_h_polynomial(K, {0b1000})


def test_interior_h_sphere_reciprocity():
    K = cross_polytope(3)
    h = h_polynomial(K)
    assert h.reflect(3) == interior_h_polynomial(K, K.face_set)


def test_interior_h_barycentric_ball_reciprocity():
    s = barycentric_subdivision(["a", "b", "c"])
    K = s.total
    hc = classify(K)
    assert hc.is_ball
    h = h_polynomial(K)
    assert h.reflect(3) == interior_h_polynomial(K, interior_faces(K, hc))


def test_is_eulerian():
    assert is_eulerian(cross_polytope(2))
    assert not is_eulerian(simplex(["a", "b", "c"]))
    assert is_eulerian(cross_polytope(4))


def two_octahedra_glued_at_antipodes():
    """Eulerian without being a manifold: the links of the two shared
    vertices are two disjoint circles each, whose reduced Euler
    characteristic is that of one circle."""
    facets = []
    for us, vs in ((["u1", "u2", "u3"], ["v1", "v2", "v3"]),
                   (["u1", "x2", "x3"], ["v1", "y2", "y3"])):
        octahedron = cross_polytope_on(us, vs)
        facets += [octahedron.names(f) for f in octahedron.facets]
    labels = ["u1", "u2", "u3", "v1", "v2", "v3", "x2", "x3", "y2", "y3"]
    return from_facets(labels, facets)


def test_is_eulerian_matches_literal_link_rule():
    rng = random.Random(3)
    complexes = [
        simplex(["a", "b", "c"]),
        simplex(["a"]),
        from_facets(["a"], []),
        from_facets(["a", "b", "c", "d"], [["a", "b", "c"], ["c", "d"]]),
        cross_polytope(1),
        cross_polytope(3),
        random_flag_sphere(GeneratorSpec(3, 4, 2))[0],
        random_sphere_pair(3, 1, 2, 5).base,
        barycentric_subdivision(["a", "b", "c"]).total,
        two_octahedra_glued_at_antipodes(),
    ]
    complexes += [
        random_simplex_subdivision(("p", "q", "r", "s")[:d], 2, seed).total
        for seed, d in enumerate((2, 3, 4))
    ]
    complexes += [
        from_facets("abcdef", [rng.sample("abcdef", rng.randint(1, 4)) for _ in range(5)])
        for _ in range(12)
    ]
    verdicts = [is_eulerian(K) for K in complexes]
    assert verdicts == [literal_is_eulerian(K) for K in complexes]
    assert True in verdicts and False in verdicts


def test_dehn_sommerville_for_eulerian_instances():
    for d in (1, 2, 3, 4):
        K = cross_polytope(d)
        assert is_eulerian(K)
        h = h_polynomial(K)
        assert h.is_symmetric(d)


def test_gamma_fixtures():
    g = gamma_from_symmetric(IntPolynomial([1, 3, 3, 1]), 3)
    assert isinstance(g, GammaVector) and g.coeffs == (1, 0)
    g = gamma_from_symmetric(IntPolynomial([1, 4, 4, 1]), 3)
    assert g.coeffs == (1, 1)
    bad = gamma_from_symmetric(IntPolynomial([1, 1, 0]), 2)
    assert isinstance(bad, SymmetryFailure)
    assert (bad.i, bad.j) == (0, 2)
    assert (bad.left, bad.right) == (1, 0)


def test_gamma_uses_explicit_center_not_degree():
    # degree 2 but symmetric about 4/2
    h = IntPolynomial([0, 1, 0, 1])  # not symmetric for d=3 at (0,3)
    res = gamma_from_symmetric(h, 3)
    assert isinstance(res, SymmetryFailure)
    h2 = IntPolynomial([0, 1, 1])  # x + x^2, wrt d = 3
    g = gamma_from_symmetric(h2, 3)
    assert g.coeffs == (0, 1)


def test_gamma_degree_precondition():
    with pytest.raises(ValueError):
        gamma_from_symmetric(IntPolynomial([1, 1, 1, 1]), 2)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=6),
)
def test_gamma_round_trip(d_half, gammas):
    gammas = gammas[: d_half // 2 + 1]
    g = GammaVector(d_half, tuple(gammas) + (0,) * (d_half // 2 + 1 - len(gammas)))
    h = g.expand()
    assert h.is_symmetric(d_half)
    back = gamma_from_symmetric(h, d_half)
    assert isinstance(back, GammaVector)
    assert back.coeffs == g.coeffs


@settings(max_examples=100)
@given(st.lists(st.integers(min_value=-(10**6), max_value=10**6), min_size=1, max_size=5))
def test_symmetrized_polynomial_always_extracts(cs):
    # mirror the coefficients to force symmetry, then round-trip
    coeffs = cs + cs[::-1]
    d = len(coeffs) - 1
    h = IntPolynomial(coeffs)
    g = gamma_from_symmetric(h, d)
    assert isinstance(g, GammaVector)
    assert g.expand() == h


@st.composite
def _centred_polynomials(draw):
    """A width d and up to d + 1 coefficients, mirrored about d/2 or
    not; the trailing ones may be zero, so the degree may be below d."""
    d = draw(st.integers(-1, 9))
    cs = draw(st.lists(st.integers(-50, 50), max_size=d + 1))
    if draw(st.booleans()):
        cs += [0] * (d + 1 - len(cs))
        cs = cs[: d // 2 + 1] + cs[: (d + 1) // 2][::-1]
    return IntPolynomial(cs), d


@settings(max_examples=300)
@given(_centred_polynomials())
@example((IntPolynomial(), 0))
@example((IntPolynomial([3]), 0))
@example((IntPolynomial([2, 2]), 1))
@example((IntPolynomial([2, 3]), 1))
@example((IntPolynomial([0, 1]), 3))
def test_gamma_matches_the_polynomial_elimination(case):
    # Equal results, down to the first violated pair and its
    # coefficients when h is not symmetric.
    h, d = case
    assert gamma_from_symmetric(h, d) == oracle_gamma_from_symmetric(h, d)


@settings(max_examples=100)
@given(
    st.integers(-2, 8),
    st.lists(st.integers(-50, 50), max_size=3),
    st.integers(1, 50),
)
def test_gamma_refuses_a_degree_above_d(d, middle, top):
    h = IntPolynomial([0] * (d + 1) + middle + [top])
    with pytest.raises(ValueError) as got:
        gamma_from_symmetric(h, d)
    with pytest.raises(ValueError) as want:
        oracle_gamma_from_symmetric(h, d)
    assert str(got.value) == str(want.value)


def test_gamma_of_sphere_with_subdivided_edge():
    from flagsub.subdivisions import edge_subdivision

    K = cross_polytope(3)
    edge = next(f for f in K.faces() if f.bit_count() == 2)
    K7 = edge_subdivision(K, edge).total
    assert K7.f_vector()[1] == 7
    g = gamma_vector(K7)
    assert g.to_list() == [1, 1]


def test_gamma_one_relation_for_small_flag_spheres():
    # gamma_1 = f_0 - 2d (so f_0 - 8 and f_0 - 10), pinned for d = 4, 5
    from flagsub.harness import GeneratorSpec, random_flag_sphere

    for d in (4, 5):
        for steps in (0, 1, 2):
            K, _ = random_flag_sphere(GeneratorSpec(d, steps, seed=d + steps))
            assert is_eulerian(K)
            g = gamma_vector(K)
            assert isinstance(g, GammaVector)
            assert g.coeffs[1] == K.f_vector()[1] - 2 * d
