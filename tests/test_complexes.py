import json
import random
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flagsub.cli import main
from flagsub.complexes import (
    SimplicialComplex,
    adjacency,
    card_offsets,
    clique_count,
    cross_polytope,
    cross_polytope_on,
    face_counts,
    from_facets,
    iter_bits,
    iter_submasks,
    link_table,
    simplex,
    sphere_zero,
)
from flagsub.constructions import FIXTURE_NAMES, ball_to_sphere, example_complexes
from flagsub.errors import (
    GroundSetOverlap,
    NotAFace,
    UnknownVertex,
)

from flagsub.harness import (
    EDGE_SUBDIVIDE,
    JOIN_WITH_S0,
    GeneratorSpec,
    random_flag_sphere,
)
from flagsub.serialize import complex_from_doc, complex_to_doc

from conftest import brute_downward_closed, literal_complex, literal_is_flag


def masks_to_names(K, masks):
    return sorted(sorted(K.names(m)) for m in masks)


def test_from_facets_path_graph():
    K = from_facets(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert K.num_faces() == 6
    assert masks_to_names(K, K.facets) == [["a", "b"], ["b", "c"]]
    assert K.f_vector() == (1, 3, 2)
    assert brute_downward_closed(K)


def test_from_facets_drops_dominated_generators():
    K = from_facets(["a", "b"], [["a", "b"], ["a"]])
    assert masks_to_names(K, K.facets) == [["a", "b"]]


def test_from_facets_unknown_vertex():
    with pytest.raises(UnknownVertex, match="unknown vertex 'x'"):
        from_facets(["a"], [["a", "x"]])
    # Repeated labels are refused before any name is looked up.
    with pytest.raises(UnknownVertex, match="labels must be distinct"):
        from_facets(["a", "a"], [["x"]])


def test_from_facets_has_no_width_limit():
    # Faces are unbounded integers: 100 labels build, and the complex
    # reads back from its own document.
    labels = [f"t{i}" for i in range(100)]
    cycle = [[labels[i], labels[(i + 1) % 100]] for i in range(100)]
    K = from_facets(labels, cycle + [["t97", "t98", "t99"]])
    assert K.f_vector() == (1, 100, 101, 1)
    assert max(K.facets).bit_length() == 100
    L = complex_from_doc(json.loads(json.dumps(complex_to_doc(K))))
    assert L == K and L.labels == K.labels


def test_empty_complex_is_representable():
    K = from_facets(["a", "b"], [])
    assert K.faces() == (0,)
    assert K.f_vector() == (1,)
    assert K.dim == -1


def test_full_simplex_f_vector():
    K = simplex(["a", "b", "c"])
    assert K.f_vector() == (1, 3, 3, 1)


def test_octahedron_f_vector_against_enumeration():
    K = cross_polytope(3)
    # oracle: subsets of the six labels meeting each antipodal pair at
    # most once
    pairs = [(0, 3), (1, 4), (2, 5)]
    count_by_card = [0, 0, 0, 0]
    for m in range(64):
        if all(((m >> u) & 1) + ((m >> v) & 1) <= 1 for u, v in pairs):
            count_by_card[m.bit_count()] += 1
    assert tuple(count_by_card) == (1, 6, 12, 8)
    assert K.f_vector() == (1, 6, 12, 8)


def test_face_order_is_deterministic():
    K = cross_polytope(2)
    faces = K.faces()
    cards = [f.bit_count() for f in faces]
    assert cards == sorted(cards)
    assert faces == tuple(sorted(faces, key=lambda m: (m.bit_count(), m)))


def test_link_of_vertex_in_octahedron_is_square():
    K = cross_polytope(3)
    L = K.link(K.mask(["u1"]))
    assert L.f_vector() == (1, 4, 4)
    assert L.is_flag()
    # v1 remains in the ground set but is not a vertex of the link
    assert "v1" in L.labels
    assert not L.has_face(L.mask(["v1"]))


def test_link_of_empty_face_is_identity():
    K = from_facets(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert K.link(0) == K


def test_link_of_facet_is_bottom():
    K = simplex(["a", "b", "c"])
    L = K.link(K.mask(["a", "b", "c"]))
    assert L.faces() == (0,)


def test_link_rejects_non_face():
    K = from_facets(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(NotAFace):
        K.link(K.mask(["a", "c"]))


def test_link_of_link_is_link_of_union():
    K = cross_polytope(3)
    L1 = K.link(K.mask(["u1"]))
    L2 = L1.link(L1.mask(["u2"]))
    assert L2 == K.link(K.mask(["u1", "u2"]))


def test_stars():
    K = cross_polytope(2)
    v = K.mask(["u1"])
    star = K.open_star(v)
    assert v in star and 0 not in star
    closed = K.closed_star(v)
    assert closed.face_set == frozenset(
        m for f in star for m in iter_submasks(f)
    )


def test_join_of_point_spheres_is_square():
    J = sphere_zero("a", "b").join(sphere_zero("c", "d"))
    assert J.f_vector() == (1, 4, 4)
    assert J.is_flag()


def test_join_identity_and_overlap():
    K = from_facets(["a", "b"], [["a", "b"]])
    bottom = from_facets(["z"], [])
    assert K.join(bottom).f_vector() == K.f_vector()
    with pytest.raises(GroundSetOverlap):
        K.join(from_facets(["b", "c"], [["b", "c"]]))


def test_cone_over_hollow_triangle():
    boundary = from_facets(
        ["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]]
    )
    C = boundary.cone("apex")
    assert C.f_vector() == (1, 4, 6, 3)


def test_join_f_polynomial_multiplies():
    rng = random.Random(42)
    for trial in range(10):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        K1 = _random_complex(rng, [f"a{i}" for i in range(n1 + 1)])
        K2 = _random_complex(rng, [f"b{i}" for i in range(n2 + 1)])
        J = K1.join(K2)
        f1, f2, fj = K1.f_vector(), K2.f_vector(), J.f_vector()
        prod = [0] * (len(f1) + len(f2) - 1)
        for i, a in enumerate(f1):
            for j, b in enumerate(f2):
                prod[i + j] += a * b
        assert list(fj) == prod[: len(fj)]
        assert J.is_flag() == (K1.is_flag() and K2.is_flag())


def _random_complex(rng, labels):
    gens = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(1, len(labels))
        gens.append(rng.sample(labels, k))
    return from_facets(labels, gens)


def test_join_associative_up_to_relabeling():
    rng = random.Random(13)
    A = _random_complex(rng, ["a0", "a1", "a2"])
    B = _random_complex(rng, ["b0", "b1"])
    C = _random_complex(rng, ["c0", "c1", "c2"])
    left = A.join(B).join(C)
    right = A.join(B.join(C))
    assert left.f_vector() == right.f_vector()
    assert {frozenset(left.names(f)) for f in left.facets} == {
        frozenset(right.names(f)) for f in right.facets
    }


def test_minimal_non_faces_hollow_triangle():
    K = from_facets(["a", "b", "c"], [["a", "b"], ["a", "c"], ["b", "c"]])
    assert masks_to_names(K, K.minimal_non_faces()) == [["a", "b", "c"]]
    assert not K.is_flag()


def test_minimal_non_faces_square():
    K = cross_polytope(2)
    assert masks_to_names(K, K.minimal_non_faces()) == [
        ["u1", "v1"],
        ["u2", "v2"],
    ]
    assert K.is_flag()


def _assert_is_flag_by_minimal_non_faces(make):
    # `make` builds a fresh complex; `is_flag` must agree with the
    # minimal non-faces before and after they are listed.
    want = all(m.bit_count() == 2 for m in make().minimal_non_faces())
    K = make()
    assert K.is_flag() == want
    K.minimal_non_faces()
    assert K.is_flag() == want


@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12)
        )
    )
)
@example((0, []))  # {empty}
@example((3, []))  # {empty} on labels that are no vertices
@example((2, [1, 2]))  # two isolated vertices
@example((5, [1, 4, 6]))  # an isolated vertex, an edge, two unused labels
@example((3, [3, 5, 6]))  # the hollow triangle
@example((6, [7, 56, 1 | 8]))  # two triangles and an edge: flag
def test_is_flag_matches_minimal_non_faces(case):
    n, gens = case
    labels = [f"w{i}" for i in range(n)]
    _assert_is_flag_by_minimal_non_faces(lambda: SimplicialComplex(labels, gens))


def test_is_flag_matches_minimal_non_faces_on_fixtures():
    def restricted(name, face):
        s = example_complexes(name)
        return s.restriction(s.base.mask(face)).total

    makers = [
        lambda: ball_to_sphere(example_complexes("rem-4.5")).total,
        lambda: restricted("ex-2.3a", ["b", "c", "d"]),
        lambda: restricted("ex-2.3c", ["b", "c", "d"]),
    ]
    makers += [lambda n=n: example_complexes(n).total for n in FIXTURE_NAMES]
    for make in makers:
        _assert_is_flag_by_minimal_non_faces(make)
    assert not any(make().is_flag() for make in makers[:3])


def _brute_cliques(K, within):
    """Every subset of ``within`` whose vertex pairs are all edges of K,
    the empty one included."""
    return [
        m
        for m in iter_submasks(within)
        if all(
            K.has_face(1 << i | 1 << j)
            for i in iter_bits(m)
            for j in iter_bits(m)
            if i < j
        )
    ]


@given(
    st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2),
            st.lists(st.integers(0, (1 << n) - 1), max_size=12),
            st.integers(0, (1 << n) - 1),
            st.integers(0, 40),
        )
    )
)
@example((0, 0, [], 0, 0))  # {empty}
@example((0, 2, [], 0, 1))  # {empty} on labels that are no vertices
@example((3, 0, [3, 5, 6], 7, 7))  # the hollow triangle: 8 cliques, 7 faces
@example((5, 1, [7, 24, 3], 31, 40))  # impure: a triangle and an edge
@example((7, 0, [127], 127, 127))  # the 6-simplex: 128 cliques, cap 127
def test_is_flag_and_clique_count_match_brute_force(case):
    # Labels past the n drawn occur in no face.
    n, unused, gens, within, limit = case
    K = SimplicialComplex([f"w{i}" for i in range(n + unused)], gens)
    cliques = _brute_cliques(K, K.vertex_support)
    assert K.is_flag() == all(K.has_face(m) for m in cliques)
    want = len(_brute_cliques(K, within))
    got = clique_count(adjacency(K), within, limit)
    assert got == (want if want <= limit else limit + 1)


def test_is_flag_matches_the_face_walk():
    specs = [GeneratorSpec(d, steps, 0) for d in (2, 3, 4) for steps in (0, 5, 20)]
    specs += [
        GeneratorSpec(d, steps, 0, (EDGE_SUBDIVIDE, JOIN_WITH_S0))
        for d in (2, 3)
        for steps in (1, 4, 6)
    ]
    totals = [random_flag_sphere(spec)[0] for spec in specs]
    for name in FIXTURE_NAMES:
        s = example_complexes(name)
        totals += [s.total, ball_to_sphere(s).total]
    flags = [K.is_flag() for K in totals]
    assert flags == [literal_is_flag(K) for K in totals]
    # The generated spheres are flag; ex-2.3b and every extension by
    # `ball_to_sphere`, that of rem-4.5 included, are not.
    assert all(flags[: len(specs)])
    assert flags[len(specs) :] == [True, False, False, False, True, False, True, False]


def _skeleton_of_39_simplex():
    labels = [f"w{i}" for i in range(40)]
    return SimplicialComplex(
        labels, [1 << i | 1 << j for i in range(40) for j in range(i)]
    )


def test_clique_count_on_a_huge_clique_is_capped_without_recursion():
    n = 1100
    full = (1 << n) - 1
    adj = [full ^ (1 << i) for i in range(n)]
    assert clique_count(adj, full, 5000) == 5001


def test_is_flag_on_the_skeleton_of_a_large_simplex():
    # 2**40 cliques against 821 faces: the count stops at 822.
    K = _skeleton_of_39_simplex()
    assert K.num_faces() == 821
    assert not K.is_flag()


def test_sigma_map_refuses_the_skeleton_of_a_large_simplex(capsys, tmp_path):
    path = tmp_path / "skeleton.json"
    path.write_text(json.dumps(complex_to_doc(_skeleton_of_39_simplex())))
    assert main(["sigma-map", str(path), "--facet", "w0,w1"]) == 3
    err = capsys.readouterr().err
    assert "not flag" in err
    assert "Traceback" not in err


def test_full_simplex_is_flag():
    assert simplex(["a", "b", "c"]).is_flag()
    assert simplex(["a", "b", "c"]).minimal_non_faces() == ()


def test_cross_polytope_matches_iterated_join():
    for d in (1, 2, 3, 4):
        K = cross_polytope(d)
        J = sphere_zero("u1", "v1")
        for i in range(2, d + 1):
            J = J.join(sphere_zero(f"u{i}", f"v{i}"))
        assert K.f_vector() == J.f_vector()
        assert K.is_flag() and J.is_flag()
        assert len(K.facets) == 2**d


def test_cross_polytope_small_cases():
    assert cross_polytope(1).f_vector() == (1, 2)
    assert cross_polytope(2).f_vector() == (1, 4, 4)
    with pytest.raises(ValueError):
        cross_polytope(0)


def test_downward_closure_of_random_complexes():
    rng = random.Random(7)
    for _ in range(20):
        K = _random_complex(rng, [f"w{i}" for i in range(rng.randint(2, 7))])
        assert brute_downward_closed(K)
        # facets form an antichain
        for f in K.facets:
            assert not any(g != f and f & g == f for g in K.facets)


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=12)
        )
    )
)
@example((0, []))
@example((0, [0]))
@example((3, [7, 7, 3, 1, 0]))
@example((4, [3, 5, 3, 6, 12, 9, 1]))
def test_construction_matches_literal_oracle(case):
    # Random generator lists: duplicates, dominated generators, the
    # empty list and [0] all occur.
    n, gens = case
    labels = [f"w{i}" for i in range(n)]
    K = SimplicialComplex(labels, gens)
    facets, faces = literal_complex(gens)
    assert K.facets == facets
    assert K.faces() == faces
    assert K.face_set == frozenset(faces)
    at = card_offsets(K.faces(), K.dim + 1)
    assert at[-1] == K.num_faces()
    for k in range(K.dim + 2):
        assert all(f.bit_count() == k for f in K.faces()[at[k] : at[k + 1]])


@given(
    st.integers(0, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=16),
            st.lists(st.integers(0, (1 << n) - 1), max_size=4),
        )
    )
)
@example((0, [], [0]))  # {empty}
@example((0, [0], []))
@example((4, [7, 11, 13, 14, 3, 1], [15]))  # hollow tetrahedron, dominated
@example((5, [7, 24, 3, 0], [31, 16]))  # impure: a triangle and an edge
@example((6, [21, 22, 25, 26, 37, 38, 41, 42], []))  # octahedron: shared ridges
def test_names_and_construction_match_literal_forms(case):
    # Each facet adds only the submasks its faces seen so far lack, so
    # generators that share ridges, repeat or are dominated all occur.
    n, gens, masks = case
    K = SimplicialComplex([str(9 - i) for i in range(n)], gens)
    facets, faces = literal_complex(gens)
    assert K.facets == facets
    assert K.faces() == faces
    for m in (*faces, *masks):
        assert K.names(m) == tuple(K.labels[i] for i in iter_bits(m))


def test_construction_matches_literal_on_shuffled_facets():
    rng = random.Random(3)
    for K in (cross_polytope(4), ball_to_sphere(example_complexes("ex-2.3c")).total):
        for _ in range(5):
            gens = list(K.facets) + rng.sample(K.faces(), 10)
            rng.shuffle(gens)
            facets, faces = literal_complex(gens)
            L = SimplicialComplex(K.labels, gens)
            assert L.facets == facets == K.facets
            assert L.faces() == faces == K.faces()


@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 2),
            st.lists(st.integers(0, (1 << n) - 1), max_size=8),
        )
    )
)
@example((0, 0, []))
@example((0, 2, [0]))
@example((4, 1, [7, 8]))
@example((5, 0, [31, 7, 24, 2]))
def test_face_counts_match_a_counter_by_cardinality(case):
    # {∅}, impure complexes and labels that occur in no face all occur.
    n, unused, gens = case
    K = SimplicialComplex([f"w{i}" for i in range(n + unused)], gens)

    def by_card(faces):
        counts = Counter(f.bit_count() for f in faces)
        return [counts[k] for k in range(max(counts) + 1)]

    assert K.f_vector() == tuple(by_card(K.faces()))
    for faces in [K.faces(), *link_table(K).values()]:
        assert face_counts(faces) == by_card(faces)


def test_equality_is_labels_plus_facets():
    K1 = from_facets(["a", "b"], [["a", "b"]])
    K2 = from_facets(["a", "b"], [["a", "b"]])
    K3 = from_facets(["b", "a"], [["a", "b"]])
    assert K1 == K2 and hash(K1) == hash(K2)
    assert K1 != K3


def test_cross_polytope_on_custom_labels():
    K = cross_polytope_on(["p", "q"], ["P", "Q"])
    assert K.f_vector() == (1, 4, 4)
    assert not K.has_face(K.mask(["p", "P"]))


def _closure_cross_polytope(us, vs) -> SimplicialComplex:
    """The cross-polytope boundary as the closure of its 2**d facets."""
    d = len(us)
    facets = [
        [vs[i] if pick >> i & 1 else us[i] for i in range(d)] for pick in range(1 << d)
    ]
    return from_facets(tuple(us) + tuple(vs), facets)


@pytest.mark.parametrize(
    "us, vs",
    [
        ([f"u{i}" for i in range(1, d + 1)], [f"v{i}" for i in range(1, d + 1)])
        for d in range(1, 9)
    ]
    + [(["p", "q"], ["P", "Q"])],
)
def test_cross_polytope_on_equals_the_closure_oracle(us, vs):
    K, want = cross_polytope_on(us, vs), _closure_cross_polytope(us, vs)
    assert K.labels == want.labels
    assert K.faces() == want.faces()
    assert K.facets == want.facets
    assert K.num_faces() == 3 ** len(us)


def test_cross_polytope_on_refuses_labels_shared_between_sides():
    for us, vs in ((["a", "b"], ["b", "c"]), (["a"], ["a"]), (["a", "a"], ["b", "c"])):
        with pytest.raises(UnknownVertex):
            cross_polytope_on(us, vs)
