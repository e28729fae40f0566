import argparse
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagsub import homology
from flagsub.cli import _suite_instances
from flagsub.complexes import (
    SimplicialComplex,
    cross_polytope,
    from_facets,
    link_table,
    simplex,
    sphere_zero,
)
from flagsub.constructions import FIXTURE_NAMES, example_complexes
from flagsub.harness import (
    CHECKS,
    CheckResult,
    Instance,
    _check_field_agreement,
    random_simplex_subdivision,
    run_conjecture_suite,
)
from flagsub.homology import (
    GF2,
    MAX_CHAR,
    QQ,
    FieldSpec,
    _rank,
    classify,
    interior_faces,
    reduced_betti,
)
from flagsub.polynomials import h_polynomial, interior_h_polynomial

from conftest import literal_classify, sympy_reduced_betti


def test_field_spec():
    assert str(GF2) == "GF(2)"
    assert str(QQ) == "Q"
    assert str(FieldSpec.gf(5)) == "GF(5)"
    for p in (6, 0, 1, -3, MAX_CHAR + 1, 10**40 + 57):
        with pytest.raises(ValueError):
            FieldSpec.gf(p)
    assert FieldSpec.gf(MAX_CHAR).char == 2**31 - 1


def test_octahedron_betti():
    K = cross_polytope(3)
    for spec in (GF2, QQ, FieldSpec.gf(3)):
        assert reduced_betti(K, spec).values == (0, 0, 0, 1)


def test_cone_is_acyclic():
    rng = random.Random(3)
    for _ in range(8):
        labels = [f"c{i}" for i in range(rng.randint(1, 5))]
        gens = [
            rng.sample(labels, rng.randint(1, len(labels)))
            for _ in range(rng.randint(1, 3))
        ]
        C = from_facets(labels, gens).cone("apex")
        assert reduced_betti(C).is_zero()
        assert reduced_betti(C, QQ).is_zero()


def test_two_points_betti():
    assert reduced_betti(sphere_zero("a", "b")).values == (0, 1)


def test_bottom_complex_betti():
    K = from_facets(["a"], [])
    assert reduced_betti(K).values == (1,)
    assert classify(K).is_sphere and classify(K).dimension == -1


def test_betti_matches_sympy_oracle_on_random_complexes():
    rng = random.Random(11)
    for _ in range(10):
        labels = [f"r{i}" for i in range(rng.randint(2, 6))]
        gens = [
            rng.sample(labels, rng.randint(1, len(labels)))
            for _ in range(rng.randint(1, 5))
        ]
        K = from_facets(labels, gens)
        for char in (2, 3, 5, 0):
            got = reduced_betti(K, FieldSpec(char)).values
            assert list(got) == sympy_reduced_betti(K, char)


def test_rank_with_non_unit_pivots():
    # [[2, 4, 0], [6, 3, 9]]: the first two columns have determinant
    # -18 = -2 * 3**2, and the third is twice the first minus the second.
    columns = [{0: 2, 1: 6}, {0: 4, 1: 3}, {1: 9}]
    for p, rank in ((0, 2), (3, 1), (5, 2)):
        assert _rank([dict(c) for c in columns], p) == rank


def test_link_evidence_matches_sympy_oracle():
    sphere = cross_polytope(3)
    ball = from_facets(
        ["a", "b", "c", "d", "e"], [["a", "b", "c"], ["a", "c", "d"], ["a", "d", "e"]]
    )
    for K, kind in ((sphere, "sphere"), (ball, "ball")):
        for spec in (GF2, QQ):
            hc = classify(K, spec)
            assert hc.kind == kind
            assert list(hc.betti.values) == sympy_reduced_betti(K, spec.char)
            assert list(hc.evidence) == list(K.faces())
            for f, b in hc.evidence.items():
                assert list(b.values) == sympy_reduced_betti(K.link(f), spec.char)


def projective_plane():
    """The six-vertex real projective plane: GF(2) sees homology, Q and
    GF(3) do not."""
    facets = [
        [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
    ]
    return from_facets([str(i) for i in range(1, 7)], [[str(v) for v in f] for f in facets])


def test_projective_plane_distinguishes_fields():
    K = projective_plane()
    assert reduced_betti(K, GF2).values == (0, 0, 1, 1)
    assert reduced_betti(K, QQ).values == (0, 0, 0, 0)
    assert reduced_betti(K, FieldSpec.gf(3)).values == (0, 0, 0, 0)
    assert classify(K, QQ).kind == "other"
    assert classify(K, GF2).kind == "other"


def test_classify_simplex_is_ball_with_hollow_boundary():
    K = simplex(["a", "b", "c"])
    hc = classify(K)
    assert hc.is_ball and hc.dimension == 2
    assert sorted(
        sorted(hc.boundary.names(f)) for f in hc.boundary.facets
    ) == [["a", "b"], ["a", "c"], ["b", "c"]]
    assert interior_faces(K, hc) == {K.mask(["a", "b", "c"])}


def test_classify_cross_polytopes_both_fields():
    for d in (1, 2, 3, 4):
        K = cross_polytope(d)
        for spec in (GF2, QQ):
            hc = classify(K, spec)
            assert hc.is_sphere and hc.dimension == d - 1


def test_classify_two_disjoint_edges_is_other():
    K = from_facets(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])
    assert classify(K).kind == "other"


def test_classify_non_pure_is_other():
    K = from_facets(["a", "b", "c", "d"], [["a", "b", "c"], ["c", "d"]])
    assert classify(K).kind == "other"


def test_classify_single_point():
    K = from_facets(["p"], [["p"]])
    hc = classify(K)
    assert hc.is_ball and hc.dimension == 0
    assert hc.boundary.faces() == (0,)
    assert interior_faces(K, hc) == {K.mask(["p"])}


def test_classify_with_evidence():
    K = cross_polytope(2)
    hc = classify(K)
    assert hc.evidence is not None
    assert hc.evidence[0].values == (0, 0, 1)


def test_join_verdicts_compose():
    ball = simplex(["a", "b"])  # 1-ball
    sphere = sphere_zero("p", "q")  # 0-sphere
    cases = [
        (sphere.join(sphere_zero("r", "s")), "sphere"),
        (sphere.join(ball), "ball"),
        (ball.join(simplex(["c"])), "ball"),
    ]
    for K, expected in cases:
        assert classify(K).kind == expected


def test_join_interior_multiplies():
    ball = simplex(["a", "b"])
    sphere = sphere_zero("p", "q")
    J = sphere.join(ball)
    hc = classify(J)
    got = interior_faces(J, hc)
    shift = 2
    want = {
        f1 | (f2 << shift)
        for f1 in sphere.face_set
        for f2 in interior_faces(ball, classify(ball))
    }
    assert got == want


def test_sphere_minus_ball_interior_is_ball():
    # complement of the interior of a closed star inside a sphere
    K = cross_polytope(3)
    star = K.closed_star(K.mask(["u1"]))
    star_hc = classify(star)
    assert star_hc.is_ball
    complement_faces = K.face_set - (star.face_set - star_hc.boundary.face_set)
    from flagsub.complexes import from_faces

    C = from_faces(K.labels, complement_faces)
    hc = classify(C)
    assert hc.is_ball and hc.dimension == 2
    assert hc.boundary == star_hc.boundary


def test_star_union_is_ball_with_open_star_interior():
    K = cross_polytope(3)
    F = K.mask(["u1", "v2"])
    assert K.has_face(F)
    from flagsub.complexes import from_faces, iter_bits

    vs = [1 << b for b in iter_bits(F)]
    union_facets = [g for g in K.facets if any(g & v for v in vs)]
    U = from_faces(K.labels, union_facets)
    hc = classify(U)
    assert hc.is_ball and hc.dimension == 2
    open_union = {f for f in U.face_set if any(f & v for v in vs)}
    assert interior_faces(U, hc) == open_union


def test_ball_reciprocity():
    K = simplex(["a", "b", "c", "d"])
    hc = classify(K)
    h = h_polynomial(K)
    assert h.reflect(4) == interior_h_polynomial(K, interior_faces(K, hc))


# -- Q verdicts from the GF(2) pass ----------------------------------------


def _direct_q(K):
    """The oracle: `classify(K, QQ)` by the
    definition, every link ranked by the Q eliminator."""
    return literal_classify(K, QQ)


def _as_data(hc):
    # Equality leaves out the evidence; the repr holds it, in face order.
    return hc, repr(hc)


def _suite_corpus():
    out = []
    for dim in (3, 4):
        args = argparse.Namespace(count=8, dim=dim, seed=0)
        out += _suite_instances(args, set(CHECKS))
    return out


def _torsion_set():
    rp2 = projective_plane()
    return [rp2, rp2.join(sphere_zero("n", "s")), rp2.cone("apex")]


def _impure_set():
    # A triangle with a dangling edge, and RP² with a loose vertex.
    plane = [
        [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 6], [1, 5, 6],
        [2, 3, 5], [2, 3, 6], [2, 4, 6], [3, 4, 5], [4, 5, 6],
    ]
    return [
        from_facets("abcd", [["a", "b", "c"], ["c", "d"]]),
        from_facets(
            [str(i) for i in range(1, 8)],
            [[str(v) for v in f] for f in plane] + [["7"]],
        ),
    ]


def _oracle_corpus():
    complexes = []
    for inst in _suite_corpus():
        complexes += [inst.complex, inst.subdivision.total, inst.pair.total]
    for name in FIXTURE_NAMES:
        s = example_complexes(name)
        complexes.append(s.total)
        complexes += [s.restriction(F).total for F in s.base.faces() if F]
    return complexes + _torsion_set()


def test_q_verdicts_equal_the_direct_q_path():
    kinds = set()
    for K in _oracle_corpus():
        got = classify(K, QQ)
        assert _as_data(got) == _as_data(_direct_q(K))
        assert list(got.evidence) == list(K.faces())
        kinds.add(got.kind)
    assert kinds == {"sphere", "ball", "other"}
    for K in _impure_set():
        got = classify(K, QQ)
        assert _as_data(got) == _as_data(_direct_q(K))
        assert got.kind == "other" and got.evidence is None
        assert got.betti == reduced_betti(K, QQ)


@pytest.mark.parametrize("spec", [GF2, FieldSpec.gf(3)], ids=str)
def test_finite_field_verdicts_equal_the_literal_oracle(spec):
    kinds = set()
    for K in _oracle_corpus() + _impure_set():
        got = classify(K, spec)
        assert _as_data(got) == _as_data(literal_classify(K, spec))
        kinds.add(got.kind)
    assert kinds == {"sphere", "ball", "other"}


def test_impure_complexes_rank_only_themselves(monkeypatch):
    calls = _spy(monkeypatch, "_betti_of_faces")
    for K in _impure_set():
        for spec in (GF2, QQ, FieldSpec.gf(3)):
            calls.clear()
            assert classify(K, spec).kind == "other"
            assert len(calls) == 1


def _spy(monkeypatch, name):
    calls = []
    real = getattr(homology, name)

    def spy(*args):
        calls.append(args[1:])
        return real(*args)

    monkeypatch.setattr(homology, name, spy)
    return calls


def test_q_eliminator_runs_only_where_torsion_is_possible(monkeypatch):
    calls = _spy(monkeypatch, "_rank")
    assert classify(cross_polytope(4), QQ).is_sphere
    assert calls == []
    rp2 = projective_plane()
    hc = classify(rp2, QQ)
    assert calls and all(p == (0,) for p in calls)
    assert hc.kind == "other"
    assert hc.betti.values == (0, 0, 0, 0)
    # Only the whole plane has GF(2) homology in two degrees; every
    # vertex and edge link is a circle or two points.
    assert reduced_betti(rp2, GF2).values == (0, 0, 1, 1)
    assert all(
        b.is_concentrated(2 - f.bit_count()) for f, b in hc.evidence.items() if f
    )


def test_both_verdicts_of_a_ball_cost_one_gf2_pass(monkeypatch):
    K = random_simplex_subdivision(("a", "b", "c", "d"), 4, 3).total
    assert K.num_faces() == 56
    passes = _spy(monkeypatch, "_verdicts")
    gf2_ranks = _spy(monkeypatch, "_rank_gf2")
    q_ranks = _spy(monkeypatch, "_rank")
    alone = classify(K, GF2)
    assert alone.is_ball and len(passes) == 1
    assert len(gf2_ranks) == 76
    gf2_ranks.clear()
    assert homology._verdicts(K, QQ) == [alone]
    assert len(gf2_ranks) == 76
    passes.clear()
    gf2_ranks.clear()
    assert _check_field_agreement(K) == CheckResult("pass")
    assert len(passes) == 1
    assert len(gf2_ranks) == 76
    assert q_ranks == []


def test_both_verdicts_of_a_gf2_other_cost_one_gf2_pass(monkeypatch):
    gf2_ranks = _spy(monkeypatch, "_rank_gf2")
    for K, ranks in zip(_torsion_set(), (3, 10, 65)):
        gf2_ranks.clear()
        assert classify(K, GF2).kind == "other"
        assert len(gf2_ranks) == ranks
        gf2_ranks.clear()
        over_gf2, over_q = homology._verdicts(K, QQ)
        assert over_gf2 == classify(K, GF2)
        assert over_q == classify(K, QQ)
        gf2_ranks.clear()
        assert _check_field_agreement(K) == CheckResult("pass")
        assert len(gf2_ranks) == ranks


def test_odd_characteristic_never_ranks_over_gf2(monkeypatch):
    calls = _spy(monkeypatch, "_rank_gf2")
    gf3 = FieldSpec.gf(3)
    assert classify(cross_polytope(3), gf3).is_sphere
    hc = classify(projective_plane(), gf3)
    assert hc.kind == "other" and hc.betti.values == (0, 0, 0, 0)
    assert calls == []


def test_field_agreement_is_unchanged():
    def direct(K):
        over_gf2, over_q = classify(K, GF2), _direct_q(K)
        if (over_gf2.kind, over_gf2.dimension) == (over_q.kind, over_q.dimension):
            return CheckResult("pass")
        return CheckResult(
            "fail",
            {"gf2": over_gf2.kind, "q": over_q.kind, "dimension": over_gf2.dimension},
        )

    instances = _suite_corpus()
    instances += [
        Instance(id=f"t{i}", complex=K)
        for i, K in enumerate(_torsion_set() + _impure_set())
    ]
    for inst in instances:
        assert _check_field_agreement(inst.complex) == direct(inst.complex)
    (report,) = run_conjecture_suite([Instance(id="none")], {"field-agreement"})
    assert report.checks["field-agreement"] == CheckResult("skipped")


# -- links of dimension <= 2 certified without ranks -----------------------


def _grid_surface(n, twist):
    """The n-by-n grid of squares, each cut along one diagonal, with
    opposite sides glued: a torus, or a Klein bottle when the gluing of
    the last column to the first is twisted."""

    def v(i, j):
        if i == n:
            i, j = 0, -j if twist else j
        return f"{i},{j % n}"

    facets = []
    for i in range(n):
        for j in range(n):
            corner, diagonal = v(i, j), v(i + 1, j + 1)
            facets += [[corner, v(i + 1, j), diagonal], [corner, v(i, j + 1), diagonal]]
    return from_facets(sorted({x for f in facets for x in f}), facets)


def _disjoint(K, L):
    labels = tuple("a" + x for x in K.labels) + tuple("b" + x for x in L.labels)
    shift = len(K.labels)
    return SimplicialComplex(labels, list(K.facets) + [g << shift for g in L.facets])


def _octahedron(names):
    return [[a, b, c] for a in names[0:2] for b in names[2:4] for c in names[4:6]]


def _non_manifolds():
    """Pure and impure complexes where a rank-free link test that skips
    one of its preconditions gives the wrong vector."""
    theta = from_facets("xyabc", [[x, m] for x in "xy" for m in "abc"])
    surfaces = [_grid_surface(3, False), _grid_surface(4, True), projective_plane()]
    out = [
        from_facets("abcde", [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]),
        theta.cone("v"),
        theta.join(sphere_zero("n", "s")),
        from_facets("abcdefghijk", _octahedron("abcdef") + _octahedron("aghijk")),
        _disjoint(sphere_zero("p", "q"), sphere_zero("p", "q")),
        _disjoint(cross_polytope(2), cross_polytope(2)),
        _disjoint(cross_polytope(3), cross_polytope(3)),
        _disjoint(cross_polytope(4), cross_polytope(2)),
    ]
    for S in surfaces:
        out += [S, S.cone("apex"), S.join(sphere_zero("n", "s"))]
    return out


def _assert_literal(K):
    for spec in (GF2, FieldSpec.gf(3), QQ):
        assert _as_data(classify(K, spec)) == _as_data(literal_classify(K, spec))


def test_closed_surfaces_have_their_homology():
    torus, klein = _grid_surface(3, False), _grid_surface(4, True)
    for K, gf2, q in (
        (torus, (0, 0, 2, 1), (0, 0, 2, 1)),
        (klein, (0, 0, 2, 1), (0, 0, 1, 0)),
    ):
        assert sympy_reduced_betti(K, 2) == list(gf2)
        assert sympy_reduced_betti(K, 0) == list(q)
        # Every edge lies in two triangles and every vertex link is a circle.
        table = link_table(K)
        assert all(len(table[f]) == 3 for f in K.faces() if f.bit_count() == 2)
        assert all(
            reduced_betti(K.link(f)).is_concentrated(1)
            for f in K.faces()
            if f.bit_count() == 1
        )


def test_non_manifolds_equal_the_literal_oracle():
    for K in _non_manifolds():
        _assert_literal(K)


_MANIFOLDS = [
    cross_polytope(3),
    cross_polytope(4),
    _grid_surface(3, False),
    projective_plane(),
]


@st.composite
def _pure_complexes(draw):
    """Random pure complexes, or random facet subsets of a manifold;
    either one suspended or not."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        k = draw(st.integers(1, min(n, 4)))
        cards = [g for g in range(1 << n) if g.bit_count() == k]
        facets = st.lists(st.sampled_from(cards), min_size=1, max_size=12, unique=True)
        K = SimplicialComplex(tuple(f"v{i}" for i in range(n)), draw(facets))
    else:
        M = draw(st.sampled_from(_MANIFOLDS))
        facets = st.lists(st.sampled_from(sorted(M.facets)), min_size=1, unique=True)
        K = SimplicialComplex(M.labels, draw(facets))
    if draw(st.booleans()):
        K = K.join(sphere_zero("n", "s"))
    return K


@settings(max_examples=60, deadline=None)
@given(_pure_complexes())
def test_rank_free_links_equal_the_literal_oracle(K):
    _assert_literal(K)


def test_a_suite_sphere_ranks_only_itself(monkeypatch):
    ranked = []
    real = homology._betti_of_faces

    def spy(faces, spec):
        ranked.append(list(faces))
        return real(faces, spec)

    monkeypatch.setattr(homology, "_betti_of_faces", spy)
    q_ranks = _spy(monkeypatch, "_rank")
    args = argparse.Namespace(count=4, dim=4, seed=0)
    for inst in _suite_instances(args, set(CHECKS)):
        for K in (inst.complex, inst.pair.total):
            for spec in (GF2, QQ):
                ranked.clear()
                assert classify(K, spec).is_sphere
                # The link of the empty face is K itself.
                assert ranked == [list(K.faces())]
    assert q_ranks == []
