"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Everything is exact integer arithmetic; every tolerance is zero.
"""

import itertools
import time

from flagsub.complexes import (
    cross_polytope,
    from_faces,
    iter_bits,
    iter_submasks,
    simplex,
)
from flagsub.constructions import (
    FacetChoice,
    ball_to_sphere,
    example_complexes,
    sigma_cross_polytope_map,
)
from flagsub.harness import (
    CHECKS,
    CONJECTURE,
    THEOREM,
    GeneratorSpec,
    Instance,
    has_theorem_failure,
    random_flag_sphere,
    random_simplex_subdivision,
    random_sphere_pair,
    run_conjecture_suite,
    summarize,
)
from flagsub.homology import GF2, QQ, classify, interior_faces
from flagsub.polynomials import (
    IntPolynomial,
    gamma_vector,
    h_polynomial,
    interior_h_polynomial,
)
from flagsub.subdivisions import (
    barycentric_subdivision,
    check_h_decomposition,
    check_locality,
    compose,
    edge_subdivision,
    join_subdivision,
    stellar_subdivision,
    trivial_subdivision,
)

X = IntPolynomial([0, 1])


def letters(d, offset=0):
    return tuple(chr(97 + offset + i) for i in range(d))


def derangement_polynomial(d):
    """Sum of x**exc(w) over the derangements w of range(d), where
    exc(w) counts the i with w(i) > i."""
    coeffs = [0] * d
    for w in itertools.permutations(range(d)):
        if all(w[i] != i for i in range(d)):
            coeffs[sum(1 for i in range(d) if w[i] > i)] += 1
    return IntPolynomial(coeffs)


def test_criterion_1_paper_value_goldens():
    t0 = time.perf_counter()
    assert example_complexes("ex-2.3a").local_h() == IntPolynomial([0, 0, -1])
    assert example_complexes("ex-2.3b").local_h() == IntPolynomial([0, 1, 0, 1])
    assert example_complexes("ex-2.3b").local_gamma().to_list() == [0, 1, -2]
    for d in range(2, 7):
        s = stellar_subdivision(simplex(letters(d)), (1 << d) - 1)
        assert s.local_h() == IntPolynomial([0] + [1] * (d - 1))
    s4 = stellar_subdivision(simplex(letters(4)), 0b1111)
    assert s4.local_gamma().to_list() == [0, 1, -1]
    assert trivial_subdivision(from_faces((), [0])).local_gamma().to_list() == [1]
    for d in range(1, 5):
        xi = trivial_subdivision(simplex(letters(d))).local_gamma()
        assert all(c == 0 for c in xi.coeffs)
    # The barycentric subdivision of the (d-1)-simplex has the derangement
    # polynomial as local h (Stanley, JAMS 1992, Prop. 2.4).
    xi = {4: [0, 1, 5], 5: [0, 1, 18], 6: [0, 1, 47, 61]}
    for d in range(1, 7):
        s = barycentric_subdivision(letters(d))
        assert s.local_h() == derangement_polynomial(d)
        if d in xi:
            assert s.local_gamma().to_list() == xi[d]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nCRITERION 1 (paper-value goldens, exact): PASS in {elapsed:.3f}s")


def test_criterion_2_verdict_goldens():
    t0 = time.perf_counter()
    va = example_complexes("ex-2.3a").validate()
    assert not va.is_quasi_geometric

    vb = example_complexes("ex-2.3b").validate()
    assert vb.is_quasi_geometric and not vb.is_vertex_induced

    sc = example_complexes("ex-2.3c")
    vc = sc.validate()
    assert vc.is_quasi_geometric and not vc.is_vertex_induced
    assert sc.total.is_flag()

    D = ball_to_sphere(example_complexes("rem-4.5"))
    witnesses = [
        sorted(D.total.names(m))
        for m in D.total.minimal_non_faces()
        if m.bit_count() == 3
    ]
    assert ["u1", "v2", "v3"] in witnesses
    print(
        f"CRITERION 2 (verdict goldens): PASS in {time.perf_counter() - t0:.3f}s"
    )


def _criterion3_instances():
    """The seeded 200-instance mix: trails over simplices and spheres,
    joins, barycentric and stellar subdivisions, locality pairs."""
    instances = []

    for d in (2, 3, 4):  # 72 simplex-subdivision trails
        for i in range(24):
            s = random_simplex_subdivision(letters(d), i % 6, seed=1000 * d + i)
            instances.append(("simplex", s))

    for d in (2, 3, 4):  # 48 sphere trails
        for i in range(16):
            _, trail = random_flag_sphere(
                GeneratorSpec(d, i % 8, seed=2000 * d + i)
            )
            instances.append(("sphere", trail))

    dims = [(1, 1), (1, 2), (2, 2), (1, 3)]
    for i in range(30):  # 30 joins of simplex subdivisions
        d1, d2 = dims[i % 4]
        s1 = random_simplex_subdivision(
            letters(d1), i % 3 if d1 > 1 else 0, seed=3000 + i
        )
        s2 = random_simplex_subdivision(
            letters(d2, offset=d1), (i + 1) % 3 if d2 > 1 else 0, seed=3500 + i
        )
        instances.append(("join", (s1, s2, join_subdivision(s1, s2))))

    for d in (1, 2, 3, 4):  # 4 barycentric
        instances.append(("simplex", barycentric_subdivision(letters(d))))
    stellar_count = 0
    for d in (2, 3, 4):  # 9 stellar subdivisions of simplices
        K = simplex(letters(d))
        for card in range(1, d + 1):
            F = next(f for f in K.faces() if f.bit_count() == card)
            instances.append(("simplex", stellar_subdivision(K, F)))
            stellar_count += 1
    for d in (2, 3):  # 4 stellar subdivisions of cross-polytope boundaries
        K = cross_polytope(d)
        for card in (1, 2):
            F = next(f for f in K.faces() if f.bit_count() == card)
            instances.append(("sphere", stellar_subdivision(K, F)))
    for i in range(3):  # 3 barycentric-then-stellar composites
        b = barycentric_subdivision(letters(2 + i))
        edges = [f for f in b.total.faces() if f.bit_count() == 2]
        instances.append(
            ("simplex", compose(b, edge_subdivision(b.total, edges[i])))
        )

    for i in range(30):  # 30 locality pairs
        d = 2 + i % 3
        outer = random_simplex_subdivision(letters(d), 1 + i % 3, seed=4000 + i)
        card = 2 if d == 2 else 2 + (i % 2)
        faces = [f for f in outer.total.faces() if f.bit_count() == card]
        inner = stellar_subdivision(outer.total, faces[i % len(faces)])
        instances.append(("locality", (outer, inner)))

    return instances


def _check_reciprocity(K, hc):
    d = K.dim + 1
    return h_polynomial(K).reflect(d) == interior_h_polynomial(
        K, interior_faces(K, hc)
    )


def test_criterion_3_theorem_tier_property_suite():
    t0 = time.perf_counter()
    instances = _criterion3_instances()
    assert len(instances) == 200
    failures = []

    for idx, (kind, payload) in enumerate(instances):
        if kind == "simplex":
            s = payload
            d = len(s.base.labels)
            ell = s.local_h()
            if not ell.is_symmetric(d):
                failures.append((idx, "local-h symmetry"))
            verdict = s.validate(fast=True)
            if verdict.is_quasi_geometric and not ell.is_nonnegative():
                failures.append((idx, "local-h nonnegativity"))
            xi = s.local_gamma()
            stats = s.interior_stats()
            if d >= 1 and (xi.coeffs[0] != 0 or (
                d >= 2 and xi.coeffs[1] != stats.f0_interior
            )):
                failures.append((idx, "xi_1 formula"))
            if d >= 4:
                want = (
                    -(2 * d - 3) * stats.f0_interior
                    + stats.f1_interior
                    - stats.f0_codim1_relint
                )
                if xi.coeffs[2] != want:
                    failures.append((idx, "xi_2 formula"))
            if not check_h_decomposition(s).ok:
                failures.append((idx, "h-decomposition"))
            # edge recursion, one deterministic step per instance
            edges = [f for f in s.total.faces() if f.bit_count() == 2]
            if edges:
                e = edges[idx % len(edges)]
                after = compose(s, edge_subdivision(s.total, e))
                if after.local_h() != ell + X * s.relative_local_h(e):
                    failures.append((idx, "edge recursion"))
            hc = classify(s.total)
            if not (hc.is_ball and hc.dimension == d - 1):
                failures.append((idx, "restriction ball classification"))
            elif not _check_reciprocity(s.total, hc):
                failures.append((idx, "reciprocity"))
        elif kind == "sphere":
            trail = payload
            chk = check_h_decomposition(trail)
            if not (chk.h_equal and chk.gamma_lhs is not None and chk.gamma_equal):
                failures.append((idx, "h/gamma decomposition"))
            K = trail.total
            if K.dim <= 2:
                hc = classify(K)
                if not hc.is_sphere or not _check_reciprocity(K, hc):
                    failures.append((idx, "sphere reciprocity"))
            else:
                if h_polynomial(K).reflect(K.dim + 1) != h_polynomial(K):
                    failures.append((idx, "sphere reciprocity"))
        elif kind == "join":
            s1, s2, j = payload
            d = len(j.base.labels)
            if not j.local_h().is_symmetric(d):
                failures.append((idx, "join local-h symmetry"))
            lhs = j.local_gamma().polynomial()
            rhs = s1.local_gamma().polynomial() * s2.local_gamma().polynomial()
            if lhs != rhs:
                failures.append((idx, "xi join multiplicativity"))
        elif kind == "locality":
            outer, inner = payload
            if not check_locality(outer, inner).ok:
                failures.append((idx, "locality"))

    elapsed = time.perf_counter() - t0
    assert failures == []
    assert elapsed < 300
    print(
        f"CRITERION 3 (theorem tier, {len(instances)} instances, 100% pass): "
        f"PASS in {elapsed:.1f}s"
    )


def _sigma_instance(d, steps, seed):
    K, _ = random_flag_sphere(GeneratorSpec(d, steps, seed=seed))
    facet = sorted(K.names(next(iter(K.facets))))
    return K, sigma_cross_polytope_map(K, FacetChoice.of(facet))


def test_criterion_4_construction_suite():
    t0 = time.perf_counter()

    def corpl_identities(K, s):
        chk = check_h_decomposition(s)
        assert chk.h_equal and chk.gamma_lhs is not None and chk.gamma_equal
        xi_sum = IntPolynomial()
        for F in s.base.faces():
            xi_sum = xi_sum + s.restriction(F).local_gamma().polynomial()
        assert xi_sum == gamma_vector(K).polynomial()

    full = 0
    for d, seeds in ((2, range(35)), (3, range(15))):
        for i in seeds:
            K, s = _sigma_instance(d, i % 7 if d == 2 else i % 5, seed=5000 * d + i)
            v = s.validate()
            assert v.is_homology_subdivision
            assert v.is_vertex_induced and v.is_quasi_geometric
            assert v.is_flag_subdivision
            corpl_identities(K, s)
            full += 1
    assert full == 50

    fast = 0
    for i in range(15):
        K, s = _sigma_instance(4, i % 4, seed=7000 + i)
        v = s.validate(fast=True)
        assert v.is_homology_subdivision and v.is_vertex_induced
        corpl_identities(K, s)
        fast += 1
        if i < 5:  # spot homology validation
            vv = s.validate()
            assert vv.is_homology_subdivision and vv.is_vertex_induced

    for d in (1, 2, 3):
        t = trivial_subdivision(simplex(letters(d)))
        D = ball_to_sphere(t)
        assert D.total == D.base
        assert D.total.f_vector() == cross_polytope(d).f_vector()

    b = barycentric_subdivision(("p", "q", "r"))
    D = ball_to_sphere(b)
    assert gamma_vector(D.total).to_list() == [1, 4]
    v_mask = D.base.mask(["p", "q", "r"])
    xi_sum = IntPolynomial()
    for F in iter_submasks(v_mask):
        xi_sum = xi_sum + D.restriction(F).local_gamma().polynomial()
    assert xi_sum == IntPolynomial([1, 4])

    print(
        f"CRITERION 4 (construction suite, {full} full + {fast} fast): "
        f"PASS in {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_5_homology_oracle_suite():
    t0 = time.perf_counter()
    for d in (1, 2, 3, 4):
        for spec in (GF2, QQ):
            hc = classify(cross_polytope(d), spec)
            assert hc.is_sphere and hc.dimension == d - 1

    for n in (1, 2, 3, 4):
        K = simplex(letters(n))
        hc = classify(K)
        assert hc.is_ball and hc.dimension == n - 1
        hollow = [f for f in K.faces() if f.bit_count() == n - 1]
        assert hc.boundary.facets == from_faces(K.labels, hollow).facets

    def star_union_checks(K):
        for F in K.faces():
            if F == 0:
                continue
            vs = [1 << b for b in iter_bits(F)]
            U = from_faces(
                K.labels, [g for g in K.facets if any(g & v for v in vs)]
            )
            hc = classify(U)
            assert hc.is_ball and hc.dimension == K.dim
            open_union = {f for f in U.face_set if any(f & v for v in vs)}
            assert interior_faces(U, hc) == open_union

    star_union_checks(cross_polytope(3))
    K7, _ = random_flag_sphere(GeneratorSpec(3, 1, seed=2))
    assert K7.f_vector()[1] == 7 and K7.is_flag()
    star_union_checks(K7)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    print(f"CRITERION 5 (homology oracles): PASS in {elapsed:.1f}s")


def test_criterion_6_conjecture_tier_runs():
    t0 = time.perf_counter()
    instances = []
    for i in range(100):  # flag spheres of dimensions 2 and 3
        d = 3 + i % 2
        K, _ = random_flag_sphere(GeneratorSpec(d, i % 6, seed=11000 + i))
        instances.append(Instance(id=f"gal-{i:03d}", complex=K))
    for i in range(100):  # flag vertex-induced subdivisions of simplices
        d = 1 + i % 4
        s = random_simplex_subdivision(
            letters(d), i % 6 if d > 1 else 0, seed=12000 + i
        )
        instances.append(Instance(id=f"xi-{i:03d}", subdivision=s))
    for i in range(50):  # vertex-induced sphere pairs, dimensions 3 and 4
        d = 4 + i % 2
        pair = random_sphere_pair(d, i % 3, 1 + i % 3, seed=13000 + i)
        instances.append(Instance(id=f"mono-{i:03d}", pair=pair))

    reports = run_conjecture_suite(
        instances, {"gal", "local-gamma", "monotonicity"}
    )
    tally = summarize(reports)
    assert tally["gal"] == {"pass": 100, "fail": 0, "skipped": 150}
    assert tally["local-gamma"] == {"pass": 100, "fail": 0, "skipped": 150}
    assert tally["monotonicity"] == {"pass": 50, "fail": 0, "skipped": 200}
    assert not has_theorem_failure(reports)

    # failures carry a replayable witness and never raise
    counter = Instance(id="witness", subdivision=example_complexes("ex-2.3b"))
    rep = run_conjecture_suite([counter], {"local-gamma"})[0]
    assert rep.checks["local-gamma"].status == "fail"
    assert rep.checks["local-gamma"].witness == {"xi": [0, 1, -2]}

    print(
        "CRITERION 6 (conjecture tier: 100 gal, 100 local-gamma, 50 "
        f"monotonicity, all expected passes): PASS in {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_7_headline_results_are_conjecture_tier_only():
    # The open statements are exercised by report-only machinery; nothing
    # in the package asserts them as theorems.
    for name in ("gal", "local-gamma", "monotonicity", "unimodality",
                 "relative-symmetry"):
        assert CHECKS[name].tier == CONJECTURE
    for name in ("local-h-symmetry", "local-h-nonneg", "h-decomposition",
                 "locality", "xi-product", "xi-formulas", "hierarchy"):
        assert CHECKS[name].tier == THEOREM
    # a conjecture-tier failure is a report, not an error
    counter = Instance(id="c", subdivision=example_complexes("ex-2.3b"))
    reports = run_conjecture_suite([counter], {"local-gamma", "unimodality"})
    assert not has_theorem_failure(reports)
    assert all(r.status == "fail" for r in reports[0].checks.values())
    print("CRITERION 7 (headline claims remain conjecture-tier): PASS")
