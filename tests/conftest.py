"""Shared test oracles, deliberately independent of the package's own
arithmetic: symbolic expansion through sympy for face sums, sympy
domain-matrix ranks for homology, and literal quantifier forms for the
combinatorial criteria the library implements via shortcuts."""

from __future__ import annotations

from collections import Counter

import sympy
from sympy import GF, QQ, Matrix, Poly, symbols
from sympy.polys.matrices import DomainMatrix

from flagsub.complexes import (
    SimplicialComplex,
    card_offsets,
    iter_bits,
    iter_submasks,
    sphere_zero,
)
from flagsub.errors import FlagsubError, NotAFace, NotHomologySubdivision
from flagsub.homology import GF2, FieldSpec, HomologyClass, reduced_betti
from flagsub.polynomials import (
    GammaVector,
    IntPolynomial,
    SymmetryFailure,
    h_polynomial,
    local_h_from_counts,
    one_plus_x_power,
)
from flagsub.subdivisions import (
    SubdivisionMap,
    _gamma_terms,
    _relative_local_h_table,
    check_h_decomposition,
    check_locality,
    compose,
    edge_subdivision,
    join_subdivision,
    trivial_subdivision,
)

x = symbols("x")


def sympy_h(face_cards: list[int], d: int) -> list[int]:
    """Face sum x**|F| (1-x)**(d-|F|) expanded symbolically.

    Takes the multiset of face cardinalities; returns dense coefficients
    [h_0 .. h_d].
    """
    expr = sympy.Integer(0)
    for k in face_cards:
        expr += x**k * (1 - x) ** (d - k)
    poly = Poly(expr, x)
    return [int(poly.coeff_monomial(x**i)) for i in range(d + 1)]


def poly_coeffs(p) -> list[int]:
    """Dense coefficient list of an IntPolynomial, for oracle compares."""
    return list(p.coeffs)


def sympy_local_h(s: SubdivisionMap) -> list[int]:
    """Literal alternating sum over the subsets of the base vertex set."""
    d = len(s.base.labels)
    full = (1 << d) - 1
    expr = sympy.Integer(0)
    for F in iter_submasks(full):
        cards = [E.bit_count() for E, c in s.carrier.items() if c & F == c]
        sign = (-1) ** (d - F.bit_count())
        for k in cards:
            expr += sign * x**k * (1 - x) ** (F.bit_count() - k)
    poly = Poly(expr, x) if expr != 0 else None
    if poly is None:
        return []
    out = [int(poly.coeff_monomial(x**i)) for i in range(d + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def sympy_poly(coeffs: list[int]):
    """A dense coefficient list as a sympy expression in x."""
    return sum((c * x**i for i, c in enumerate(coeffs)), sympy.Integer(0))


def dense_coeffs(expr, width: int) -> list[int]:
    """Coefficients [c_0 .. c_width] of a sympy expression in x, with
    trailing zeros dropped, as IntPolynomial stores them."""
    expr = sympy.expand(expr)
    out = [int(expr.coeff(x, i)) for i in range(width + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def sympy_relative_local_h(s: SubdivisionMap, E: int) -> list[int]:
    """Literal alternating sum over the base faces F containing the
    carrier of E of (-1)**(d-|F|) times the face sum, at width |F|-|E|,
    of the link of E in the restriction to F."""
    d = len(s.base.labels)
    full = (1 << d) - 1
    c0 = s.carrier[E]
    e = E.bit_count()
    expr = sympy.Integer(0)
    for F in iter_submasks(full):
        if F & c0 != c0:
            continue
        width = F.bit_count() - e
        for G, c in s.carrier.items():
            if G & E == E and c & F == c:
                k = G.bit_count() - e
                expr += (-1) ** (d - F.bit_count()) * x**k * (1 - x) ** (width - k)
    return dense_coeffs(expr, d - e)


def literal_relative_local_h(s: SubdivisionMap, E: int) -> IntPolynomial:
    """`SubdivisionMap.relative_local_h` from the star of E rebuilt over
    the facets: E joined with each subset of a facet through E, counted
    by (|G|, |s(G)|).  The width is checked first, then that E is a face,
    as the method does."""
    d = s._simplex_width()
    if E not in s.total.face_set:
        raise NotAFace(f"{E:#b} is not a face")
    star = {
        E | f
        for g in s.total.facets
        if g & E == E
        for f in iter_submasks(g ^ E)
    }
    counts = Counter((G.bit_count(), s.carrier[G].bit_count()) for G in star)
    return local_h_from_counts(counts, d, E.bit_count())


def sympy_h_of(K: SimplicialComplex):
    """The h face sum of a complex as a sympy expression, at width
    dim + 1."""
    d = K.dim + 1
    return sum(
        (x ** f.bit_count() * (1 - x) ** (d - f.bit_count()) for f in K.faces()),
        sympy.Integer(0),
    )


def literal_is_flag(K: SimplicialComplex) -> bool:
    """The walk `SimplicialComplex.is_flag` used before it counted
    cliques: every extension of a face by a common neighbour of its
    vertices above its top vertex must be a face.  The faces are walked
    in (card, mask) order, the common neighbourhood of each built from
    the face without its lowest vertex."""
    faces = K.faces()
    at = card_offsets(faces, 2)
    common: dict[int, int] = {}
    for f in faces[at[2] : at[3]]:
        a = f & -f
        common[a] = common.get(a, 0) | (f ^ a)
        common[f ^ a] = common.get(f ^ a, 0) | a
    adjacent = common.copy()
    for face in faces[at[2] :]:
        low = face & -face
        reach = common[face] = common[face ^ low] & adjacent[low]
        top = face.bit_length()
        for i in iter_bits(reach >> top):
            if not K.has_face(face | (1 << (top + i))):
                return False
    return True


def literal_is_eulerian(K: SimplicialComplex) -> bool:
    """Direct rule: every face link L = K.link(f) has reduced Euler
    characteristic (-1)**dim(L), counted face by face."""
    for f in K.faces():
        L = K.link(f)
        chi = sum((-1) ** (g.bit_count() - 1) for g in L.faces())
        if chi != (-1) ** (L.dim % 2):
            return False
    return True


def sympy_reduced_betti(K: SimplicialComplex, char: int = 0) -> list[int]:
    """Reduced Betti numbers via sympy matrix ranks.

    Faces are handled as sorted vertex-name tuples so the construction
    shares nothing with the bitmask boundary matrices under test.
    """
    by_card: dict[int, list[tuple[str, ...]]] = {}
    for f in K.faces():
        names = tuple(sorted(K.names(f)))
        by_card.setdefault(len(names), []).append(names)
    for lst in by_card.values():
        lst.sort()
    top = max(by_card)
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        lower = {f: i for i, f in enumerate(by_card.get(k - 1, []))}
        upper = by_card.get(k, [])
        if not upper or not lower:
            continue
        mat = [[0] * len(upper) for _ in lower]
        for j, f in enumerate(upper):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1 :]
                mat[lower[sub]][j] = (-1) ** pos
        dm = DomainMatrix.from_Matrix(Matrix(mat))
        dm = dm.convert_to(GF(char) if char else QQ)
        ranks[k] = dm.rank()
    return [
        len(by_card.get(k, ())) - ranks[k] - ranks[k + 1] for k in range(top + 1)
    ]


def literal_classify(K: SimplicialComplex, spec: FieldSpec) -> HomologyClass:
    """`classify(K, spec)` by the definition, link evidence included:
    each link is built and ranked as ``reduced_betti(K.link(f), spec)``,
    the boundary ridges are found by counting the facets that contain
    them, and the boundary is classified by recursion."""
    dim = K.dim
    if any(g.bit_count() != dim + 1 for g in K.facets):
        return HomologyClass("other", dim, reduced_betti(K, spec))
    links = {f: reduced_betti(K.link(f), spec) for f in K.faces()}
    if all(b.is_concentrated(dim - f.bit_count()) for f, b in links.items()):
        return HomologyClass("sphere", dim, links[0], evidence=links)
    ridges = [
        r
        for r in K.faces()
        if r.bit_count() == dim and sum(1 for g in K.facets if r & g == r) == 1
    ]
    boundary = SimplicialComplex(K.labels, ridges)
    sub = literal_classify(boundary, spec)
    if (
        sub.is_sphere
        and sub.dimension == dim - 1
        and all(
            b.is_zero() if f in boundary.face_set else b.is_concentrated(dim - f.bit_count())
            for f, b in links.items()
        )
    ):
        return HomologyClass("ball", dim, links[0], boundary=boundary, evidence=links)
    return HomologyClass("other", dim, links[0], evidence=links)


def literal_quasi_geometric(s: SubdivisionMap) -> bool:
    """Direct quantifier form: no total face has all its vertex carriers
    inside a base face of strictly smaller dimension."""
    for E in s.total.faces():
        union = 0
        for b in iter_bits(E):
            union |= s.carrier[1 << b]
        for F in s.base.faces():
            if F.bit_count() < E.bit_count() and union & F == union:
                return False
    return True


def _antichain(masks) -> set[int]:
    """Drop dominated generators; result always contains at least 0."""
    pool = sorted(set(masks), key=lambda m: m.bit_count(), reverse=True)
    keep: list[int] = []
    for m in pool:
        if not any(m & g == m for g in keep):
            keep.append(m)
    return set(keep) if keep else {0}


def literal_complex(masks) -> tuple[frozenset[int], tuple[int, ...]]:
    """Facets and (card, mask)-ordered faces of the downward closure of
    ``masks``: the maximal generators by pairwise containment tests,
    then every submask of each, sorted on an explicit tuple key."""
    facets = _antichain(masks)
    faces = {f for g in facets for f in iter_submasks(g)}
    return frozenset(facets), tuple(sorted(faces, key=lambda m: (m.bit_count(), m)))


def _literal_names(K: SimplicialComplex, mask: int) -> list[str]:
    return [K.labels[i] for i in iter_bits(mask)]


def literal_complex_doc(K: SimplicialComplex) -> dict:
    """`serialize.complex_to_doc` by its definition: each facet's names
    in label order, sorted on an explicit (size, names) key."""
    facets = sorted(
        (_literal_names(K, f) for f in K.facets), key=lambda ns: (len(ns), ns)
    )
    return {"labels": list(K.labels), "facets": facets}


def literal_subdivision_doc(s: SubdivisionMap) -> dict:
    """`serialize.subdivision_to_doc` by its definition: each nonempty
    face's names and its carrier's names, read bit by bit and sorted by
    string, in the order of ``s.carrier``."""
    carrier = {
        ",".join(sorted(_literal_names(s.total, E))): sorted(
            _literal_names(s.base, c)
        )
        for E, c in s.carrier.items()
        if E
    }
    return {
        "base": literal_complex_doc(s.base),
        "total": literal_complex_doc(s.total),
        "carrier": carrier,
    }


def brute_downward_closed(K: SimplicialComplex) -> bool:
    faces = K.face_set
    return all(
        all(f & ~(1 << b) in faces for b in iter_bits(f)) for f in faces
    )


def _literal_verdict(s: SubdivisionMap, fast: bool) -> dict:
    """The `validate` verdict by its per-restriction rules: every
    restriction is built as a complex and tested on its own."""
    failures: list[list[str]] = []
    hs = vi = fl = True

    def name(K: SimplicialComplex, m: int) -> str:
        return ",".join(K.names(m)) if m else "()"

    for F in s.base.faces():
        if F == 0:
            continue
        where = name(s.base, F)
        K_F = SimplicialComplex(
            s.total.labels, [E for E, c in s.carrier.items() if c & F == c]
        )
        preimage = {E for E, c in s.carrier.items() if c == F}
        card = F.bit_count()
        if fast:
            if any(g.bit_count() != card for g in K_F.facets):
                hs = False
                failures.append([where, "restriction not pure of full dimension"])
                continue
            in_facets = Counter(g ^ (1 << b) for g in K_F.facets for b in iter_bits(g))
            boundary = {
                f for r, n in in_facets.items() if n == 1 for f in iter_submasks(r)
            }
            if preimage != K_F.face_set - boundary:
                hs = False
                failures.append([where, "carrier preimage is not the interior"])
        else:
            hc = literal_classify(K_F, GF2)
            if not hc.is_ball or hc.dimension != card - 1:
                hs = False
                failures.append(
                    [
                        where,
                        f"restriction classifies as {hc.kind}({hc.dimension}),"
                        f" expected ball({card - 1})",
                    ]
                )
            elif preimage != K_F.face_set - hc.boundary.face_set:
                hs = False
                failures.append([where, "carrier preimage is not the interior"])
        # Vertex-induced: every total face on vertices of the
        # restriction lies in it.
        V = K_F.vertex_support
        for E in s.total.faces():
            if E & V == E and E not in K_F.face_set:
                vi = False
                failures.append(
                    [
                        name(s.total, E),
                        f"induced by vertices of the restriction to {where}"
                        " but not carried into it",
                    ]
                )
                break
        if not K_F.is_flag():
            fl = False
            failures.append([where, "restriction is not flag"])

    qg = True
    for E in s.total.faces():
        union = 0
        for b in iter_bits(E):
            union |= s.carrier[1 << b]
        if any(
            G.bit_count() < E.bit_count() and union & G == union
            for G in s.base.faces()
        ):
            qg = False
            failures.append(
                [
                    name(s.total, E),
                    "vertex carriers fit inside a lower-dimensional base face",
                ]
            )
            break
    return {
        "homology_subdivision": hs,
        "quasi_geometric": qg,
        "vertex_induced": vi,
        "flag_subdivision": fl,
        "failures": failures,
    }


def literal_fast_verdict(s: SubdivisionMap) -> dict:
    """``validate(fast=True).to_dict()`` by the per-restriction rules:
    each restriction Δ_F is built, tested for purity, and its interior
    is its faces minus the closure of the ridges in exactly one facet."""
    return _literal_verdict(s, fast=True)


def literal_full_verdict(s: SubdivisionMap) -> dict:
    """``validate().to_dict()`` over GF(2) by the per-restriction rules:
    each restriction is classified by `literal_classify`, and its
    interior is its faces minus that verdict's boundary."""
    return _literal_verdict(s, fast=False)


def oracle_trail(
    K: SimplicialComplex, steps: int, rng, moves=None, sizes=None
) -> SubdivisionMap:
    """The random trail of `harness._grow`, built step by step with the
    public constructors: each step composes the map with an edge
    subdivision of its total, or joins it with the trivial subdivision
    of a two-point sphere.  The moves and edges are drawn with the same
    calls on ``rng``, and the total's face count after each step is
    appended to ``sizes``."""
    s = trivial_subdivision(K)
    for _ in range(steps):
        K = s.total
        move = "edge-subdivide" if moves is None else moves[rng.randrange(len(moves))]
        if move == "edge-subdivide":
            at = card_offsets(K.faces(), 2)
            edges = K.faces()[at[2] : at[3]]
            s = compose(s, edge_subdivision(K, edges[rng.randrange(len(edges))]))
        else:
            k = len(s.base.labels) // 2 + 1
            s0 = sphere_zero(f"u{k}", f"v{k}")
            s = join_subdivision(s, trivial_subdivision(s0))
        if sizes is not None:
            sizes.append(s.total.num_faces())
    return s


def oracle_gamma_from_symmetric(h: IntPolynomial, d: int):
    """`polynomials.gamma_from_symmetric` as one `IntPolynomial`
    subtraction of x**i (1+x)**(d-2i) per coordinate."""
    if h.degree > d:
        raise ValueError(f"degree {h.degree} exceeds d = {d}")
    for i in range(d // 2 + 1):
        if h[i] != h[d - i]:
            return SymmetryFailure(d, i, d - i, h[i], h[d - i])
    residual = h
    gammas = []
    for i in range(d // 2 + 1):
        g = residual[i]
        gammas.append(g)
        if g:
            residual = residual - one_plus_x_power(d - 2 * i).shift(i) * g
    assert not residual, "symmetric polynomial left a nonzero residual"
    return GammaVector(d, tuple(gammas))


def literal_sigma_carrier(K: SimplicialComplex, ordered) -> dict[int, int]:
    """The carriers of `constructions.sigma_cross_polytope_map`, each
    E + x_i looked up in the face set."""
    d = len(ordered)
    x_bits = [K.mask([x]) for x in ordered]
    carrier = {}
    for E in K.faces():
        c = 0
        for i, xb in enumerate(x_bits):
            if E & xb:
                c |= 1 << i
            elif (E | xb) not in K.face_set:
                c |= 1 << (d + i)
        carrier[E] = c
    return carrier


# -- the suite's checks, each computing what it reads ---------------------


def _literal_gamma(K: SimplicialComplex):
    return oracle_gamma_from_symmetric(h_polynomial(K), K.dim + 1)


def _literal_xi(s: SubdivisionMap) -> GammaVector:
    g = oracle_gamma_from_symmetric(s.local_h(), len(s.base.labels))
    if isinstance(g, SymmetryFailure):
        raise NotHomologySubdivision("local h-polynomial not symmetric")
    return g


def _result(status: str, witness: dict | None = None) -> dict:
    if witness is None:
        return {"status": status}
    return {"status": status, "witness": witness}


def _coords(g) -> list[int] | dict:
    if isinstance(g, SymmetryFailure):
        return {"symmetry_failure": g.to_dict()}
    return g.to_list()


def _literal_gal(inst):
    g = _literal_gamma(inst.complex)
    if isinstance(g, SymmetryFailure):
        return _result("fail", {"symmetry_failure": g.to_dict()})
    if g.is_nonnegative():
        return _result("pass")
    return _result("fail", {"gamma": g.to_list()})


def _literal_local_gamma(inst):
    xi = _literal_xi(inst.subdivision)
    if xi.is_nonnegative():
        return _result("pass")
    return _result("fail", {"xi": xi.to_list()})


def _literal_monotonicity(inst):
    pair = inst.pair
    g_base, g_total = _literal_gamma(pair.base), _literal_gamma(pair.total)
    if isinstance(g_base, SymmetryFailure) or isinstance(g_total, SymmetryFailure):
        return _result("fail", {"reason": "gamma undefined on one side"})
    if g_total >= g_base:
        return _result("pass")
    terms = [
        {"face": list(pair.base.names(F)), "xi": _coords(xi), "gamma_link": _coords(g)}
        for F, xi, g in _gamma_terms(pair)
    ]
    witness = {
        "gamma_base": g_base.to_list(),
        "gamma_total": g_total.to_list(),
        "terms": terms,
    }
    return _result("fail", witness)


def _literal_unimodality(inst):
    ell = inst.subdivision.local_h()
    if ell.is_unimodal():
        return _result("pass")
    return _result("fail", {"local_h": ell.to_list()})


def _literal_relative_symmetry(inst):
    s = inst.subdivision
    d = len(s.base.labels)
    for E, ell in _relative_local_h_table(s).items():
        if ell.reflect(d - E.bit_count()) != ell:
            face = list(s.total.names(E))
            return _result("fail", {"face": face, "relative_local_h": ell.to_list()})
    return _result("pass")


def _literal_field_agreement(inst):
    from flagsub.homology import QQ, _verdicts

    verdicts = _verdicts(inst.complex, QQ)
    over_gf2, over_q = verdicts[0], verdicts[-1]
    if (over_gf2.kind, over_gf2.dimension) == (over_q.kind, over_q.dimension):
        return _result("pass")
    witness = {"gf2": over_gf2.kind, "q": over_q.kind, "dimension": over_gf2.dimension}
    return _result("fail", witness)


def _literal_local_h_symmetry(inst):
    s = inst.subdivision
    ell = s.local_h()
    if ell.is_symmetric(len(s.base.labels)):
        return _result("pass")
    return _result("fail", {"local_h": ell.to_list()})


def _literal_local_h_nonneg(inst):
    s = inst.subdivision
    if not literal_quasi_geometric(s):
        return _result("skipped")
    ell = s.local_h()
    if ell.is_nonnegative():
        return _result("pass")
    return _result("fail", {"local_h": ell.to_list()})


def _literal_h_decomposition(inst):
    chk = check_h_decomposition(inst.map)
    if chk.ok:
        return _result("pass")
    witness = {"h_lhs": chk.h_lhs.to_list(), "h_rhs": chk.h_rhs.to_list()}
    if not chk.gamma_equal:
        witness["gamma_lhs"] = chk.gamma_lhs.to_list()
        witness["gamma_rhs"] = chk.gamma_rhs.to_list()
    return _result("fail", witness)


def _literal_locality(inst):
    chk = check_locality(inst.outer, inst.inner)
    if chk.ok:
        return _result("pass")
    return _result("fail", {"lhs": chk.lhs.to_list(), "rhs": chk.rhs.to_list()})


def _literal_xi_product(inst):
    s1, s2 = inst.factors
    lhs = _literal_xi(inst.subdivision).polynomial()
    rhs = _literal_xi(s1).polynomial() * _literal_xi(s2).polynomial()
    if lhs == rhs:
        return _result("pass")
    return _result("fail", {"lhs": lhs.to_list(), "rhs": rhs.to_list()})


def _literal_xi_formulas(inst):
    s = inst.subdivision
    d = len(s.base.labels)
    if d < 1:
        return _result("skipped")
    xi = _literal_xi(s)
    stats = s.interior_stats()
    if xi.coeffs[0] != 0:
        return _result("fail", {"xi": xi.to_list(), "reason": "xi_0 != 0"})
    p = xi.polynomial()
    want2 = (
        -(2 * d - 3) * stats.f0_interior + stats.f1_interior - stats.f0_codim1_relint
    )
    if (d >= 2 and p[1] != stats.f0_interior) or (d >= 4 and p[2] != want2):
        return _result("fail", {"xi": xi.to_list(), "stats": stats.to_dict()})
    return _result("pass")


def _literal_hierarchy(inst):
    s = inst.map
    v = s.validate(fast=True)
    if v.is_vertex_induced and not v.is_quasi_geometric:
        return _result("fail", {"reason": "vertex-induced but not quasi-geometric"})
    if v.is_vertex_induced and not v.is_flag_subdivision and s.total.is_flag():
        return _result(
            "fail", {"reason": "flag total + vertex-induced but not flag subdivision"}
        )
    return _result("pass")


#: Each check of `harness.CHECKS` with the instance fields it needs, and
#: a body that computes every invariant it uses itself.
LITERAL_CHECKS = {
    "gal": (("complex",), _literal_gal),
    "local-gamma": (("subdivision",), _literal_local_gamma),
    "monotonicity": (("pair",), _literal_monotonicity),
    "unimodality": (("subdivision",), _literal_unimodality),
    "relative-symmetry": (("subdivision",), _literal_relative_symmetry),
    "field-agreement": (("complex",), _literal_field_agreement),
    "local-h-symmetry": (("subdivision",), _literal_local_h_symmetry),
    "local-h-nonneg": (("subdivision",), _literal_local_h_nonneg),
    "h-decomposition": (("map",), _literal_h_decomposition),
    "locality": (("outer", "inner"), _literal_locality),
    "xi-product": (("subdivision", "factors"), _literal_xi_product),
    "xi-formulas": (("subdivision",), _literal_xi_formulas),
    "hierarchy": (("map",), _literal_hierarchy),
}


def literal_report(inst, checks) -> dict:
    """The report of `harness.run_conjecture_suite` on one instance,
    without timings: each check computes what it reads."""
    out = {}
    for name in sorted(checks):
        fields, body = LITERAL_CHECKS[name]
        if any(getattr(inst, f) is None for f in fields):
            out[name] = _result("skipped")
        else:
            out[name] = body(inst)
    digests = {}
    if inst.complex is not None:
        g = _literal_gamma(inst.complex)
        if not isinstance(g, SymmetryFailure):
            digests["gamma"] = g.to_list()
        digests["h"] = h_polynomial(inst.complex).to_list()
    if inst.subdivision is not None:
        try:
            digests["local_h"] = inst.subdivision.local_h().to_list()
            digests["xi"] = _literal_xi(inst.subdivision).to_list()
        except FlagsubError:
            pass
    return {"instance": inst.id, "checks": out, "digests": digests}
