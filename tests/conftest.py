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
from flagsub.homology import GF2, FieldSpec, HomologyClass, reduced_betti
from flagsub.subdivisions import (
    SubdivisionMap,
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


def sympy_h_of(K: SimplicialComplex):
    """The h face sum of a complex as a sympy expression, at width
    dim + 1."""
    d = K.dim + 1
    return sum(
        (x ** f.bit_count() * (1 - x) ** (d - f.bit_count()) for f in K.faces()),
        sympy.Integer(0),
    )


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
