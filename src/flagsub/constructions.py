"""Named constructions: the facet-anchored map of a flag sphere onto a
cross-polytope boundary, the ball-to-sphere extension of a simplex
subdivision, and the bundled example subdivisions."""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    SimplicialComplex,
    adjacency,
    cross_polytope,
    cross_polytope_on,
    from_faces,
    from_facets,
    simplex,
)
from .errors import (
    BaseNotSimplex,
    NotAFacet,
    NotASphere,
    NotFlag,
    NotHomologySubdivision,
    UnknownFixture,
)
from .homology import classify
from .subdivisions import SubdivisionMap

FIXTURE_NAMES = ("ex-2.3a", "ex-2.3b", "ex-2.3c", "rem-4.5")


@dataclass(frozen=True)
class FacetChoice:
    """A facet of the source sphere with a fixed vertex ordering; the
    ordering indexes the antipodal pairs of the target cross-polytope."""

    ordered: tuple[str, ...]

    @classmethod
    def of(cls, names) -> "FacetChoice":
        return cls(tuple(names))


def sigma_cross_polytope_map(
    K: SimplicialComplex,
    choice: FacetChoice,
    verify_sphere: bool = False,
) -> SubdivisionMap:
    """Carrier map of a flag sphere onto the cross-polytope boundary.

    With the chosen facet ordered x_1..x_d, a face E carries to the
    u_i for its members x_i plus the v_i for every i with E + x_i not
    a face.  Flagness is always checked; homology-sphere certification
    over GF(2) is optional because it is expensive.

    As K is flag, E + x_i is a face iff x_i is in E or adjacent to
    every vertex of E.  So each face reads its common neighbourhood:
    that of the face without its lowest vertex, which comes earlier in
    (card, mask) order, cut by the neighbours of that vertex.  The
    members of E in the facet, and the facet vertices outside E and
    its common neighbourhood, are then turned into the u and v bits by
    one table over the subsets of the facet, all of them faces of K.
    """
    if not K.is_flag():
        raise NotFlag("source complex is not flag")
    facet_mask = K.mask(choice.ordered)
    if facet_mask not in K.facets:
        raise NotAFacet(f"{choice.ordered} is not a facet")
    if len(choice.ordered) != facet_mask.bit_count():
        raise NotAFacet("facet ordering repeats a vertex")
    if verify_sphere:
        hc = classify(K)
        if not hc.is_sphere:
            raise NotASphere(f"source classifies as {hc.kind}")
    d = len(choice.ordered)
    base = cross_polytope(d)
    # position bits 1 << i of each subset of the facet, x_i the i-th
    # vertex of the ordering
    position = {0: 0}
    for i, x in enumerate(choice.ordered):
        xb = K.mask([x])
        position.update([(m | xb, p | 1 << i) for m, p in position.items()])
    adj = adjacency(K)
    common = {0: (1 << len(K.labels)) - 1}
    for E in K.faces()[1:]:
        low = E & -E
        common[E] = common[E ^ low] & adj[low.bit_length() - 1]
    carrier = {
        E: position[E & facet_mask] | position[facet_mask & ~(E | near)] << d
        for E, near in common.items()
    }
    return SubdivisionMap(K, base, carrier)


def _fresh_pair_labels(d: int, taken: set[str]) -> list[str]:
    prefix = "u"
    while any(f"{prefix}{i}" in taken for i in range(1, d + 1)):
        prefix = "u" + prefix
    return [f"{prefix}{i}" for i in range(1, d + 1)]


def ball_to_sphere(s: SubdivisionMap, verify: bool = False) -> SubdivisionMap:
    """Extend a subdivision of a simplex to a subdivision of the
    cross-polytope boundary on fresh antipodal partners.

    The total complex collects every join of a face on the fresh
    vertices with a restriction of the input to the complementary base
    vertices; carriers are unions of the fresh part with the input
    carrier.
    """
    full = (1 << len(s.base.labels)) - 1
    if s.base.facets != frozenset({full}):
        raise BaseNotSimplex("input must subdivide a simplex")
    if verify and not s.validate().is_homology_subdivision:
        raise NotHomologySubdivision("input failed homology validation")
    d = len(s.base.labels)
    taken = set(s.total.labels) | set(s.base.labels)
    u_labels = _fresh_pair_labels(d, taken)
    base = cross_polytope_on(u_labels, s.base.labels)
    t_shift = d  # fresh vertices occupy the low indices of the new total
    faces: dict[int, int] = {}
    for eu in range(1 << d):
        # faces of the input are compatible with eu when their carrier
        # avoids the base vertices paired with the chosen fresh ones
        for F, c in s.carrier.items():
            if c & eu == 0:
                faces[eu | (F << t_shift)] = (eu | (c << d))
    labels = tuple(u_labels) + s.total.labels
    total = from_faces(labels, faces.keys())
    return SubdivisionMap(total, base, faces)


def _pushed_simplex_fixture(
    labels: tuple[str, ...],
    big_facets: list[tuple[str, ...]],
    v_names: tuple[str, ...],
    f_names: tuple[str, ...],
    extra_to_v: tuple[str, ...] = (),
) -> SubdivisionMap:
    """Common carrier pattern of the bundled pushed subdivisions:
    identity off the distinguished face, the full simplex on faces
    containing it (or touching ``extra_to_v``), the face itself
    elsewhere."""
    total = from_facets(labels, big_facets)
    base = simplex(v_names)
    v_mask_t = total.mask(v_names)
    f_mask_t = total.mask(f_names)
    extra = total.mask(extra_to_v)
    full_b = (1 << len(v_names)) - 1
    f_mask_b = base.mask(f_names)
    carrier = {}
    for E in total.faces():
        if extra and E & extra:
            carrier[E] = full_b
        elif E & f_mask_t == f_mask_t:
            carrier[E] = full_b
        elif E & v_mask_t == E:
            carrier[E] = base.mask(total.names(E))
        else:
            carrier[E] = f_mask_b
    return SubdivisionMap(total, base, carrier)


def _fixture_2_3c() -> SubdivisionMap:
    # Triangle-in-triangle subdivision of the face {b,c,d}: the three
    # boundary edges stay faces, the primed inner triangle is a face,
    # and an annulus of six triangles fills the rest.  Coning it (with
    # the face itself added) over a new vertex and gluing to the solid
    # tetrahedron gives a flag total complex whose restriction to the
    # face is not flag.
    inner = [
        ("b", "c", "c'"),
        ("b", "c'", "b'"),
        ("c", "d", "d'"),
        ("c", "d'", "c'"),
        ("d", "b", "b'"),
        ("d", "b'", "d'"),
        ("b'", "c'", "d'"),
    ]
    facets = [("a", "b", "c", "d"), ("v", "b", "c", "d")]
    facets += [("v",) + t for t in inner]
    return _pushed_simplex_fixture(
        ("a", "b", "c", "d", "v", "b'", "c'", "d'"),
        facets,
        ("a", "b", "c", "d"),
        ("b", "c", "d"),
        extra_to_v=("v",),
    )


def example_complexes(name: str) -> SubdivisionMap:
    """Bundled example subdivisions of a simplex, by identifier."""
    if name == "ex-2.3a":
        return _pushed_simplex_fixture(
            ("a", "b", "c", "d", "e"),
            [("a", "b", "c", "d"), ("b", "c", "d", "e")],
            ("a", "b", "c", "d"),
            ("b", "c", "d"),
        )
    if name == "ex-2.3b":
        cone_facets = [
            ("v", "b", "c", "d"),
            ("v", "b", "c", "e"),
            ("v", "b", "d", "e"),
            ("v", "c", "d", "e"),
        ]
        return _pushed_simplex_fixture(
            ("a", "b", "c", "d", "e", "v"),
            [("a", "b", "c", "d")] + cone_facets,
            ("a", "b", "c", "d"),
            ("b", "c", "d"),
            extra_to_v=("v",),
        )
    if name == "ex-2.3c":
        return _fixture_2_3c()
    if name == "rem-4.5":
        return _pushed_simplex_fixture(
            ("v1", "v2", "v3", "v4"),
            [("v1", "v2", "v3"), ("v2", "v3", "v4")],
            ("v1", "v2", "v3"),
            ("v2", "v3"),
        )
    raise UnknownFixture(f"no fixture named {name!r}; try one of {FIXTURE_NAMES}")
