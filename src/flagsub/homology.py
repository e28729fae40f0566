"""Reduced simplicial homology over a field, and sphere/ball certification.

Ranks of boundary matrices are exact: XOR elimination on bitmask
columns over GF(2), and one sparse integer column eliminator for GF(p),
p > 2, and for Q (after Dumas, Heckenbach, Saunders and Welker, 2003),
with no fractions and no tolerances.  ``classify`` takes every face
link from one pass over the faces, and a ball's boundary and its links
from that same table.

Over Q, ``classify`` decides over GF(2) first.  An integer matrix has
rank over GF(2) at most its rank over Q, so each reduced Betti number
over Q is at most the one over GF(2), and the reduced Euler
characteristic is the same over both fields.  A GF(2) Betti vector
that is nonzero in at most one degree is therefore the Q vector too
(universal coefficients; Munkres, *Elements of Algebraic Topology*,
§§53-56).  Every vector behind a sphere or ball verdict is such a
vector: the links of the complex and of the boundary are zero or one
copy of the field in one degree.  So a GF(2) sphere or ball is the Q
verdict as it stands, and only a GF(2) `other` is decided again over
Q, where the sparse eliminator runs only on the links whose GF(2)
vector is nonzero in two or more degrees, the only place torsion can
change a vector.  The bound runs one way only: GF(p) for odd p has no
rank order against GF(2) (the projective plane has homology over GF(2)
and none over GF(3)), so there every link is ranked directly.
``reduced_betti`` always ranks over the field it is given.

``classify`` ranks a face link only where a rank can tell something.
A link of dimension m <= 2 whose own links, the links of the larger
faces, are all spheres is a closed manifold: a union of cycles or a
closed surface.  It is a sphere iff it is two points (m = 0), is
connected (m = 1), or is connected with V - E + F = 2 (m = 2), and it
then gets its Betti vector, concentrated in degree m, with no rank and
over any field (Munkres, §63, and the classification of surfaces).  So
those links are walked from the largest faces down.  Links of dimension
3 or more, links that fail the test and links below a link that failed
are ranked, so every evidence vector equals the ranked one, and a
3-sphere ranks only itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd, isqrt
from typing import Iterable, Iterator

from .complexes import (
    SimplicialComplex,
    from_faces,
    iter_bits,
    iter_submasks,
    link_table,
)

__all__ = [
    "FieldSpec",
    "GF2",
    "QQ",
    "BettiVector",
    "HomologyClass",
    "reduced_betti",
    "classify",
    "interior_faces",
]


#: Largest characteristic `FieldSpec` accepts.  Primality is settled by
#: trial division up to the square root, a few milliseconds at this
#: bound; larger primes are refused.
MAX_CHAR = 2**31 - 1


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for prime p <= `MAX_CHAR`, or the
    rationals (char 0)."""

    char: int

    def __post_init__(self):
        if self.char == 0:
            return
        if self.char > MAX_CHAR:
            raise ValueError(f"{self.char} is above the limit {MAX_CHAR}")
        if self.char < 2 or any(
            self.char % q == 0 for q in range(2, isqrt(self.char) + 1)
        ):
            raise ValueError(f"{self.char} is not prime")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        if p == 0:
            raise ValueError("0 is not prime")
        return cls(p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    def __str__(self) -> str:
        return "Q" if self.char == 0 else f"GF({self.char})"


GF2 = FieldSpec.gf(2)
QQ = FieldSpec.rationals()


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers indexed from dimension -1 upward."""

    values: tuple[int, ...]

    def get(self, i: int) -> int:
        j = i + 1
        if 0 <= j < len(self.values):
            return self.values[j]
        return 0

    def is_concentrated(self, dim: int) -> bool:
        """Exactly one dimension of rank 1, at ``dim``; zero elsewhere."""
        return all(
            v == (1 if i - 1 == dim else 0) for i, v in enumerate(self.values)
        )

    def is_zero(self) -> bool:
        return not any(self.values)

    def to_dict(self) -> dict[str, int]:
        return {str(i - 1): v for i, v in enumerate(self.values)}


def _rank_gf2(columns: list[int]) -> int:
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                break
            col ^= pivot
    return len(pivots)


def _rank(columns: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), or over Q when p == 0, of sparse columns mapping
    rows to nonzero integers (consumed).  While a pivot owns the lowest
    row ``low`` of ``col``, ``col`` becomes ``a*col - b*pivot`` with
    ``a = pivot[low]``, ``b = col[low]``: exact integer arithmetic, mod p
    over GF(p); over Q each new pivot is divided by its entries' gcd."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        if p:
            col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                if p == 0:
                    g = gcd(*col.values())
                    if g != 1:
                        col = {r: v // g for r, v in col.items()}
                pivots[low] = col
                break
            a, b = pivot[low], col[low]
            if a != 1:
                col = {r: a * v % p if p else a * v for r, v in col.items()}
            for r, v in pivot.items():
                x = col.get(r, 0) - b * v
                if p:
                    x %= p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


def _boundary_rank(lower: list[int], upper: list[int], spec: FieldSpec) -> int:
    """Rank of the boundary map from card-k faces to card-(k-1) faces."""
    index = {f: i for i, f in enumerate(lower)}
    if spec.char == 2:
        columns = []
        for f in upper:
            col = 0
            for b in iter_bits(f):
                col |= 1 << index[f & ~(1 << b)]
            columns.append(col)
        return _rank_gf2(columns)
    sparse = []
    for f in upper:
        col, sign = {}, 1
        for b in iter_bits(f):
            col[index[f & ~(1 << b)]] = sign
            sign = -sign
        sparse.append(col)
    return _rank(sparse, spec.char)


def _betti_of_faces(faces: Iterable[int], spec: FieldSpec) -> BettiVector:
    """Reduced Betti numbers of the downward-closed family ``faces``,
    given in (cardinality, mask) order with the empty face first."""
    by_card: list[list[int]] = []
    for f in faces:
        k = f.bit_count()
        if k == len(by_card):
            by_card.append([])
        by_card[k].append(f)
    top = len(by_card) - 1
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        ranks[k] = _boundary_rank(by_card[k - 1], by_card[k], spec)
    return BettiVector(
        tuple(len(by_card[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))
    )


def reduced_betti(K: SimplicialComplex, spec: FieldSpec = GF2) -> BettiVector:
    """Reduced Betti numbers of ``K`` from exact boundary-matrix ranks.

    The chain complex is augmented: the empty face spans the chain group
    in dimension -1, so the entry at index -1 is 1 exactly for the
    complex ``{empty}``.
    """
    return _betti_of_faces(K.faces(), spec)


#: The Betti vector of a homology m-sphere, at index m + 1, for the
#: link dimensions -1 <= m <= 2 that `_link_bettis` decides without ranks.
_LOW_SPHERES = tuple(BettiVector((0,) * (m + 1) + (1,)) for m in range(-1, 3))


def _is_low_sphere(faces: list[int], m: int) -> bool:
    """Whether ``faces``, in (card, mask) order and spanning a closed
    homology m-manifold with m <= 2, is a sphere: for m = -1 always;
    for m = 0 iff it is two points; for m = 1, a union of cycles, iff
    it is connected; for m = 2, a closed surface, iff it is connected
    and V - E + F = 2."""
    if m < 1:
        return m < 0 or len(faces) == 3
    edges = bisect_left(faces, 2, key=int.bit_count)
    triangles = bisect_left(faces, 3, edges, key=int.bit_count)
    if m == 2 and edges - 1 - (triangles - edges) + (len(faces) - triangles) != 2:
        return False
    # Grow the component of the first vertex by sweeping the edges until
    # a sweep adds nothing; edges in mask order mostly take one sweep.
    seen, before = faces[1], 0
    while seen != before:
        before = seen
        for e in faces[edges:triangles]:
            if e & seen:
                seen |= e
    return seen.bit_count() == edges - 1


def _link_bettis(
    table: dict[int, list[int]], spec: FieldSpec
) -> Iterator[tuple[int, BettiVector]]:
    """Yield ``(f, b)`` for every face f of a pure complex, from its
    `link_table`, with b the Betti vector over ``spec`` of lk f.

    Let m = dim lk f.  Each link of lk f is the link of a larger face,
    so when every larger face has a link concentrated in its top degree,
    lk f is a closed homology m-manifold, and for m <= 2 a closed
    manifold that `_is_low_sphere` tells from a sphere without a rank
    (see the module docstring).  A sphere found so gets its true vector.
    Every other link is ranked, and one not concentrated in degree m
    blocks the test on every face inside f.

    The links with m >= 3 lead the table and feed no test, so they come
    first, ranked in face order; the rest follow largest faces first.  A
    caller that stops at the first vector it rejects thus ranks the
    links with m >= 3 as a walk in face order would, and below them at
    most the one link it rejects.
    """
    items = list(table.items())
    dim = items[0][1][-1].bit_count() - 1
    low = bisect_left(items, dim - 2, key=lambda item: item[0].bit_count())
    for f, faces in items[:low]:
        yield f, _betti_of_faces(faces, spec)
    blocked: set[int] = set()
    for f, faces in reversed(items[low:]):
        m = faces[-1].bit_count() - 1
        if f not in blocked and _is_low_sphere(faces, m):
            yield f, _LOW_SPHERES[m + 1]
            continue
        b = _betti_of_faces(faces, spec)
        if not b.is_concentrated(m):
            blocked.update(iter_submasks(f))
        yield f, b


@dataclass(frozen=True)
class HomologyClass:
    """Sphere / ball / other verdict with the certifying data.

    For a ball, ``boundary`` is the subcomplex spanned by the codim-1
    faces lying in a unique facet (on the same ground set, so face
    masks stay comparable).  For a pure complex ``evidence`` maps each
    face, in face order, to the Betti vector of its link; an impure
    complex carries none.
    """

    kind: str  # "sphere" | "ball" | "other"
    dimension: int
    betti: BettiVector
    boundary: SimplicialComplex | None = None
    evidence: dict[int, BettiVector] | None = field(default=None, compare=False)

    @property
    def is_sphere(self) -> bool:
        return self.kind == "sphere"

    @property
    def is_ball(self) -> bool:
        return self.kind == "ball"


def classify(K: SimplicialComplex, spec: FieldSpec = GF2) -> HomologyClass:
    """Certify ``K`` as a homology sphere, homology ball, or neither.

    Sphere: every face link (the empty face included) has homology
    concentrated as one copy of the field in top dimension.  Ball: the
    candidate boundary, spanned by the codim-1 faces in a unique facet,
    is a sphere one dimension down, boundary-face links are acyclic and
    interior-face links are concentrated in top dimension.  A sphere or
    ball verdict additionally requires all facets to share a dimension,
    so a complex that is not pure is `other` at once, with its own Betti
    vector and no link evidence.  Every verdict on a pure complex
    carries the Betti vector of each face link as ``evidence``.

    Over Q the verdict is first taken over GF(2).  A GF(2) sphere or
    ball rests only on Betti vectors nonzero in at most one degree,
    which are the Q vectors too, so it is returned as it stands,
    evidence included.  A GF(2) `other` is decided again over Q, ranking
    over Q only the links whose GF(2) vector is nonzero in two or more
    degrees (see the module docstring).  Either way the result equals
    ranking every link over Q.  This holds in characteristic 0 only, so
    GF(p) for odd p ranks every link over GF(p).

    Over every field, a link of dimension at most 2 whose own links are
    all spheres is a closed manifold, and is certified a sphere with no
    rank: two points, a connected union of cycles, or a connected closed
    surface with V - E + F = 2 (Munkres, §63, and the classification of
    surfaces).  Its evidence is the vector a rank would give.
    """
    return _verdicts(K, spec)[-1]


def _verdicts(K: SimplicialComplex, spec: FieldSpec) -> list[HomologyClass]:
    """Every verdict one `classify` pass reaches, the last being the
    answer: over Q the GF(2) verdict, then the Q verdict only when the
    GF(2) one is `other`; one verdict otherwise."""
    if not K.is_pure():
        return [HomologyClass("other", K.dim, reduced_betti(K, spec))]
    table = link_table(K)
    first = GF2 if spec.char == 0 else spec
    found = dict(_link_bettis(table, first))
    links = {f: found[f] for f in table}
    out = [_verdict(K, table, links, first)]
    if first != spec and out[0].kind == "other":
        links = {
            f: b if sum(1 for v in b.values if v) <= 1 else _betti_of_faces(table[f], QQ)
            for f, b in links.items()
        }
        out.append(_verdict(K, table, links, QQ))
    return out


def _verdict(
    K: SimplicialComplex,
    table: dict[int, list[int]],
    links: dict[int, BettiVector],
    spec: FieldSpec,
) -> HomologyClass:
    """The `classify` verdict of a pure complex ``K`` from its
    `link_table` and the Betti vector over ``spec`` of every link.

    A ridge R lies in exactly one facet iff its link is one vertex,
    ``len(table[R]) == 2``.  The boundary those ridges span is pure, and
    its links are read through `_link_bettis` over ``spec`` only after
    the links of ``K`` pass, stopping at the first that fails.  With no
    such ridge the boundary is {∅}, whose one link is concentrated in
    degree -1 = dim - 1 exactly when dim = 0.
    """
    dim = K.dim
    betti_self = links[0]  # the link of the empty face is K itself

    if all(
        b.is_concentrated(dim - f.bit_count()) for f, b in links.items()
    ):
        return HomologyClass("sphere", dim, betti_self, evidence=links)

    ridges = [f for f, up in table.items() if f.bit_count() == dim and len(up) == 2]
    boundary = from_faces(K.labels, ridges)
    bset = boundary.face_set
    if all(
        b.is_zero() if f in bset else b.is_concentrated(dim - f.bit_count())
        for f, b in links.items()
    ) and all(
        b.is_concentrated(dim - 1 - f.bit_count())
        for f, b in _link_bettis(link_table(boundary), spec)
    ):
        return HomologyClass("ball", dim, betti_self, boundary=boundary, evidence=links)
    return HomologyClass("other", dim, betti_self, evidence=links)


def interior_faces(K: SimplicialComplex, verdict: HomologyClass) -> frozenset[int]:
    """Interior face masks: everything for a sphere, complement of the
    boundary for a ball."""
    if verdict.is_sphere:
        return K.face_set
    if verdict.is_ball:
        return K.face_set - verdict.boundary.face_set
    raise ValueError("interior is defined for sphere or ball verdicts only")
