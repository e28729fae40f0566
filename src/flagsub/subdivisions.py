"""Subdivision maps: carrier validation, local invariants, constructors.

A subdivision is a total complex together with a carrier map assigning
to each of its faces a face of the base complex.  Carriers are stored
explicitly on every face, because they are not determined by vertex
carriers for maps that are not vertex-induced.  Structural invariants
(totality, monotonicity, dimension growth, surjectivity, empty to
empty) are checked on maps built from outside data, and hold by
construction on the maps that `stellar_subdivision`, `compose`,
`join_subdivision` and `trivial_subdivision` derive from valid maps;
the homological axioms and the quasi-geometric / vertex-induced / flag
hierarchy are checked by `SubdivisionMap.validate`.

Validation reads the restriction Δ_F = {E : s(E) ⊆ F} to each base
face F from carriers alone.  A total face E is a facet of Δ_F exactly
when s(E) ⊆ F and no cofacet of E is carried into F, which settles
purity and the unique-facet interior rule.  Δ_F fails to be flag
exactly when some N with |N| >= 3 has every N - v carried into F while
N is a minimal non-face of the total or a total face carried outside
F.  So fast validation builds no complex, and full validation builds
each Δ_F only to certify its homology.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import (
    SimplicialComplex,
    _translate,
    card_offsets,
    face_counts,
    from_faces,
    iter_bits,
    iter_submasks,
    link_table,
    simplex,
)
from .errors import (
    BaseMismatch,
    BaseNotSimplex,
    CarrierMismatch,
    InvalidCarrier,
    NotAFace,
    NotHomologySubdivision,
    VertexCollision,
)
from .homology import GF2, FieldSpec, classify
from .polynomials import (
    ONE,
    ZERO,
    GammaVector,
    IntPolynomial,
    SymmetryFailure,
    gamma_from_symmetric,
    h_from_face_counts,
    h_polynomial,
    is_eulerian_link,
    local_h_from_counts,
)


@dataclass(frozen=True)
class SubdivisionVerdict:
    """Outcome of validating a subdivision map.

    ``failures`` lists (face, reason) pairs; faces are printed as
    comma-joined vertex names, with "()" for the empty face.
    """

    is_homology_subdivision: bool
    is_quasi_geometric: bool
    is_vertex_induced: bool
    is_flag_subdivision: bool
    failures: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "homology_subdivision": self.is_homology_subdivision,
            "quasi_geometric": self.is_quasi_geometric,
            "vertex_induced": self.is_vertex_induced,
            "flag_subdivision": self.is_flag_subdivision,
            "failures": [list(f) for f in self.failures],
        }


@dataclass(frozen=True)
class InteriorStats:
    """Interior vertex/edge counts of a subdivision of a simplex."""

    f0_interior: int
    f1_interior: int
    f0_codim1_relint: int

    def to_dict(self) -> dict:
        return {
            "interior_vertices": self.f0_interior,
            "interior_edges": self.f1_interior,
            "codim1_relint_vertices": self.f0_codim1_relint,
        }


@dataclass(frozen=True)
class DecompositionCheck:
    """Both sides of the face-sum decomposition of h(total).

    The gamma-level pair is present only when the base is Eulerian.
    """

    h_lhs: IntPolynomial
    h_rhs: IntPolynomial
    gamma_lhs: IntPolynomial | None = None
    gamma_rhs: IntPolynomial | None = None

    @property
    def h_equal(self) -> bool:
        return self.h_lhs == self.h_rhs

    @property
    def gamma_equal(self) -> bool:
        if self.gamma_lhs is None:
            return True
        return self.gamma_lhs == self.gamma_rhs

    @property
    def ok(self) -> bool:
        return self.h_equal and self.gamma_equal


@dataclass(frozen=True)
class LocalityCheck:
    lhs: IntPolynomial
    rhs: IntPolynomial

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def _local_gamma(ell: IntPolynomial, d: int) -> GammaVector:
    g = gamma_from_symmetric(ell, d)
    if isinstance(g, SymmetryFailure):
        raise NotHomologySubdivision(
            f"local h-polynomial not symmetric at pair {g.i},{g.j}; "
            "this indicates an invalid subdivision or a defect"
        )
    return g


def _quasi_geometric_witness(unions: dict[int, int]) -> int | None:
    """The first face whose union of vertex carriers is smaller than it."""
    return next((E for E, u in unions.items() if u.bit_count() < E.bit_count()), None)


def _face_repr(K: SimplicialComplex, mask: int) -> str:
    if mask >> len(K.labels):
        return bin(mask)
    return ",".join(K.names(mask)) or "()"


class SubdivisionMap:
    """Total complex, base complex, and an explicit total carrier map.

    Immutable after construction; all operations are pure functions.
    """

    __slots__ = ("total", "base", "carrier")

    def __init__(
        self,
        total: SimplicialComplex,
        base: SimplicialComplex,
        carrier: dict[int, int],
    ):
        self.total = total
        self.base = base
        try:
            self.carrier = {E: carrier[E] for E in total.faces()}
        except KeyError as exc:
            raise InvalidCarrier(f"carrier missing for face {exc}") from None
        if len(carrier) != total.num_faces():
            raise InvalidCarrier("carrier defined on non-faces")
        if self.carrier[0] != 0:
            raise InvalidCarrier("empty face must carry to the empty face")
        base_faces = base.face_set
        table = self.carrier
        for E, c in table.items():
            if c not in base_faces:
                raise InvalidCarrier(
                    f"carrier of {total.names(E)} is not a face of the base"
                )
            if c.bit_count() < E.bit_count():
                raise InvalidCarrier(
                    f"carrier of {total.names(E)} has smaller dimension"
                )
            rest = E
            while rest:
                low = rest & -rest
                sub = table[E ^ low]
                if sub & c != sub:
                    raise InvalidCarrier(
                        f"carrier not monotone at {total.names(E)}"
                    )
                rest ^= low
        if len(set(self.carrier.values())) != len(base_faces):
            raise InvalidCarrier("carrier map is not surjective onto the base")

    @classmethod
    def _from_valid(
        cls, total: SimplicialComplex, base: SimplicialComplex, carrier: dict[int, int]
    ) -> "SubdivisionMap":
        """A map taken as given, with ``carrier`` keyed in ``total.faces()``
        order.  Only constructors that derive it from valid maps may call
        this."""
        self = cls.__new__(cls)
        self.total, self.base, self.carrier = total, base, carrier
        return self

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubdivisionMap):
            return NotImplemented
        return (
            self.total == other.total
            and self.base == other.base
            and self.carrier == other.carrier
        )

    def __hash__(self) -> int:
        return hash((self.total, self.base, tuple(sorted(self.carrier.items()))))

    def __repr__(self) -> str:
        return (
            f"SubdivisionMap({len(self.total.faces())} faces over "
            f"{len(self.base.faces())} base faces)"
        )

    # -- restrictions ----------------------------------------------------

    def restriction(self, F: int) -> "SubdivisionMap":
        """Restriction over base face ``F``, as a subdivision of a simplex.

        The total ground set is trimmed to the vertex support, so the
        restriction of a trivial subdivision to F is literally the
        trivial subdivision of the simplex on F.
        """
        if F not in self.base.face_set:
            raise NotAFace(f"{_face_repr(self.base, F)} is not a base face")
        masks = [E for E, c in self.carrier.items() if c & F == c]
        support = 0
        for m in masks:
            support |= m
        keep = [i for i in range(len(self.total.labels)) if (support >> i) & 1]
        t_table = {old: new for new, old in enumerate(keep)}
        t_labels = tuple(self.total.labels[i] for i in keep)
        b_keep = list(iter_bits(F))
        b_table = {old: new for new, old in enumerate(b_keep)}
        new_total = from_faces(t_labels, [_translate(m, t_table) for m in masks])
        new_base = simplex(tuple(self.base.labels[i] for i in b_keep))
        carrier = {
            _translate(E, t_table): _translate(self.carrier[E], b_table)
            for E in masks
        }
        return SubdivisionMap(new_total, new_base, carrier)

    # -- validation --------------------------------------------------------

    def validate(
        self, spec: FieldSpec = GF2, fast: bool = False
    ) -> SubdivisionVerdict:
        """Check the subdivision axioms and the property hierarchy.

        Every restriction Δ_F to a base face F must be a homology ball
        of dimension |F| - 1 whose interior is the carrier preimage of
        F.  A ball's boundary is the closure of its ridges that lie in
        one facet, so in both modes the interior test, and the flag
        verdict of Δ_F, are read from the carriers of the cofacets of
        every total face (see `_restriction_defects`).  Full validation
        builds Δ_F only to ask `classify` whether it is a ball.  With
        ``fast=True`` homology is skipped and no restriction is built:
        Δ_F is only checked for purity, from the same carrier data.

        Failures are listed base face by base face in face order: in
        fast mode an impure restriction reports only its impurity; then
        the interior, the first face that is induced by the vertices of
        Δ_F but not carried into F, and non-flagness; the
        quasi-geometric witness comes last.
        """
        failures: list[tuple[str, str]] = []
        hs = vi = fl = True

        # A face lies on the vertices of the restriction to F iff the
        # union u of its vertex carriers lies in F, and is missing from
        # the restriction iff its carrier does not: only faces carried
        # beyond u can do both.
        unions = self._vertex_carrier_unions()
        loose = [(E, u, self.carrier[E]) for E, u in unions.items() if u != self.carrier[E]]
        impure, not_interior, not_flag = self._restriction_defects(loose)
        by_carrier: dict[int, list[int]] = {}
        if not fast:
            for E, c in self.carrier.items():
                by_carrier.setdefault(c, []).append(E)

        for F in self.base.faces():
            if F == 0:
                continue

            if fast and F in impure:
                hs = False
                failures.append(
                    (_face_repr(self.base, F), "restriction not pure of full dimension")
                )
                continue
            reason = None
            if not fast:
                masks = [E for c in iter_submasks(F) for E in by_carrier[c]]
                hc = classify(SimplicialComplex(self.total.labels, masks), spec)
                card = F.bit_count()
                if not hc.is_ball or hc.dimension != card - 1:
                    reason = (
                        f"restriction classifies as {hc.kind}({hc.dimension}),"
                        f" expected ball({card - 1})"
                    )
            if reason is None and F in not_interior:
                reason = "carrier preimage is not the interior"
            if reason is not None:
                hs = False
                failures.append((_face_repr(self.base, F), reason))

            # vertex-induced: restriction equals the induced subcomplex
            # on its own vertex set.
            for E, u, c in loose:
                if u & F == u and c & F != c:
                    vi = False
                    failures.append(
                        (
                            _face_repr(self.total, E),
                            f"induced by vertices of the restriction to "
                            f"{_face_repr(self.base, F)} but not carried into it",
                        )
                    )
                    break

            if F in not_flag:
                fl = False
                failures.append(
                    (_face_repr(self.base, F), "restriction is not flag")
                )

        witness = _quasi_geometric_witness(unions)
        if witness is not None:
            failures.append(
                (
                    _face_repr(self.total, witness),
                    "vertex carriers fit inside a lower-dimensional base face",
                )
            )

        return SubdivisionVerdict(hs, witness is None, vi, fl, tuple(failures))

    def quasi_geometric_witness(self) -> int | None:
        """The first total face whose vertex carriers fit inside a base
        face of lower dimension, or None when the map is quasi-geometric.

        The union of the vertex carriers of a face is itself a base face
        (a face of its carrier), so such a witness exists iff the union
        is smaller than the face.
        """
        return _quasi_geometric_witness(self._vertex_carrier_unions())

    def _restriction_defects(
        self, loose: list[tuple[int, int, int]]
    ) -> tuple[set[int], set[int], set[int]]:
        """The base faces F whose restriction Δ_F = {E : s(E) ⊆ F} is not
        pure of dimension |F| - 1; those whose carrier preimage is not
        the interior of Δ_F by the unique-facet boundary rule (meaningful
        where Δ_F is pure); and those where Δ_F is not flag.  All three
        are read from one pass over the total, with no Δ_F built.

        Let S(E) be the carriers of the cofacets of a total face E.  As
        Δ_F is downward closed, E is a facet of Δ_F iff s(E) ⊆ F and no
        t in S(E) lies in F; Δ_F is impure iff such an E has fewer than
        |F| vertices.  A ridge R of a pure Δ_F with s(R) = F lies in as
        many facets as F occurs in S(R).  So the preimage of F is the
        interior iff no such ridge lies in exactly one facet, and every
        maximal face of {E : s(E) ⊊ F} (no t in S(E) lies strictly
        inside F) is a ridge with F exactly once in S(E).

        A face E with s(E) in S(E) is maximal in no Δ_F and in no
        {s ⊊ F}.  A face with |E| = |s(E)| in whose S(E) every base
        cofacet of s(E) occurs exactly once is maximal only as a
        full-size facet of Δ_{s(E)} and as a one-facet ridge under each
        cofacet, which the rules allow.  On a valid map every face is of
        one of these two kinds, so only the other faces are walked over
        the base faces through their carriers.

        Δ_F is not flag iff it has a minimal non-face N with |N| >= 3.
        Every N - v is then a total face carried into F, so u(N), the
        union of the carriers of the N - v, lies in F; and N is either
        a minimal non-face of the total or a total face with s(N) not
        inside F.  Conversely each such N is a witness.  A flag total
        has no minimal non-face with 3 or more vertices, so its minimal
        non-faces are listed only when `is_flag` says it is not flag.
        """
        carrier = self.carrier
        base_faces = self.base.faces()
        cofacet_carriers: dict[int, list[int]] = {E: [] for E in carrier}
        for G, c in carrier.items():
            rest = G
            while rest:
                low = rest & -rest
                cofacet_carriers[G ^ low].append(c)
                rest ^= low

        def facet_carriers(N: int) -> int:
            u = 0
            for b in iter_bits(N):
                u |= carrier[N ^ (1 << b)]
            return u

        # A total face N is carried beyond u(N) only if it is carried
        # beyond the union of its vertex carriers, which u(N) contains.
        witnesses = [(facet_carriers(N), c) for N, _, c in loose if N.bit_count() >= 3]
        if not self.total.is_flag():
            witnesses += [
                (facet_carriers(N), None)
                for N in self.total.minimal_non_faces()
                if N.bit_count() >= 3
            ]
        base_cofacets: dict[int, int] = {F: 0 for F in base_faces}
        for F in base_faces:
            rest = F
            while rest:
                low = rest & -rest
                base_cofacets[F ^ low] += 1
                rest ^= low

        impure: set[int] = set()
        not_interior: set[int] = set()
        for E, c in carrier.items():
            ups = cofacet_carriers[E]
            k = E.bit_count()
            width = c.bit_count()
            if width == k + 1 and ups.count(c) == 1:
                not_interior.add(c)
            if c in ups:
                continue
            if width == k:
                next_up = [t for t in ups if t.bit_count() == k + 1]
                if len(next_up) == base_cofacets[c] == len(set(next_up)):
                    continue
            for F in base_faces:
                if F & c != c:
                    continue
                inside = [t for t in ups if t & F == t]
                if not inside and k < F.bit_count():
                    impure.add(F)
                if (
                    F != c
                    and all(t == F for t in inside)
                    and not (len(inside) == 1 and k + 1 == F.bit_count())
                ):
                    not_interior.add(F)
        not_flag = {
            F
            for u, c in witnesses
            for F in base_faces
            if u & F == u and (c is None or c & F != c)
        }
        return impure, not_interior, not_flag

    def _vertex_carrier_unions(self) -> dict[int, int]:
        """The union of the vertex carriers of every total face, in face
        order; each extends the union of the face minus its lowest
        vertex, which comes earlier in (card, mask) order."""
        unions = {0: 0}
        for E in self.total.faces()[1:]:
            low = E & -E
            unions[E] = unions[E ^ low] | self.carrier[low]
        return unions

    # -- local invariants ------------------------------------------------

    def _simplex_width(self) -> int:
        full = (1 << len(self.base.labels)) - 1
        if self.base.facets != frozenset({full}):
            raise BaseNotSimplex("operation requires a full simplex base")
        return len(self.base.labels)

    def local_h(self) -> IntPolynomial:
        """Local h-polynomial of a subdivision of the (d-1)-simplex.

        By definition the alternating sum over base faces F of
        (-1)**(d-|F|) h(restriction to F).  It is the relative local h
        at the empty face, which every face contains, so it is read
        from the histogram of the whole carrier table by
        (|G|, |s(G)|) (Stanley, "Subdivisions and local h-vectors",
        JAMS 5, 1992).
        """
        return self.relative_local_h(0)

    def relative_local_h(self, E: int) -> IntPolynomial:
        """Relative local h-polynomial at a total face ``E``.

        By definition the alternating sum over the base faces F
        containing s(E) of (-1)**(d-|F|) times the h-polynomial, of
        width |F|-|E|, of the link of E in the restriction to F.
        Summing over F first gives Stanley's face formula (JAMS 5, 1992)

            l_E(x) = sum over faces G containing E of
                     (-1)**(d-|s(G)|) x**(|G|-|E|+d-|s(G)|) (1-x)**(|s(G)|-|G|),

        with s the carrier map, read from the star histogram of E: the
        counts of (|G|, |s(G)|) over the faces G of the carrier table
        that contain E.  With |E| it fixes the polynomial, so faces with
        the same histogram have the same relative local h.  At the
        empty face it is `local_h`.  `_relative_local_h_table` gives it
        at every total face from one pass.
        """
        d = self._simplex_width()
        if E not in self.total.face_set:
            raise NotAFace(f"{_face_repr(self.total, E)} is not a face")
        counts = Counter(
            (G.bit_count(), c.bit_count())
            for G, c in self.carrier.items()
            if G & E == E
        )
        return local_h_from_counts(counts, d, E.bit_count())

    def local_gamma(self) -> GammaVector:
        """Gamma coordinates of the local h-polynomial, centered at d/2."""
        d = self._simplex_width()
        return _local_gamma(self.local_h(), d)

    def interior_stats(self) -> InteriorStats:
        d = self._simplex_width()
        full = (1 << d) - 1
        f0 = f1 = f0_rel = 0
        for E, c in self.carrier.items():
            k = E.bit_count()
            if k == 1:
                if c == full:
                    f0 += 1
                elif c.bit_count() == d - 1:
                    f0_rel += 1
            elif k == 2 and c == full:
                f1 += 1
        return InteriorStats(f0, f1, f0_rel)


# -- structural check operations ------------------------------------------


def _restricted_local_h(
    s: SubdivisionMap, links: dict[int, list[int]]
) -> dict[int, IntPolynomial]:
    """The nonzero local h of the restriction to each base face, with
    l_∅ = 1; every base face missing from the result has l_F = 0.

    The face formula of `SubdivisionMap.local_h` at width |F| runs over
    the faces carried into F, and its factor (-x)**(|F|-|s(G)|) depends
    on F only through |F|.  So with p_c the formula at width |c| over
    the faces carried exactly onto c, l_F is the sum over the base faces
    c inside F of (-x)**(|F|-|c|) p_c.  A base face carried onto only by
    one face of its own size has p_c = x**|c|, and for nonempty F

        sum over c inside F of (-x)**(|F|-|c|) x**|c| = x**|F| (1-1)**|F| = 0,

    so l_F is the same sum over q_c = p_c - x**|c|.  Only the carriers
    of nontrivially subdivided faces have q_c nonzero, and each is
    pushed up to the faces F = c | g of its star, read from ``links``,
    the `link_table` of the base.
    """
    hist = Counter(zip(s.carrier.values(), map(int.bit_count, s.carrier)))
    dirty = {c for (c, g), n in hist.items() if n != 1 or g != c.bit_count()}
    sums: dict[int, list[int]] = {}
    for c in dirty:
        width = c.bit_count()
        counts = [hist[c, g] for g in range(width + 1)]
        counts[width] -= 1
        q = h_from_face_counts(counts, width).coeffs
        for g in links[c]:
            shift = g.bit_count()
            sign = -1 if shift % 2 else 1
            acc = sums.setdefault(c | g, [0] * (width + shift + 1))
            for i, a in enumerate(q):
                acc[shift + i] += sign * a
    out = {0: ONE}
    for F in sorted(sums, key=lambda m: (m.bit_count(), m)):
        ell = IntPolynomial(sums[F])
        if ell:
            out[F] = ell
    return out


def _relative_local_h_table(s: SubdivisionMap) -> dict[int, IntPolynomial]:
    """`SubdivisionMap.relative_local_h` at every total face, in
    ``s.total.faces()`` order, from one pass that files the key
    |G|·(d+1) + |s(G)| of every face G under each submask E of G, as
    `link_table` files links.

    The sorted keys of E and |E| give its star histogram, the counts of
    (|G|, |s(G)|) over the faces G containing E, and Stanley's face
    formula depends on nothing else.  So the formula runs once per
    distinct (|E|, histogram), and faces with the same histogram share
    one polynomial."""
    d = s._simplex_width()
    radix = d + 1
    keys: dict[int, list[int]] = {E: [] for E in s.total.faces()}
    # Filing the faces in key order leaves every list sorted.
    for key, G in sorted(
        (G.bit_count() * radix + c.bit_count(), G) for G, c in s.carrier.items()
    ):
        for E in iter_submasks(G):
            keys[E].append(key)
    by_star: dict[tuple[int, tuple[int, ...]], IntPolynomial] = {}
    table: dict[int, IntPolynomial] = {}
    for E, ks in keys.items():
        star = (E.bit_count(), tuple(ks))
        ell = by_star.get(star)
        if ell is None:
            counts = {divmod(k, radix): n for k, n in Counter(ks).items()}
            ell = by_star[star] = local_h_from_counts(counts, d, star[0])
        table[E] = ell
    return table


def check_h_decomposition(s: SubdivisionMap) -> DecompositionCheck:
    """h(total) against the face sum of local contributions times links.

    This is Stanley's decomposition h(total) = sum over base faces F of
    l_F(x) h(link of F) (JAMS 5, 1992), with l_F the local h of the
    restriction to F.  When the base is Eulerian the gamma-level
    identity sum over F of xi_F gamma(link of F) is emitted as well.
    Both sums run only over the F with l_F nonzero (see
    `_restricted_local_h`): the other terms vanish, and l_∅ = 1 gives
    the term of the base itself.  The Eulerian test and the symmetry of
    h(link of F) at width dim + 1 - |F| still cover every base face, and
    an asymmetric link raises `NotHomologySubdivision`.  Equality is the
    caller's property to assert, not assumed.
    """
    h_lhs = h_polynomial(s.total)
    links = link_table(s.base)
    local = _restricted_local_h(s, links)
    link_counts = {F: tuple(face_counts(faces)) for F, faces in links.items()}
    # h of each distinct link f-vector, at the link's own width.
    h_of = {c: h_from_face_counts(c, len(c) - 1) for c in set(link_counts.values())}
    h_rhs = ZERO
    for F, ell in local.items():
        h_rhs = h_rhs + ell * h_of[link_counts[F]]
    if not all(is_eulerian_link(c) for c in h_of):
        return DecompositionCheck(h_lhs, h_rhs)
    d = s.base.dim + 1
    g_lhs = gamma_from_symmetric(h_lhs, d)
    if isinstance(g_lhs, SymmetryFailure):
        raise NotHomologySubdivision(
            "h of a subdivision of an Eulerian base is not symmetric: "
            f"pair {g_lhs.i},{g_lhs.j}"
        )
    for c, w in {(c, d - F.bit_count()) for F, c in link_counts.items()}:
        if not h_of[c].is_symmetric(w):
            raise NotHomologySubdivision("link of an Eulerian complex is not Eulerian")
    g_rhs = ZERO
    for F, ell in local.items():
        g_link = gamma_from_symmetric(h_of[link_counts[F]], d - F.bit_count())
        g_local = _local_gamma(ell, F.bit_count())
        g_rhs = g_rhs + g_local.polynomial() * g_link.polynomial()
    return DecompositionCheck(h_lhs, h_rhs, g_lhs.polynomial(), g_rhs)


def _gamma_terms(
    s: SubdivisionMap,
) -> list[tuple[int, GammaVector | SymmetryFailure, GammaVector | SymmetryFailure]]:
    """The terms of γ(total) − γ(base) = Σ over nonempty base faces F of
    ξ(Δ_F)·γ(lk F), the γ form of `check_h_decomposition` without its
    F = ∅ term, as (F, ξ(Δ_F), γ(lk F)) in base face order.

    Only the F with nonzero local h are listed (see
    `_restricted_local_h`); each of them has a nonzero term, as ξ is
    nonzero with l_F and γ(lk F) starts with h_0 = 1.  A factor whose
    polynomial is not symmetric is given as its `SymmetryFailure`.
    """
    links = link_table(s.base)
    d = s.base.dim + 1
    terms = []
    for F, ell in _restricted_local_h(s, links).items():
        if F:
            counts = face_counts(links[F])
            h_link = h_from_face_counts(counts, len(counts) - 1)
            terms.append(
                (
                    F,
                    gamma_from_symmetric(ell, F.bit_count()),
                    gamma_from_symmetric(h_link, d - F.bit_count()),
                )
            )
    return terms


def check_locality(outer: SubdivisionMap, inner: SubdivisionMap) -> LocalityCheck:
    """Local h of a composed subdivision against the locality face sum
    over the faces E of the outer total of l_E(inner) times the relative
    local h of the outer map at E.  The sum runs only over the E with
    l_E(inner) nonzero (see `_restricted_local_h`); the others add
    nothing.  Those few relative local h are read face by face, each
    from one pass over the carrier table, which costs less than the
    whole table of `_relative_local_h_table`, even with its star
    histograms shared: over the 36 outer maps of the `theorem-large`
    benchmark at seed 0, the 97 faces needed take about 4 ms against
    15-24 ms for the tables (best of 40 passes, 2-core x86_64 Xeon)."""
    composed = compose(outer, inner)
    lhs = composed.local_h()
    local = _restricted_local_h(inner, link_table(outer.total))
    rhs = ZERO
    for E, ell in local.items():
        rhs = rhs + ell * outer.relative_local_h(E)
    return LocalityCheck(lhs, rhs)


def compose(outer: SubdivisionMap, inner: SubdivisionMap) -> SubdivisionMap:
    """Composite map: carriers of ``inner`` pushed through ``outer``."""
    if inner.base != outer.total:
        raise BaseMismatch("inner base must equal outer total")
    carrier = {E: outer.carrier[c] for E, c in inner.carrier.items()}
    return SubdivisionMap._from_valid(inner.total, outer.base, carrier)


# -- constructors ----------------------------------------------------------


def trivial_subdivision(K: SimplicialComplex) -> SubdivisionMap:
    return SubdivisionMap._from_valid(K, K, {E: E for E in K.faces()})


def barycenter_name(names: tuple[str, ...]) -> str:
    return "b{" + ".".join(sorted(names)) + "}"


def stellar_subdivision(
    K: SimplicialComplex, face: int, new_vertex: str | None = None
) -> SubdivisionMap:
    """Replace the star of ``face`` by the cone over its boundary joined
    with its link.  Old faces keep their identity carrier; faces through
    the new vertex carry to their closure union ``face``.

    The total is read off K in one pass: its faces are K's faces outside
    the open star of ``face``, plus the new vertex joined with the rim of
    the closed star (the faces H not containing ``face`` with H | face a
    face).  The new vertex is the highest bit, so splicing the two lists
    cardinality by cardinality keeps (card, mask) order.
    """
    if face not in K.face_set:
        raise NotAFace(f"{K.names(face)} is not a face")
    if face == 0:
        raise NotAFace("cannot subdivide the empty face")
    if new_vertex is None:
        new_vertex = barycenter_name(K.names(face))
    if new_vertex in K.labels:
        raise VertexCollision(f"label {new_vertex!r} already present")
    v_bit = 1 << len(K.labels)
    face_set = K.face_set
    outside = [G for G in K.faces() if G & face != face]
    rim = [H for H in outside if H | face in face_set]
    top = K.faces()[-1].bit_count()
    out_at = card_offsets(outside, top)
    rim_at = card_offsets(rim, top)
    faces = outside[: out_at[1]]
    for k in range(1, top + 1):
        faces += outside[out_at[k] : out_at[k + 1]]
        faces += [v_bit | H for H in rim[rim_at[k - 1] : rim_at[k]]]
    facets = [G for G in K.facets if G & face != face]
    facets += [
        v_bit | (G ^ (1 << b))
        for G in K.facets
        if G & face == face
        for b in iter_bits(face)
    ]
    total = SimplicialComplex._from_ordered(K.labels + (new_vertex,), facets, faces)
    carrier = {G: (G ^ v_bit) | face if G & v_bit else G for G in faces}
    return SubdivisionMap._from_valid(total, K, carrier)


def edge_subdivision(
    K: SimplicialComplex, edge: int, new_vertex: str | None = None
) -> SubdivisionMap:
    if edge.bit_count() != 2:
        raise NotAFace("edge subdivision requires a two-vertex face")
    return stellar_subdivision(K, edge, new_vertex)


def barycentric_subdivision(names) -> SubdivisionMap:
    """First barycentric subdivision of the simplex on ``names``, built
    as iterated stellar subdivisions of its faces in decreasing
    dimension order.  Vertices are kept; each subdivided face gets the
    deterministic barycenter name derived from its members."""
    names = tuple(names)
    base = simplex(names)
    s = trivial_subdivision(base)
    # Faces of the original simplex survive top-down subdivision.  The
    # empty face and the vertices lead base.faces() and are not split.
    for F in sorted(base.faces()[len(names) + 1 :], key=lambda m: (-m.bit_count(), m)):
        s = compose(s, stellar_subdivision(s.total, F, barycenter_name(base.names(F))))
    return s


def join_subdivision(s1: SubdivisionMap, s2: SubdivisionMap) -> SubdivisionMap:
    """Join of two subdivisions: carriers are unions of the factors'."""
    total = s1.total.join(s2.total)
    base = s1.base.join(s2.base)
    ts = len(s1.total.labels)
    low = (1 << ts) - 1
    bs = len(s1.base.labels)
    c1, c2 = s1.carrier, s2.carrier
    carrier = {E: c1[E & low] | (c2[E >> ts] << bs) for E in total.faces()}
    return SubdivisionMap._from_valid(total, base, carrier)


def link_subdivision(s: SubdivisionMap, names) -> SubdivisionMap:
    """Link of the map at a face common to total and base and fixed by
    the carrier."""
    names = tuple(names)
    Ft = s.total.mask(names)
    Fb = s.base.mask(names)
    if Ft not in s.total.face_set or Fb not in s.base.face_set:
        raise NotAFace(f"{names} is not a common face")
    if s.carrier[Ft] != Fb:
        raise CarrierMismatch(f"{names} is not fixed by the carrier map")
    ltotal = s.total.link(Ft)
    lbase = s.base.link(Fb)
    t_back = {new: old for new, old in enumerate(
        i for i in range(len(s.total.labels)) if not (Ft >> i) & 1
    )}
    b_fwd = {old: new for new, old in enumerate(
        i for i in range(len(s.base.labels)) if not (Fb >> i) & 1
    )}
    carrier = {}
    for E in ltotal.faces():
        orig = Ft
        for b in iter_bits(E):
            orig |= 1 << t_back[b]
        carrier[E] = _translate(s.carrier[orig] & ~Fb, b_fwd)
    return SubdivisionMap(ltotal, lbase, carrier)
