"""Finite abstract simplicial complexes over a labeled ground set.

Faces are encoded as integer bitmasks relative to the owning complex's
label tuple, so containment tests and set algebra are single integer
operations.  The empty face (mask 0) belongs to every complex; the
minimal representable complex is ``{empty}``.  Complexes are immutable
and every operation is a pure function returning new values, so they
are safe to share across threads.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from .errors import (
    GroundSetOverlap,
    NotAFace,
    UnknownVertex,
)


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` (including 0 and ``mask``)."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SimplicialComplex:
    """A downward-closed family of subsets of a labeled ground set.

    Stored as the antichain of facets plus the full face list, ordered
    by (cardinality, bitmask value) so that output is deterministic.
    Both come from one pass over the distinct generators, largest
    first: a generator becomes a facet unless it is already a face of
    the facets kept before it, and each new facet adds the submasks
    that the faces so far may lack.
    """

    __slots__ = ("labels", "facets", "_index", "_faces", "_face_set")

    def __init__(self, labels: Iterable[str], facet_masks: Iterable[int]):
        labels = tuple(labels)
        index = _label_index(labels)
        facets: set[int] = set()
        faces: set[int] = set()
        for g in sorted(set(facet_masks), key=int.bit_count, reverse=True):
            if g in faces:
                continue
            facets.add(g)
            # A submask that misses a vertex b with g ^ b a face is a
            # face already, so only the submasks holding every such b
            # are added: those doubled over the other vertices.
            subs = [0]
            have = 0
            rest = g
            while rest:
                low = rest & -rest
                if g ^ low in faces:
                    have |= low
                else:
                    subs += [x | low for x in subs]
                rest ^= low
            faces.update([x | have for x in subs] if have else subs)
        if not facets:
            facets.add(0)
            faces.add(0)
        self._fill(
            labels, index, facets, faces, sorted(sorted(faces), key=int.bit_count)
        )

    @classmethod
    def _from_ordered(
        cls, labels: tuple[str, ...], facets: Iterable[int], faces: Sequence[int]
    ) -> "SimplicialComplex":
        """A complex from its facet antichain and its full face list in
        (card, mask) order, taken as given.  Only library code that
        produced both lists itself may call this."""
        self = cls.__new__(cls)
        self._fill(labels, _label_index(labels), set(facets), set(faces), faces)
        return self

    def _fill(
        self,
        labels: tuple[str, ...],
        index: dict[str, int],
        facets: set[int],
        faces: set[int],
        ordered: Sequence[int],
    ) -> None:
        # A frozenset copied from a set is sized for its contents; one
        # built from a sequence keeps the slack of incremental growth.
        self.labels = labels
        self._index = index
        self.facets = frozenset(facets)
        self._faces = tuple(ordered)
        self._face_set = frozenset(faces)

    # -- basic accessors ------------------------------------------------

    def mask(self, names: Iterable[str]) -> int:
        """Bitmask of a vertex-name collection."""
        return _mask(self._index, names)

    def names(self, mask: int) -> tuple[str, ...]:
        """Vertex names of a mask, in label order (not sorted by string).

        Any mask is accepted, face or not; a bit past the ground set
        raises ``IndexError``."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def faces(self) -> tuple[int, ...]:
        """All faces including the empty face, each exactly once."""
        return self._faces

    @property
    def face_set(self) -> frozenset[int]:
        return self._face_set

    def has_face(self, mask: int) -> bool:
        return mask in self._face_set

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def vertex_support(self) -> int:
        """Mask of labels that actually occur as vertices."""
        m = 0
        for f in self.facets:
            m |= f
        return m

    def num_faces(self) -> int:
        return len(self._faces)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts (f_-1, f_0, ..., f_{dim}) with f_-1 = 1, read from
        the `card_offsets` of the face list."""
        at = card_offsets(self._faces, self._faces[-1].bit_count())
        return tuple(b - a for a, b in zip(at, at[1:]))

    def is_pure(self) -> bool:
        cards = {f.bit_count() for f in self.facets}
        return len(cards) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.labels == other.labels and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self.labels, self.facets))

    def __repr__(self) -> str:
        facets = sorted(",".join(self.names(f)) for f in self.facets)
        return f"SimplicialComplex({list(self.labels)!r}, facets={facets!r})"

    # -- derived complexes ----------------------------------------------

    def link(self, face: int) -> "SimplicialComplex":
        """Link of ``face``, on the ground set of the remaining labels."""
        if face not in self._face_set:
            raise NotAFace(f"{self.names(face)} is not a face")
        keep = [i for i in range(len(self.labels)) if not (face >> i) & 1]
        table = {old: new for new, old in enumerate(keep)}
        labels = tuple(self.labels[i] for i in keep)
        facet_masks = [
            _translate(g & ~face, table)
            for g in self.facets
            if face & g == face
        ]
        return SimplicialComplex(labels, facet_masks)

    def open_star(self, face: int) -> frozenset[int]:
        """All faces containing ``face``.  Not downward closed."""
        if face not in self._face_set:
            raise NotAFace(f"{self.names(face)} is not a face")
        return frozenset(g for g in self._faces if g & face == face)

    def closed_star(self, face: int) -> "SimplicialComplex":
        """Downward closure of the open star, on the same ground set."""
        if face not in self._face_set:
            raise NotAFace(f"{self.names(face)} is not a face")
        return SimplicialComplex(
            self.labels, [g for g in self.facets if g & face == face]
        )

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join; requires disjoint ground sets."""
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise GroundSetOverlap(f"shared labels: {sorted(overlap)}")
        shift = len(self.labels)
        facet_masks = [
            f1 | (f2 << shift) for f1 in self.facets for f2 in other.facets
        ]
        return SimplicialComplex(self.labels + other.labels, facet_masks)

    def cone(self, apex: str) -> "SimplicialComplex":
        """Cone over this complex on a new vertex ``apex``."""
        point = SimplicialComplex((apex,), [1])
        return self.join(point)

    # -- flagness ---------------------------------------------------------

    def minimal_non_faces(self) -> tuple[int, ...]:
        """Inclusion-minimal non-faces among subsets of the vertex set,
        computed afresh on each call.

        Labels that occur in no face are ignored: flagness is a property
        of the complex on its own vertices, and this keeps links and
        joins of flag complexes flag.
        """
        support = self.vertex_support
        adj = adjacency(self)
        # Candidates at cardinality k are (k-1)-faces plus one support
        # vertex; a candidate is minimal iff all its facets are faces.
        # From k = 3 on, that makes the added vertex a common neighbour
        # of the face's vertices, so only those are tried.
        result: set[int] = set()
        common = {0: support}
        for face in self._faces:
            if face:
                low = face & -face
                common[face] = common[face ^ low] & adj[low.bit_length() - 1]
            reach = common[face] if face.bit_count() > 1 else support & ~face
            for i in iter_bits(reach):
                cand = face | (1 << i)
                if cand in self._face_set or cand in result:
                    continue
                if all(
                    cand & ~(1 << j) in self._face_set
                    for j in iter_bits(cand)
                ):
                    result.add(cand)
        return tuple(sorted(sorted(result), key=int.bit_count))

    def is_flag(self) -> bool:
        """Whether every clique of the graph is a face, that is, every
        minimal non-face has two vertices.

        Every face is a clique of the graph on the vertex support, so
        the graph has at least as many cliques as the complex has faces,
        and exactly as many iff every clique is a face.  The cliques are
        counted by `clique_count`, capped one past the face count.
        """
        n = self.num_faces()
        return clique_count(adjacency(self), self.vertex_support, n) == n


def face_counts(faces: Iterable[int]) -> list[int]:
    """Counts by cardinality of a face family given in (card, mask)
    order, as ``K.faces()`` and the lists of `link_table` are.

    Most calls count a link of a few dozen faces at most.  On CPython
    3.11 this loop counts those in about half the time that reading
    their `card_offsets` takes; the offsets win only on families of
    thousands of faces, so `SimplicialComplex.f_vector` reads them for
    a whole face list."""
    counts: list[int] = []
    for f in faces:
        k = f.bit_count()
        if k == len(counts):
            counts.append(0)
        counts[k] += 1
    return counts


def link_table(K: SimplicialComplex) -> dict[int, list[int]]:
    """The faces of every face link, from one pass over the faces.

    ``links[f]`` lists ``g ^ f`` for the faces ``g`` containing ``f``, in
    the (card, mask) order of ``K.faces()`` and on the ground set of
    ``K``: the faces of ``K.link(f)`` with bit order kept, so boundary
    matrices built from them equal those of ``K.link(f)``, signs
    included.  The cost is linear in the sum of 2**|g| over the faces.
    """
    links: dict[int, list[int]] = {f: [] for f in K.faces()}
    for g in K.faces():
        for f in iter_submasks(g):
            links[f].append(g ^ f)
    return links


def adjacency(K: SimplicialComplex) -> list[int]:
    """The neighbours of each label's vertex in the graph of ``K``, as
    one mask per label."""
    adj = [0] * len(K.labels)
    at = card_offsets(K.faces(), 2)
    for e in K.faces()[at[2] : at[3]]:
        a = e & -e
        adj[a.bit_length() - 1] |= e ^ a
        adj[e.bit_length() - 1] |= a
    return adj


def clique_count(adj: Sequence[int], within: int, limit: int) -> int:
    """The cliques of the graph ``adj`` (one neighbour mask per vertex)
    inside the vertex mask ``within``, the empty one included, or
    ``limit + 1`` if there are more than ``limit``.

    Each clique is counted once, from its vertices in increasing order:
    a mask on the stack holds the vertices that may follow a clique
    already counted, each of them a clique one larger.  The walk is an
    explicit stack, so a large clique needs no deep recursion, and the
    cap bounds its time and the stack by ``limit``.
    """
    count = 1
    stack = [within]
    while stack:
        rest = stack.pop()
        count += rest.bit_count()
        if count > limit:
            return limit + 1
        while rest:
            low = rest & -rest
            rest ^= low
            up = rest & adj[low.bit_length() - 1]
            if up:
                stack.append(up)
    return count


def card_offsets(faces: Sequence[int], top: int) -> list[int]:
    """Where each cardinality 0..top+1 starts in a face family given in
    (card, mask) order, as ``K.faces()`` is: for k <= top the faces of
    cardinality k are ``faces[offsets[k]:offsets[k + 1]]``."""
    return [bisect_left(faces, k, key=int.bit_count) for k in range(top + 2)]


def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    index = {name: i for i, name in enumerate(labels)}
    if len(index) != len(labels):
        raise UnknownVertex("ground set labels must be distinct")
    return index


def _mask(index: dict[str, int], names: Iterable[str]) -> int:
    m = 0
    for name in names:
        try:
            m |= 1 << index[name]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {name!r}") from None
    return m


def _translate(mask: int, table: dict[int, int]) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= 1 << table[i]
    return out


def from_facets(
    labels: Iterable[str], generators: Iterable[Iterable[str]]
) -> SimplicialComplex:
    """Downward closure of the given generators.

    Dominated generators are dropped silently so the stored facets form
    an antichain.  An empty generator list yields the complex ``{empty}``.
    Faces are unbounded integers, so any number of labels is accepted.
    """
    labels = tuple(labels)
    index = _label_index(labels)
    return SimplicialComplex(labels, [_mask(index, g) for g in generators])


def from_faces(labels: Iterable[str], face_masks: Iterable[int]) -> SimplicialComplex:
    """Complex whose facets are the maximal members of ``face_masks``.

    The input is assumed downward closed.  Members are visited largest
    first and each one that is not yet a face of the facets kept so far
    becomes a facet, so a downward-closed input costs one set lookup per
    member that is not a facet.
    """
    return SimplicialComplex(labels, face_masks)


def simplex(labels: Iterable[str]) -> SimplicialComplex:
    """The full simplex on the given vertex names."""
    labels = tuple(labels)
    return SimplicialComplex(labels, [(1 << len(labels)) - 1])


def sphere_zero(a: str, b: str) -> SimplicialComplex:
    """Two isolated vertices."""
    return SimplicialComplex((a, b), [1, 2])


def cross_polytope_on(
    u_labels: Iterable[str], v_labels: Iterable[str]
) -> SimplicialComplex:
    """Boundary complex of a cross-polytope with explicit antipodal pairs.

    Faces contain at most one of each pair ``{u_i, v_i}``; there are
    ``2**d`` facets, one per choice of a member from every pair.
    """
    u_labels, v_labels = tuple(u_labels), tuple(v_labels)
    d = len(u_labels)
    if len(v_labels) != d or d < 1:
        raise ValueError("need matching nonempty u/v label sequences")
    facet_masks = []
    for pick in range(1 << d):
        m = 0
        for i in range(d):
            if (pick >> i) & 1:
                m |= 1 << (d + i)  # v_i
            else:
                m |= 1 << i  # u_i
        facet_masks.append(m)
    return SimplicialComplex(u_labels + v_labels, facet_masks)


def cross_polytope(d: int) -> SimplicialComplex:
    """Boundary complex of the d-dimensional cross-polytope.

    The flag (d-1)-sphere on vertices u_1..u_d, v_1..v_d, equal to the
    d-fold join of two-point spheres.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return cross_polytope_on(
        [f"u{i}" for i in range(1, d + 1)],
        [f"v{i}" for i in range(1, d + 1)],
    )
