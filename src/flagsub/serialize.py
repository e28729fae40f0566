"""JSON documents for complexes and subdivision maps.

Complex: {"labels": [...], "facets": [[names]...]}.
Subdivision: {"base": <complex>, "total": <complex>,
              "carrier": {"<sorted-face-key>": [base names]}}
where a face key joins its vertex names with commas, and both the key
and the carrier's name list are sorted by string, not by label order:
labels ``9`` and ``10`` give the key ``10,9``.  Facet name lists keep
label order.  The empty face's entry is implicit.

The reader looks each name up in a table of the labels.  A lookup that
misses, or a carrier value that is not a list, sends that key or value
through the type checks and ``SimplicialComplex.mask``, and these make
every error message.
"""

from __future__ import annotations

from bisect import insort
from itertools import chain, repeat

from .complexes import SimplicialComplex, from_facets
from .errors import MalformedInstance
from .subdivisions import SubdivisionMap


def _check_labels(labels) -> None:
    for label in labels:
        if "," in label:
            raise MalformedInstance(f"label {label!r} contains a comma")


def complex_to_doc(K: SimplicialComplex) -> dict:
    _check_labels(K.labels)
    # Sorted by (size, names): by names, then stably by size.
    facets = [list(K.names(f)) for f in K.facets]
    facets.sort()
    facets.sort(key=len)
    return {"labels": list(K.labels), "facets": facets}


def complex_from_doc(doc) -> SimplicialComplex:
    if not isinstance(doc, dict) or "labels" not in doc or "facets" not in doc:
        raise MalformedInstance("complex document needs 'labels' and 'facets'")
    labels = doc["labels"]
    facets = doc["facets"]
    if not isinstance(labels, list) or not all(map(isinstance, labels, repeat(str))):
        raise MalformedInstance("'labels' must be a list of strings")
    if not (
        isinstance(facets, list)
        and all(map(isinstance, facets, repeat(list)))
        and all(map(isinstance, chain.from_iterable(facets), repeat(str)))
    ):
        raise MalformedInstance("'facets' must be a list of name lists")
    _check_labels(labels)
    return from_facets(labels, facets)


def _sorted_names(K: SimplicialComplex) -> dict[int, list[str]]:
    """The names of every face of ``K``, sorted by string, from one pass
    over ``K.faces()``: in (card, mask) order the face without its top
    vertex comes first, so each face's list is that face's list with
    the top vertex's name inserted."""
    labels = K.labels
    table: dict[int, list[str]] = {0: []}
    for f in K.faces()[1:]:
        h = f.bit_length() - 1
        names = table[f ^ (1 << h)].copy()
        insort(names, labels[h])
        table[f] = names
    return table


def subdivision_to_doc(s: SubdivisionMap) -> dict:
    _check_labels(s.total.labels)
    keys = _sorted_names(s.total)
    names = _sorted_names(s.base)
    # Each value is a copy, so no two entries share a list.
    carrier = {",".join(keys[E]): names[c].copy() for E, c in s.carrier.items() if E}
    return {
        "base": complex_to_doc(s.base),
        "total": complex_to_doc(s.total),
        "carrier": carrier,
    }


def _bits(K: SimplicialComplex) -> dict[str, int]:
    return {name: 1 << i for i, name in enumerate(K.labels)}


def subdivision_from_doc(doc) -> SubdivisionMap:
    if not isinstance(doc, dict) or not {"base", "total", "carrier"} <= doc.keys():
        raise MalformedInstance(
            "subdivision document needs 'base', 'total' and 'carrier'"
        )
    base = complex_from_doc(doc["base"])
    total = complex_from_doc(doc["total"])
    raw = doc["carrier"]
    if not isinstance(raw, dict):
        raise MalformedInstance("'carrier' must be an object")
    t_bits = _bits(total)
    b_bits = _bits(base)
    carrier = {0: 0}
    for key, names in raw.items():
        # A lookup that misses, or a value that is not a list, takes
        # the checked path, which raises the error.
        try:
            face = 0
            for name in key.split(","):
                face |= t_bits[name]
        except KeyError:
            face = total.mask(key.split(","))
        if face in carrier:
            raise MalformedInstance(f"carrier key {key!r} names a face twice")
        try:
            if type(names) is not list:
                raise TypeError
            c = 0
            for name in names:
                c |= b_bits[name]
        except (KeyError, TypeError):
            if not isinstance(names, list) or not all(
                isinstance(x, str) for x in names
            ):
                raise MalformedInstance(
                    f"carrier of {key!r} must be a name list"
                ) from None
            c = base.mask(names)
        carrier[face] = c
    if not carrier.keys() >= total.face_set:
        missing = [E for E in total.faces() if E not in carrier]
        raise MalformedInstance(
            f"carrier missing for {len(missing)} faces, "
            f"first: {sorted(total.names(missing[0]))}"
        )
    return SubdivisionMap(total, base, carrier)
