"""JSON documents for complexes and subdivision maps.

Complex: {"labels": [...], "facets": [[names]...]}.
Subdivision: {"base": <complex>, "total": <complex>,
              "carrier": {"<sorted-face-key>": [base names]}}
where a face key joins its sorted vertex names with commas and the
empty face's entry is implicit.
"""

from __future__ import annotations

from .complexes import SimplicialComplex, from_facets
from .errors import MalformedInstance
from .subdivisions import SubdivisionMap


def _face_key(names) -> str:
    return ",".join(sorted(names))


def _check_labels(labels) -> None:
    for label in labels:
        if "," in label:
            raise MalformedInstance(f"label {label!r} contains a comma")


def complex_to_doc(K: SimplicialComplex) -> dict:
    _check_labels(K.labels)
    facets = sorted(
        (list(K.names(f)) for f in K.facets), key=lambda ns: (len(ns), ns)
    )
    return {"labels": list(K.labels), "facets": facets}


def complex_from_doc(doc) -> SimplicialComplex:
    if not isinstance(doc, dict) or "labels" not in doc or "facets" not in doc:
        raise MalformedInstance("complex document needs 'labels' and 'facets'")
    labels = doc["labels"]
    facets = doc["facets"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MalformedInstance("'labels' must be a list of strings")
    if not isinstance(facets, list) or not all(
        isinstance(f, list) and all(isinstance(x, str) for x in f) for f in facets
    ):
        raise MalformedInstance("'facets' must be a list of name lists")
    _check_labels(labels)
    # Faces are unbounded integers, so a document is read at its own
    # width: every complex the tool writes reads back, whatever its size.
    return from_facets(labels, facets, max_vertices=len(labels))


def subdivision_to_doc(s: SubdivisionMap) -> dict:
    _check_labels(s.total.labels)
    carrier = {}
    for E, c in s.carrier.items():
        if E == 0:
            continue
        carrier[_face_key(s.total.names(E))] = sorted(s.base.names(c))
    return {
        "base": complex_to_doc(s.base),
        "total": complex_to_doc(s.total),
        "carrier": carrier,
    }


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
    carrier = {0: 0}
    for key, names in raw.items():
        face = total.mask(key.split(","))
        if face in carrier:
            raise MalformedInstance(f"carrier key {key!r} names a face twice")
        if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
            raise MalformedInstance(f"carrier of {key!r} must be a name list")
        carrier[face] = base.mask(names)
    missing = [E for E in total.faces() if E not in carrier]
    if missing:
        raise MalformedInstance(
            f"carrier missing for {len(missing)} faces, "
            f"first: {sorted(total.names(missing[0]))}"
        )
    return SubdivisionMap(total, base, carrier)
