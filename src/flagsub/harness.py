"""Seeded instance generators and the conjecture/theorem check suite.

Checks come in two tiers.  Theorem-tier checks cover proven statements
and must pass on every generated instance; a failure is an
implementation defect.  Conjecture-tier checks cover open statements
and are reported with a replayable witness, never asserted: a genuine
counterexample is a result, not a bug.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

from .complexes import (
    SimplicialComplex,
    adjacency,
    clique_count,
    cross_polytope,
    iter_bits,
    simplex,
    sphere_zero,
)
from .errors import FlagsubError, MalformedInstance, VertexCollision
from .polynomials import (
    GammaVector,
    IntPolynomial,
    SymmetryFailure,
    gamma_from_symmetric,
    gamma_vector,
    h_polynomial,
)
from .subdivisions import (
    SubdivisionMap,
    _gamma_terms,
    _local_gamma,
    _relative_local_h_table,
    barycenter_name,
    check_h_decomposition,
    check_locality,
    trivial_subdivision,
)

#: Identity of the pseudo-random generator used for instance sampling,
#: recorded in every report header.
RNG_NAME = "mersenne-twister (python random.Random)"

#: Refuse to grow instances beyond this many total faces.  Each
#: `join-with-S0` triples the face count; a trail refused at this cap
#: peaks at about 130 MiB.
MAX_FACES = 1 << 18

EDGE_SUBDIVIDE = "edge-subdivide"
JOIN_WITH_S0 = "join-with-S0"


@dataclass(frozen=True)
class GeneratorSpec:
    """Reproducible recipe for a random flag sphere."""

    dimension: int
    steps: int
    seed: int
    moves: tuple[str, ...] = (EDGE_SUBDIVIDE,)

    def __post_init__(self):
        if self.dimension < 1:
            raise MalformedInstance("dimension must be >= 1")
        bad = set(self.moves) - {EDGE_SUBDIVIDE, JOIN_WITH_S0}
        if bad or not self.moves:
            raise MalformedInstance(f"unknown moves: {sorted(bad)}")


def _size_guard(num_faces: int) -> None:
    if num_faces > MAX_FACES:
        raise MalformedInstance(f"instance exceeded {MAX_FACES} faces; refuse to continue")


def _cross_polytope_start(dimension: int) -> SimplicialComplex:
    # 3**dimension faces; past the cap's bit length 2**d alone exceeds it.
    _size_guard(3 ** min(dimension, MAX_FACES.bit_length()))
    return cross_polytope(dimension)


def _nth_edge(adj: list[int], r: int) -> tuple[int, int]:
    """The vertices i < j of the edge at index ``r`` in mask order, which
    sorts edges by j, then by i."""
    for j, nbrs in enumerate(adj):
        below = nbrs & ((1 << j) - 1)
        k = below.bit_count()
        if r < k:
            for _ in range(r):
                below &= below - 1
            return (below & -below).bit_length() - 1, j
        r -= k


def _clique_trail(
    labels: list[str], adj: list[int], carriers: list[int]
) -> tuple[SimplicialComplex, list[int]]:
    """The clique complex of the graph ``adj`` on ``labels``, and the
    union of the vertex ``carriers`` of each of its faces, in face order.

    The cliques are walked level by level, with no sort and no
    recursion.  A clique grows only by a common neighbour below its
    lowest vertex, so each is found once, from the clique without its
    lowest vertex.  Level k is walked in mask order and each clique
    takes its new vertices in increasing order, so level k + 1 comes
    out in mask order too: among masks of one cardinality mask order is
    colex order, and every child of an earlier clique is smaller than
    every child of a later one.  So the faces come out in (card, mask)
    order.  Both moves keep a pure complex pure, so the facets are the
    last level.
    """
    faces = [0]
    found = [0]
    level = [
        (1 << w, carriers[w], nbrs & ((1 << w) - 1)) for w, nbrs in enumerate(adj)
    ]
    top = 0
    while level:
        top = len(faces)
        deeper = []
        for face, carrier, below in level:
            faces.append(face)
            found.append(carrier)
            rest = below
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                deeper.append(
                    (face | low, carrier | carriers[i], below & adj[i] & (low - 1))
                )
        level = deeper
    return SimplicialComplex._from_ordered(tuple(labels), faces[top:], faces), found


class _Trail:
    """A random trail carried as its graph: the labels, one neighbour
    mask and one carrier per vertex, the base the carriers are taken
    in, and the edge and face counts of the graph's clique complex.

    It starts from a pure flag complex ``K`` whose every label is a
    vertex, as the trivial subdivision of ``K``.
    """

    def __init__(self, K: SimplicialComplex):
        self.labels = list(K.labels)
        self.adj = adjacency(K)
        self.edges = sum(map(int.bit_count, self.adj)) // 2
        self.count = K.num_faces()
        self.rebase(K)

    def rebase(self, K: SimplicialComplex) -> None:
        """Start the carriers afresh over ``K``, the clique complex of the
        graph as it stands, so that every vertex is carried onto itself."""
        self.base = K
        self.carriers = [1 << i for i in range(len(self.labels))]

    def grow(self, steps: int, rng: random.Random, moves=None) -> None:
        """Apply ``steps`` random moves.  With ``moves`` given, each step
        draws one, even from a single move; else each step is an edge
        subdivision and draws only the edge, uniformly from the edges in
        (card, mask) order.

        Both moves keep the complex flag: subdividing the edge uv by a
        new vertex w drops uv and joins w to u, v and their common
        neighbours, and a join with S^0 adds two vertices joined to
        every old vertex.  So a step changes only the graph, the labels
        and the carriers: the total is the clique complex of the graph,
        and every face is carried onto the union of its vertex carriers,
        as the composite of the stellar maps and joins carries it.

        The size guard reads the exact face count after each step.
        Subdividing uv replaces the star of uv by w joined with its rim,
        which adds 2 f(lk uv) faces; lk uv is the clique complex of the
        common neighbourhood of u and v, and f counts the empty face.
        The guard reads f(lk uv) from `clique_count` capped at
        `MAX_FACES`: past the cap the count is not exact, but the step
        is refused all the same.  A join triples the count.  So a step
        beyond `MAX_FACES` is refused before any complex of that size is
        built.
        """
        labels, adj, carriers = self.labels, self.adj, self.carriers
        for _ in range(steps):
            move = EDGE_SUBDIVIDE if moves is None else moves[rng.randrange(len(moves))]
            if move == EDGE_SUBDIVIDE:
                if not self.edges:
                    raise MalformedInstance("complex has no edges to subdivide")
                i, j = _nth_edge(adj, rng.randrange(self.edges))
                name = barycenter_name((labels[i], labels[j]))
                if name in labels:
                    raise VertexCollision(f"label {name!r} already present")
                common = adj[i] & adj[j]
                self.count += 2 * clique_count(adj, common, MAX_FACES)
                _size_guard(self.count)
                adj[i] ^= 1 << j
                adj[j] ^= 1 << i
                star = common | 1 << i | 1 << j
                for b in iter_bits(star):
                    adj[b] |= 1 << len(labels)
                adj.append(star)
                carriers.append(carriers[i] | carriers[j])
                labels.append(name)
                self.edges += 1 + common.bit_count()
            else:
                self.count *= 3
                _size_guard(self.count)
                n, m = len(labels), len(self.base.labels)
                pair = (f"u{m // 2 + 1}", f"v{m // 2 + 1}")
                adj[:] = [nbrs | 3 << n for nbrs in adj] + [(1 << n) - 1] * 2
                carriers += [1 << m, 2 << m]
                self.base = self.base.join(sphere_zero(*pair))
                self.edges += 2 * n
                labels += pair

    def subdivision(self) -> SubdivisionMap:
        """The trail as a map from the clique complex onto the base."""
        total, found = _clique_trail(self.labels, self.adj, self.carriers)
        # Faces are carried onto the base's own face objects, which the
        # map then shares instead of holding a new integer for each face.
        onto = {F: F for F in self.base.faces()}
        carrier = dict(zip(total.faces(), map(onto.__getitem__, found)))
        return SubdivisionMap._from_valid(total, self.base, carrier)


def _grow(
    K: SimplicialComplex, steps: int, rng: random.Random, moves=None
) -> SubdivisionMap:
    """The trivial subdivision of ``K``, a pure flag complex whose every
    label is a vertex, composed with ``steps`` random moves on its total
    (see `_Trail.grow`).

    The steps change only the graph, so the map is built once, at the
    end, by `_clique_trail` from the final graph alone: the faces of K
    that a step did not cut are just its cliques on the vertices of K,
    so no record of the removed edges is kept.
    """
    if steps < 0:
        raise MalformedInstance("steps must be >= 0")
    if steps == 0:
        return trivial_subdivision(K)
    trail = _Trail(K)
    trail.grow(steps, rng, moves)
    return trail.subdivision()


def random_flag_sphere(spec: GeneratorSpec) -> tuple[SimplicialComplex, SubdivisionMap]:
    """Random flag sphere with its subdivision trail over the starting
    cross-polytope boundary.

    Starts from the boundary of the ``dimension``-dimensional
    cross-polytope and applies ``steps`` uniformly random moves; edge
    subdivisions and joins with two-point spheres both preserve the
    flag-sphere class, so the trail is grown on the graph and its total
    built once as a clique complex (see `_grow`).  Identical specs yield
    identical outputs.  A start or a step beyond `MAX_FACES` total faces
    raises `MalformedInstance`, from the exact face count and before a
    complex of that size is built.
    """
    rng = random.Random(spec.seed)
    trail = _grow(_cross_polytope_start(spec.dimension), spec.steps, rng, spec.moves)
    return trail.total, trail


def random_simplex_subdivision(
    vertices: tuple[str, ...], steps: int, seed: int
) -> SubdivisionMap:
    """Iterated random edge subdivisions of the trivial subdivision of a
    simplex.  Always geometric, hence flag, vertex-induced and
    quasi-geometric."""
    return _grow(simplex(vertices), steps, random.Random(seed))


def random_sphere_pair(
    dimension: int, pre_steps: int, extra_steps: int, seed: int
) -> SubdivisionMap:
    """A flag sphere and a flag subdivision of it, as one map.

    The base is reached by ``pre_steps`` random edge subdivisions of a
    cross-polytope boundary; the total applies ``extra_steps`` more.
    Both are grown on one graph with one random stream: the base is
    built once, as the clique complex of the graph after the first
    steps, and the carriers then start afresh over it.  Negative steps
    are refused before anything is built.
    """
    if min(pre_steps, extra_steps) < 0:
        raise MalformedInstance("steps must be >= 0")
    rng = random.Random(seed)
    trail = _Trail(_cross_polytope_start(dimension))
    if pre_steps:
        trail.grow(pre_steps, rng)
        trail.rebase(_clique_trail(trail.labels, trail.adj, trail.carriers)[0])
    if not extra_steps:
        return trivial_subdivision(trail.base)
    trail.grow(extra_steps, rng)
    return trail.subdivision()


# -- check suite -------------------------------------------------------------

THEOREM = "theorem"
CONJECTURE = "conjecture"


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail" | "skipped"
    witness: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Instance:
    """A suite instance: the fields a generator sets, and the invariants
    derived from them.

    Each check reads the fields and derived values named in its
    `Check.reads`, and is skipped when any of them is ``None``.  A
    derived value (`map`, `h`, `gamma`, `local_h`, `quasi_geometric_local_h`
    and `xi`) is ``None`` when its source field is; all but `map` are
    computed on first read and kept for the life of the instance, so
    every check and `_digests` share one computation.  A read that
    raises keeps nothing and raises again on the next read.  The kept
    values assume the fields are not reassigned after they are read;
    `dataclasses.replace` gives a new instance with nothing kept.
    """

    id: str
    complex: SimplicialComplex | None = None
    subdivision: SubdivisionMap | None = None
    pair: SubdivisionMap | None = None  # sphere subdivision: total over base
    outer: SubdivisionMap | None = None
    inner: SubdivisionMap | None = None
    factors: tuple[SubdivisionMap, SubdivisionMap] | None = None

    @property
    def map(self) -> SubdivisionMap | None:
        """The subdivision if there is one, else the sphere pair."""
        return self.subdivision or self.pair

    @cached_property
    def h(self) -> IntPolynomial | None:
        """h of the complex."""
        return None if self.complex is None else h_polynomial(self.complex)

    @cached_property
    def gamma(self) -> GammaVector | SymmetryFailure | None:
        """γ of the complex, or the `SymmetryFailure` of its h."""
        if self.complex is None:
            return None
        return gamma_from_symmetric(self.h, self.complex.dim + 1)

    @cached_property
    def local_h(self) -> IntPolynomial | None:
        """`SubdivisionMap.local_h` of the subdivision; raises
        `BaseNotSimplex` when its base is not a simplex."""
        return None if self.subdivision is None else self.subdivision.local_h()

    @cached_property
    def quasi_geometric_local_h(self) -> IntPolynomial | None:
        """`local_h`, where Stanley's theorem makes it nonnegative: also
        ``None`` when the subdivision is not quasi-geometric, which is
        tested first, on any base."""
        s = self.subdivision
        if s is None or s.quasi_geometric_witness() is not None:
            return None
        return self.local_h

    @cached_property
    def xi(self) -> GammaVector | None:
        """`SubdivisionMap.local_gamma` of the subdivision, from `local_h`."""
        if self.subdivision is None:
            return None
        return _local_gamma(self.local_h, len(self.subdivision.base.labels))


@dataclass
class ConjectureReport:
    instance: str
    checks: dict[str, CheckResult] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    digests: dict[str, list[int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "timings_ms": {k: round(v * 1000, 3) for k, v in self.timings.items()},
            "digests": self.digests,
        }


def _gamma_or_none(K: SimplicialComplex) -> GammaVector | None:
    g = gamma_vector(K)
    return None if isinstance(g, SymmetryFailure) else g


def _coords(g: GammaVector | SymmetryFailure) -> list[int] | dict:
    if isinstance(g, SymmetryFailure):
        return {"symmetry_failure": g.to_dict()}
    return g.to_list()


def _check_gal(g: GammaVector | SymmetryFailure) -> CheckResult:
    if isinstance(g, SymmetryFailure):
        return CheckResult("fail", {"symmetry_failure": g.to_dict()})
    if g.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"gamma": g.to_list()})


def _check_local_gamma(xi: GammaVector) -> CheckResult:
    if xi.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"xi": xi.to_list()})


def _check_monotonicity(pair: SubdivisionMap) -> CheckResult:
    g_base = _gamma_or_none(pair.base)
    g_total = _gamma_or_none(pair.total)
    if g_base is None or g_total is None:
        return CheckResult("fail", {"reason": "gamma undefined on one side"})
    if g_total >= g_base:
        return CheckResult("pass")
    # γ(total) − γ(base) is the sum of the terms ξ(Δ_F)·γ(lk F), so
    # they show which base faces make it negative.
    terms = [
        {
            "face": list(pair.base.names(F)),
            "xi": _coords(xi),
            "gamma_link": _coords(g_link),
        }
        for F, xi, g_link in _gamma_terms(pair)
    ]
    return CheckResult(
        "fail",
        {
            "gamma_base": g_base.to_list(),
            "gamma_total": g_total.to_list(),
            "terms": terms,
        },
    )


def _check_unimodality(ell: IntPolynomial) -> CheckResult:
    if ell.is_unimodal():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_relative_symmetry(s: SubdivisionMap) -> CheckResult:
    d = len(s.base.labels)
    # Faces of one star histogram share one polynomial; each distinct
    # (width, polynomial) is tested once, at its first face.
    seen: set[tuple[int, IntPolynomial]] = set()
    for E, ell in _relative_local_h_table(s).items():
        width = d - E.bit_count()
        if (width, ell) in seen:
            continue
        seen.add((width, ell))
        if ell.reflect(width) != ell:
            return CheckResult(
                "fail",
                {"face": list(s.total.names(E)), "relative_local_h": ell.to_list()},
            )
    return CheckResult("pass")


def _check_local_h_symmetry(s: SubdivisionMap, ell: IntPolynomial) -> CheckResult:
    if ell.is_symmetric(len(s.base.labels)):
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_local_h_nonneg(ell: IntPolynomial) -> CheckResult:
    if ell.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_h_decomposition(s: SubdivisionMap) -> CheckResult:
    chk = check_h_decomposition(s)
    if chk.ok:
        return CheckResult("pass")
    witness = {"h_lhs": chk.h_lhs.to_list(), "h_rhs": chk.h_rhs.to_list()}
    if not chk.gamma_equal:
        witness["gamma_lhs"] = chk.gamma_lhs.to_list()
        witness["gamma_rhs"] = chk.gamma_rhs.to_list()
    return CheckResult("fail", witness)


def _check_locality(outer: SubdivisionMap, inner: SubdivisionMap) -> CheckResult:
    chk = check_locality(outer, inner)
    if chk.ok:
        return CheckResult("pass")
    return CheckResult("fail", {"lhs": chk.lhs.to_list(), "rhs": chk.rhs.to_list()})


def _check_xi_product(
    factors: tuple[SubdivisionMap, SubdivisionMap], xi: GammaVector
) -> CheckResult:
    s1, s2 = factors
    lhs = xi.polynomial()
    rhs = s1.local_gamma().polynomial() * s2.local_gamma().polynomial()
    if lhs == rhs:
        return CheckResult("pass")
    return CheckResult("fail", {"lhs": lhs.to_list(), "rhs": rhs.to_list()})


def _check_xi_formulas(s: SubdivisionMap, xi: GammaVector) -> CheckResult:
    d = len(s.base.labels)
    if d < 1:
        return CheckResult("skipped")
    stats = s.interior_stats()
    if xi.coeffs[0] != 0:
        return CheckResult("fail", {"xi": xi.to_list(), "reason": "xi_0 != 0"})
    p = xi.polynomial()
    want2 = (
        -(2 * d - 3) * stats.f0_interior + stats.f1_interior - stats.f0_codim1_relint
    )
    # ξ has a degree-1 coordinate from d = 2 on, and a degree-2 one
    # from d = 4 on.
    if (d >= 2 and p[1] != stats.f0_interior) or (d >= 4 and p[2] != want2):
        return CheckResult("fail", {"xi": xi.to_list(), "stats": stats.to_dict()})
    return CheckResult("pass")


def _check_field_agreement(K: SimplicialComplex) -> CheckResult:
    from .homology import QQ, _verdicts

    verdicts = _verdicts(K, QQ)
    over_gf2, over_q = verdicts[0], verdicts[-1]
    if (over_gf2.kind, over_gf2.dimension) == (over_q.kind, over_q.dimension):
        return CheckResult("pass")
    return CheckResult(
        "fail",
        {"gf2": over_gf2.kind, "q": over_q.kind, "dimension": over_gf2.dimension},
    )


def _check_hierarchy(s: SubdivisionMap) -> CheckResult:
    v = s.validate(fast=True)
    if v.is_vertex_induced and not v.is_quasi_geometric:
        return CheckResult("fail", {"reason": "vertex-induced but not quasi-geometric"})
    if v.is_vertex_induced and not v.is_flag_subdivision and s.total.is_flag():
        return CheckResult(
            "fail", {"reason": "flag total + vertex-induced but not flag subdivision"}
        )
    return CheckResult("pass")


@dataclass(frozen=True)
class Check:
    """A named check of the suite.  ``fn`` takes the `Instance` fields
    and derived values named in ``reads``, in that order.
    `run_conjecture_suite` reads them in that order and skips the check
    at the first that is ``None``, without reading the rest.  So a plain
    field comes before a derived value that may raise, as ``factors``
    does before ``xi``: a check that one missing field skips raises
    nothing."""

    name: str
    tier: str
    reads: tuple[str, ...]
    fn: Callable[..., CheckResult]


CHECKS: dict[str, Check] = {
    c.name: c
    for c in [
        Check("gal", CONJECTURE, ("gamma",), _check_gal),
        Check("local-gamma", CONJECTURE, ("xi",), _check_local_gamma),
        Check("monotonicity", CONJECTURE, ("pair",), _check_monotonicity),
        Check("unimodality", CONJECTURE, ("local_h",), _check_unimodality),
        Check(
            "relative-symmetry", CONJECTURE, ("subdivision",), _check_relative_symmetry
        ),
        Check("field-agreement", CONJECTURE, ("complex",), _check_field_agreement),
        Check(
            "local-h-symmetry",
            THEOREM,
            ("subdivision", "local_h"),
            _check_local_h_symmetry,
        ),
        Check(
            "local-h-nonneg",
            THEOREM,
            ("quasi_geometric_local_h",),
            _check_local_h_nonneg,
        ),
        Check("h-decomposition", THEOREM, ("map",), _check_h_decomposition),
        Check("locality", THEOREM, ("outer", "inner"), _check_locality),
        Check("xi-product", THEOREM, ("factors", "xi"), _check_xi_product),
        Check("xi-formulas", THEOREM, ("subdivision", "xi"), _check_xi_formulas),
        Check("hierarchy", THEOREM, ("map",), _check_hierarchy),
    ]
}


def _digests(inst: Instance) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    if inst.complex is not None:
        if not isinstance(inst.gamma, SymmetryFailure):
            out["gamma"] = inst.gamma.to_list()
        out["h"] = inst.h.to_list()
    if inst.subdivision is not None:
        # A base that is not a simplex or a map that is no homology
        # subdivision has no local digests; any other error is a defect.
        try:
            out["local_h"] = inst.local_h.to_list()
            out["xi"] = inst.xi.to_list()
        except FlagsubError:
            pass
    return out


def check_names(names: Iterable[str]) -> set[str]:
    """The set of check names, refused with `MalformedInstance` if any
    is not in `CHECKS`."""
    checks = set(names)
    unknown = checks - CHECKS.keys()
    if unknown:
        raise MalformedInstance(f"unknown checks: {sorted(unknown)}")
    return checks


def run_conjecture_suite(
    instances: Iterable[Instance], checks: set[str]
) -> list[ConjectureReport]:
    """Evaluate the named checks on every instance, in the order given.
    The instances are read once, so they may come from a generator that
    builds each one as it is read; only the reports are kept.

    A check whose `Check.reads` names a field or derived value that is
    ``None`` on an instance is recorded there as skipped, without being
    called.  Each
    check's timing covers the values it reads; a derived value that
    several checks share is computed once, and its time is charged to
    the first check that reads it (`_digests` reads the same values,
    after the checks, untimed).

    Failures never raise; they are recorded with witnesses.  Use
    `has_theorem_failure` to decide whether a run uncovered an
    implementation defect.
    """
    checks = check_names(checks)
    reports = []
    for inst in instances:
        rep = ConjectureReport(instance=inst.id)
        for name in sorted(checks):
            check = CHECKS[name]
            t0 = time.perf_counter()
            fields = []
            for f in check.reads:
                fields.append(getattr(inst, f))
                if fields[-1] is None:
                    rep.checks[name] = CheckResult("skipped")
                    break
            else:
                rep.checks[name] = check.fn(*fields)
            rep.timings[name] = time.perf_counter() - t0
        rep.digests = _digests(inst)
        reports.append(rep)
    return reports


def has_theorem_failure(reports: list[ConjectureReport]) -> bool:
    return any(
        res.status == "fail" and CHECKS[name].tier == THEOREM
        for rep in reports
        for name, res in rep.checks.items()
    )


def summarize(reports: list[ConjectureReport]) -> dict[str, dict[str, int]]:
    """Per-check pass/fail/skip tallies."""
    out: dict[str, dict[str, int]] = {}
    for rep in reports:
        for name, res in rep.checks.items():
            bucket = out.setdefault(
                name, {"pass": 0, "fail": 0, "skipped": 0}
            )
            bucket[res.status] += 1
    return out
