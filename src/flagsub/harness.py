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
from typing import Iterable

from .complexes import SimplicialComplex, card_offsets, cross_polytope, sphere_zero
from .errors import FlagsubError, MalformedInstance
from .polynomials import (
    GammaVector,
    SymmetryFailure,
    gamma_vector,
    h_polynomial,
)
from .subdivisions import (
    SubdivisionMap,
    _relative_local_h_table,
    check_h_decomposition,
    check_locality,
    compose,
    edge_subdivision,
    join_subdivision,
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


def _cross_polytope_trail(dimension: int) -> SubdivisionMap:
    # 3**dimension faces; past the cap's bit length 2**d alone exceeds it.
    _size_guard(3 ** min(dimension, MAX_FACES.bit_length()))
    return trivial_subdivision(cross_polytope(dimension))


def _grow(
    s: SubdivisionMap, steps: int, rng: random.Random, moves=None
) -> SubdivisionMap:
    """``s`` composed with ``steps`` random moves on its total.  With
    ``moves`` given, each step draws one, even from a single move; else
    each step is an edge subdivision and draws only the edge."""
    if steps < 0:
        raise MalformedInstance("steps must be >= 0")
    for _ in range(steps):
        K = s.total
        move = EDGE_SUBDIVIDE if moves is None else moves[rng.randrange(len(moves))]
        if move == EDGE_SUBDIVIDE:
            at = card_offsets(K.faces(), 2)
            edges = K.faces()[at[2] : at[3]]
            if not edges:
                raise MalformedInstance("complex has no edges to subdivide")
            s = compose(s, edge_subdivision(K, edges[rng.randrange(len(edges))]))
        else:
            # The join with a two-point sphere has exactly three times
            # the faces, so refuse before building it.
            _size_guard(3 * K.num_faces())
            k = len(s.base.labels) // 2 + 1
            s0 = sphere_zero(f"u{k}", f"v{k}")
            s = join_subdivision(s, trivial_subdivision(s0))
        _size_guard(s.total.num_faces())
    return s


def random_flag_sphere(spec: GeneratorSpec) -> tuple[SimplicialComplex, SubdivisionMap]:
    """Random flag sphere with its subdivision trail over the starting
    cross-polytope boundary.

    Starts from the boundary of the ``dimension``-dimensional
    cross-polytope and applies ``steps`` uniformly random moves; edge
    subdivisions and joins with two-point spheres both preserve the
    flag-sphere class.  Identical specs yield identical outputs.  A
    start or a step beyond `MAX_FACES` total faces raises
    `MalformedInstance`; a join is refused before it is built.
    """
    rng = random.Random(spec.seed)
    trail = _grow(_cross_polytope_trail(spec.dimension), spec.steps, rng, spec.moves)
    return trail.total, trail


def random_simplex_subdivision(
    vertices: tuple[str, ...], steps: int, seed: int
) -> SubdivisionMap:
    """Iterated random edge subdivisions of the trivial subdivision of a
    simplex.  Always geometric, hence flag, vertex-induced and
    quasi-geometric."""
    from .complexes import simplex

    return _grow(trivial_subdivision(simplex(vertices)), steps, random.Random(seed))


def random_sphere_pair(
    dimension: int, pre_steps: int, extra_steps: int, seed: int
) -> SubdivisionMap:
    """A flag sphere and a flag subdivision of it, as one map.

    The base is reached by ``pre_steps`` random edge subdivisions of a
    cross-polytope boundary; the total applies ``extra_steps`` more.
    """
    rng = random.Random(seed)
    K = _grow(_cross_polytope_trail(dimension), pre_steps, rng).total
    return _grow(trivial_subdivision(K), extra_steps, rng)


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
    """A suite instance; checks use whichever fields are present."""

    id: str
    complex: SimplicialComplex | None = None
    subdivision: SubdivisionMap | None = None
    pair: SubdivisionMap | None = None  # sphere subdivision: total over base
    outer: SubdivisionMap | None = None
    inner: SubdivisionMap | None = None
    factors: tuple[SubdivisionMap, SubdivisionMap] | None = None


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


def _check_gal(inst: Instance) -> CheckResult:
    if inst.complex is None:
        return CheckResult("skipped")
    g = gamma_vector(inst.complex)
    if isinstance(g, SymmetryFailure):
        return CheckResult("fail", {"symmetry_failure": g.to_dict()})
    if g.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"gamma": g.to_list()})


def _check_local_gamma(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    xi = inst.subdivision.local_gamma()
    if xi.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"xi": xi.to_list()})


def _check_monotonicity(inst: Instance) -> CheckResult:
    if inst.pair is None:
        return CheckResult("skipped")
    g_base = _gamma_or_none(inst.pair.base)
    g_total = _gamma_or_none(inst.pair.total)
    if g_base is None or g_total is None:
        return CheckResult("fail", {"reason": "gamma undefined on one side"})
    if g_total >= g_base:
        return CheckResult("pass")
    return CheckResult(
        "fail", {"gamma_base": g_base.to_list(), "gamma_total": g_total.to_list()}
    )


def _check_unimodality(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    ell = inst.subdivision.local_h()
    if ell.is_unimodal():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_relative_symmetry(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    s = inst.subdivision
    d = len(s.base.labels)
    for E, ell in _relative_local_h_table(s).items():
        if ell.reflect(d - E.bit_count()) != ell:
            return CheckResult(
                "fail",
                {"face": list(s.total.names(E)), "relative_local_h": ell.to_list()},
            )
    return CheckResult("pass")


def _check_local_h_symmetry(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    ell = inst.subdivision.local_h()
    d = len(inst.subdivision.base.labels)
    if ell.is_symmetric(d):
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_local_h_nonneg(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    if inst.subdivision.quasi_geometric_witness() is not None:
        return CheckResult("skipped")
    ell = inst.subdivision.local_h()
    if ell.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _check_h_decomposition(inst: Instance) -> CheckResult:
    s = inst.subdivision or inst.pair
    if s is None:
        return CheckResult("skipped")
    chk = check_h_decomposition(s)
    if chk.ok:
        return CheckResult("pass")
    witness = {"h_lhs": chk.h_lhs.to_list(), "h_rhs": chk.h_rhs.to_list()}
    if not chk.gamma_equal:
        witness["gamma_lhs"] = chk.gamma_lhs.to_list()
        witness["gamma_rhs"] = chk.gamma_rhs.to_list()
    return CheckResult("fail", witness)


def _check_locality(inst: Instance) -> CheckResult:
    if inst.outer is None or inst.inner is None:
        return CheckResult("skipped")
    chk = check_locality(inst.outer, inst.inner)
    if chk.ok:
        return CheckResult("pass")
    return CheckResult(
        "fail", {"lhs": chk.lhs.to_list(), "rhs": chk.rhs.to_list()}
    )


def _check_xi_product(inst: Instance) -> CheckResult:
    if inst.factors is None or inst.subdivision is None:
        return CheckResult("skipped")
    s1, s2 = inst.factors
    lhs = inst.subdivision.local_gamma().polynomial()
    rhs = s1.local_gamma().polynomial() * s2.local_gamma().polynomial()
    if lhs == rhs:
        return CheckResult("pass")
    return CheckResult("fail", {"lhs": lhs.to_list(), "rhs": rhs.to_list()})


def _check_xi_formulas(inst: Instance) -> CheckResult:
    if inst.subdivision is None:
        return CheckResult("skipped")
    s = inst.subdivision
    d = len(s.base.labels)
    if d < 1:
        return CheckResult("skipped")
    xi = s.local_gamma()
    stats = s.interior_stats()
    if xi.coeffs[0] != 0:
        return CheckResult("fail", {"xi": xi.to_list(), "reason": "xi_0 != 0"})
    xi1 = xi.coeffs[1] if len(xi.coeffs) > 1 else 0
    if xi1 != stats.f0_interior:
        return CheckResult(
            "fail", {"xi": xi.to_list(), "stats": stats.to_dict()}
        )
    if d >= 4:
        want = (
            -(2 * d - 3) * stats.f0_interior
            + stats.f1_interior
            - stats.f0_codim1_relint
        )
        xi2 = xi.coeffs[2] if len(xi.coeffs) > 2 else 0
        if xi2 != want:
            return CheckResult(
                "fail", {"xi": xi.to_list(), "stats": stats.to_dict()}
            )
    return CheckResult("pass")


def _check_field_agreement(inst: Instance) -> CheckResult:
    if inst.complex is None:
        return CheckResult("skipped")
    from .homology import QQ, _verdicts

    verdicts = _verdicts(inst.complex, QQ)
    over_gf2, over_q = verdicts[0], verdicts[-1]
    if (over_gf2.kind, over_gf2.dimension) == (over_q.kind, over_q.dimension):
        return CheckResult("pass")
    return CheckResult(
        "fail",
        {"gf2": over_gf2.kind, "q": over_q.kind, "dimension": over_gf2.dimension},
    )


def _check_hierarchy(inst: Instance) -> CheckResult:
    s = inst.subdivision or inst.pair
    if s is None:
        return CheckResult("skipped")
    v = s.validate(fast=True)
    if v.is_vertex_induced and not v.is_quasi_geometric:
        return CheckResult("fail", {"reason": "vertex-induced but not quasi-geometric"})
    if v.is_vertex_induced and s.total.is_flag() and not v.is_flag_subdivision:
        return CheckResult(
            "fail", {"reason": "flag total + vertex-induced but not flag subdivision"}
        )
    return CheckResult("pass")


@dataclass(frozen=True)
class Check:
    name: str
    tier: str
    fn: object


CHECKS: dict[str, Check] = {
    c.name: c
    for c in [
        Check("gal", CONJECTURE, _check_gal),
        Check("local-gamma", CONJECTURE, _check_local_gamma),
        Check("monotonicity", CONJECTURE, _check_monotonicity),
        Check("unimodality", CONJECTURE, _check_unimodality),
        Check("relative-symmetry", CONJECTURE, _check_relative_symmetry),
        Check("field-agreement", CONJECTURE, _check_field_agreement),
        Check("local-h-symmetry", THEOREM, _check_local_h_symmetry),
        Check("local-h-nonneg", THEOREM, _check_local_h_nonneg),
        Check("h-decomposition", THEOREM, _check_h_decomposition),
        Check("locality", THEOREM, _check_locality),
        Check("xi-product", THEOREM, _check_xi_product),
        Check("xi-formulas", THEOREM, _check_xi_formulas),
        Check("hierarchy", THEOREM, _check_hierarchy),
    ]
}


def _digests(inst: Instance) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    if inst.complex is not None:
        g = _gamma_or_none(inst.complex)
        if g is not None:
            out["gamma"] = g.to_list()
        out["h"] = h_polynomial(inst.complex).to_list()
    if inst.subdivision is not None:
        # A base that is not a simplex or a map that is no homology
        # subdivision has no local digests; any other error is a defect.
        try:
            out["local_h"] = inst.subdivision.local_h().to_list()
            out["xi"] = inst.subdivision.local_gamma().to_list()
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
    instances: list[Instance], checks: set[str]
) -> list[ConjectureReport]:
    """Evaluate the named checks on every instance.

    Failures never raise; they are recorded with witnesses.  Use
    `has_theorem_failure` to decide whether a run uncovered an
    implementation defect.
    """
    checks = check_names(checks)
    reports = []
    for inst in instances:
        rep = ConjectureReport(instance=inst.id)
        for name in sorted(checks):
            t0 = time.perf_counter()
            rep.checks[name] = CHECKS[name].fn(inst)
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
