"""Seeded inputs, timed items and traced replays of the three workloads.

Each workload supplies:

- ``make_inputs(seed, count)``: one pass of inputs, generated from the
  seed through the package's public generators only;
- ``run_item(input)``: one item, called exactly as a user calls the
  package; this is what the untraced run times;
- ``replay_inputs(tracer, seed, count)`` and ``replay_item(tracer,
  input)``: the same inputs and item, rebuilt by benchmark code that
  calls the public functions the generators, checks and digest step
  call, with a span around each call.  The traced run checks that the
  replay gives the same outputs, so the replay cannot drift from the
  package;
- ``outcome(output)``: a hash of the output, whether the item failed,
  and the part of the output that ``summary(kept)`` tallies over one
  pass (kept small, so that held outputs do not slow later items);
- optionally ``cross_check(seed, kept, path)``: whether one pass agrees
  with the command-line tool run in-process on the same inputs.

Importing this module imports flagsub; the benchmark times that import
as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from flagsub import (
    GF2,
    QQ,
    FacetChoice,
    GeneratorSpec,
    Instance,
    SymmetryFailure,
    ball_to_sphere,
    check_h_decomposition,
    check_locality,
    classify,
    compose,
    cross_polytope,
    edge_subdivision,
    from_facets,
    gamma_vector,
    h_polynomial,
    join_subdivision,
    random_flag_sphere,
    random_simplex_subdivision,
    random_sphere_pair,
    run_conjecture_suite,
    sigma_cross_polytope_map,
    simplex,
    trivial_subdivision,
)
from flagsub.harness import (
    CHECKS,
    EDGE_SUBDIVIDE,
    JOIN_WITH_S0,
    RNG_NAME,
    THEOREM,
    CheckResult,
    ConjectureReport,
    has_theorem_failure,
    summarize,
)
from flagsub.serialize import (
    complex_from_doc,
    complex_to_doc,
    subdivision_from_doc,
    subdivision_to_doc,
)

#: Report fields hashed by the correctness gate.  Timings are left out
#: because they differ on every run; fields a later report schema adds
#: are left out so that an additive schema change keeps the pins.
REPORT_KEYS = ("instance", "checks", "digests")


def _sha(text: str) -> str:
    """The first 64 bits of the sha256 of ``text``, in hex."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_doc(report_dict: dict) -> dict:
    return {k: report_dict[k] for k in REPORT_KEYS}


def _faces(s) -> int:
    return s.total.num_faces()


class NoTrace:
    """Stands in for a tracer where benchmark-owned code runs untraced."""

    def call(self, name, faces_in, fn, *args, **kwargs):
        return fn(*args, **kwargs)


# -- generators replayed with spans ---------------------------------------
#
# These follow the call sequence of flagsub.harness's generators, so that
# the traced run can split generation time into edge subdivision and
# composition.  The traced run compares their results with the public
# generators' results.


def _edge_step(tr, K, rng):
    edges = [f for f in K.faces() if f.bit_count() == 2]
    edge = edges[rng.randrange(len(edges))]
    return tr.call(
        "subdivisions.edge_subdivision", K.num_faces(), edge_subdivision, K, edge
    )


def _compose(tr, outer, inner):
    return tr.call(
        "subdivisions.compose", _faces(outer) + _faces(inner), compose, outer, inner
    )


def _trivial(tr, K):
    return tr.call(
        "subdivisions.trivial_subdivision", K.num_faces(), trivial_subdivision, K
    )


def traced_flag_sphere(tr, spec: GeneratorSpec):
    with tr.span("harness.random_flag_sphere"):
        rng = random.Random(spec.seed)
        K = tr.call("complexes.cross_polytope", None, cross_polytope, spec.dimension)
        trail = _trivial(tr, K)
        for _ in range(spec.steps):
            if spec.moves[rng.randrange(len(spec.moves))] == EDGE_SUBDIVIDE:
                trail = _compose(tr, trail, _edge_step(tr, K, rng))
            else:
                k = len(trail.base.labels) // 2 + 1
                s0 = _trivial(
                    tr, from_facets((f"u{k}", f"v{k}"), [[f"u{k}"], [f"v{k}"]])
                )
                trail = tr.call(
                    "subdivisions.join_subdivision",
                    _faces(trail) + _faces(s0),
                    join_subdivision,
                    trail,
                    s0,
                )
            K = trail.total
    return K, trail


def traced_simplex_subdivision(tr, vertices, steps: int, seed: int):
    with tr.span("harness.random_simplex_subdivision"):
        rng = random.Random(seed)
        s = _trivial(tr, simplex(vertices))
        for _ in range(steps):
            s = _compose(tr, s, _edge_step(tr, s.total, rng))
    return s


def traced_sphere_pair(tr, dimension: int, pre_steps: int, extra_steps: int, seed: int):
    with tr.span("harness.random_sphere_pair"):
        rng = random.Random(seed)
        K = tr.call("complexes.cross_polytope", None, cross_polytope, dimension)
        for _ in range(pre_steps):
            K = _edge_step(tr, K, rng).total
        inner = _trivial(tr, K)
        for _ in range(extra_steps):
            inner = _compose(tr, inner, _edge_step(tr, inner.total, rng))
    return inner


# -- checks and digests replayed with spans -------------------------------
#
# One function per check of flagsub.harness.CHECKS, each making the same
# public calls and returning the same result as the check it replays.


def _gamma(tr, K):
    return tr.call("polynomials.gamma_vector", K.num_faces(), gamma_vector, K)


def _gamma_or_none(tr, K):
    g = _gamma(tr, K)
    return None if isinstance(g, SymmetryFailure) else g


def _local_h(tr, s):
    return tr.call("subdivisions.local_h", _faces(s), s.local_h)


def _local_gamma(tr, s):
    return tr.call("subdivisions.local_gamma", _faces(s), s.local_gamma)


def _validate_fast(tr, s):
    return tr.call("subdivisions.validate.fast", _faces(s), s.validate, fast=True)


def _r_gal(tr, inst):
    if inst.complex is None:
        return CheckResult("skipped")
    g = _gamma(tr, inst.complex)
    if isinstance(g, SymmetryFailure):
        return CheckResult("fail", {"symmetry_failure": g.to_dict()})
    if g.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"gamma": g.to_list()})


def _r_local_gamma(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    xi = _local_gamma(tr, inst.subdivision)
    if xi.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"xi": xi.to_list()})


def _r_monotonicity(tr, inst):
    if inst.pair is None:
        return CheckResult("skipped")
    g_base = _gamma_or_none(tr, inst.pair.base)
    g_total = _gamma_or_none(tr, inst.pair.total)
    if g_base is None or g_total is None:
        return CheckResult("fail", {"reason": "gamma undefined on one side"})
    if g_total >= g_base:
        return CheckResult("pass")
    return CheckResult(
        "fail", {"gamma_base": g_base.to_list(), "gamma_total": g_total.to_list()}
    )


def _r_unimodality(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    ell = _local_h(tr, inst.subdivision)
    if ell.is_unimodal():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _r_relative_symmetry(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    s = inst.subdivision
    d = len(s.base.labels)
    n = _faces(s)
    for E in s.total.faces():
        ell = tr.call("subdivisions.relative_local_h", n, s.relative_local_h, E)
        if ell.reflect(d - E.bit_count()) != ell:
            return CheckResult(
                "fail",
                {"face": list(s.total.names(E)), "relative_local_h": ell.to_list()},
            )
    return CheckResult("pass")


def _r_local_h_symmetry(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    ell = _local_h(tr, inst.subdivision)
    if ell.is_symmetric(len(inst.subdivision.base.labels)):
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _r_local_h_nonneg(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    if not _validate_fast(tr, inst.subdivision).is_quasi_geometric:
        return CheckResult("skipped")
    ell = _local_h(tr, inst.subdivision)
    if ell.is_nonnegative():
        return CheckResult("pass")
    return CheckResult("fail", {"local_h": ell.to_list()})


def _r_h_decomposition(tr, inst):
    s = inst.subdivision or inst.pair
    if s is None:
        return CheckResult("skipped")
    full = (1 << len(s.base.labels)) - 1
    variant = "simplex_base" if s.base.facets == {full} else "sphere_base"
    chk = tr.call(
        f"subdivisions.check_h_decomposition.{variant}",
        _faces(s),
        check_h_decomposition,
        s,
    )
    if chk.ok:
        return CheckResult("pass")
    return CheckResult(
        "fail", {"h_lhs": chk.h_lhs.to_list(), "h_rhs": chk.h_rhs.to_list()}
    )


def _r_locality(tr, inst):
    if inst.outer is None or inst.inner is None:
        return CheckResult("skipped")
    chk = tr.call(
        "subdivisions.check_locality",
        _faces(inst.outer) + _faces(inst.inner),
        check_locality,
        inst.outer,
        inst.inner,
    )
    if chk.ok:
        return CheckResult("pass")
    return CheckResult("fail", {"lhs": chk.lhs.to_list(), "rhs": chk.rhs.to_list()})


def _r_xi_product(tr, inst):
    if inst.factors is None or inst.subdivision is None:
        return CheckResult("skipped")
    s1, s2 = inst.factors
    lhs = _local_gamma(tr, inst.subdivision).polynomial()
    rhs = _local_gamma(tr, s1).polynomial() * _local_gamma(tr, s2).polynomial()
    if lhs == rhs:
        return CheckResult("pass")
    return CheckResult("fail", {"lhs": lhs.to_list(), "rhs": rhs.to_list()})


def _r_xi_formulas(tr, inst):
    if inst.subdivision is None:
        return CheckResult("skipped")
    s = inst.subdivision
    d = len(s.base.labels)
    if d < 1:
        return CheckResult("skipped")
    xi = _local_gamma(tr, s)
    stats = tr.call("subdivisions.interior_stats", _faces(s), s.interior_stats)
    if xi.coeffs[0] != 0:
        return CheckResult("fail", {"xi": xi.to_list(), "reason": "xi_0 != 0"})
    xi1 = xi.coeffs[1] if len(xi.coeffs) > 1 else 0
    if xi1 != stats.f0_interior:
        return CheckResult("fail", {"xi": xi.to_list(), "stats": stats.to_dict()})
    if d >= 4:
        want = (
            -(2 * d - 3) * stats.f0_interior
            + stats.f1_interior
            - stats.f0_codim1_relint
        )
        xi2 = xi.coeffs[2] if len(xi.coeffs) > 2 else 0
        if xi2 != want:
            return CheckResult("fail", {"xi": xi.to_list(), "stats": stats.to_dict()})
    return CheckResult("pass")


def _r_field_agreement(tr, inst):
    if inst.complex is None:
        return CheckResult("skipped")
    K = inst.complex
    over_gf2 = tr.call("homology.classify.gf2", K.num_faces(), classify, K, GF2)
    over_q = tr.call("homology.classify.q", K.num_faces(), classify, K, QQ)
    if (over_gf2.kind, over_gf2.dimension) == (over_q.kind, over_q.dimension):
        return CheckResult("pass")
    return CheckResult(
        "fail",
        {"gf2": over_gf2.kind, "q": over_q.kind, "dimension": over_gf2.dimension},
    )


def _r_hierarchy(tr, inst):
    s = inst.subdivision or inst.pair
    if s is None:
        return CheckResult("skipped")
    v = _validate_fast(tr, s)
    if v.is_vertex_induced and not v.is_quasi_geometric:
        return CheckResult("fail", {"reason": "vertex-induced but not quasi-geometric"})
    if (
        v.is_vertex_induced
        and tr.call("complexes.is_flag", _faces(s), s.total.is_flag)
        and not v.is_flag_subdivision
    ):
        return CheckResult(
            "fail", {"reason": "flag total + vertex-induced but not flag subdivision"}
        )
    return CheckResult("pass")


REPLAYED_CHECKS = {
    "gal": _r_gal,
    "local-gamma": _r_local_gamma,
    "monotonicity": _r_monotonicity,
    "unimodality": _r_unimodality,
    "relative-symmetry": _r_relative_symmetry,
    "field-agreement": _r_field_agreement,
    "local-h-symmetry": _r_local_h_symmetry,
    "local-h-nonneg": _r_local_h_nonneg,
    "h-decomposition": _r_h_decomposition,
    "locality": _r_locality,
    "xi-product": _r_xi_product,
    "xi-formulas": _r_xi_formulas,
    "hierarchy": _r_hierarchy,
}


def _r_digests(tr, inst) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    if inst.complex is not None:
        g = _gamma_or_none(tr, inst.complex)
        if g is not None:
            out["gamma"] = g.to_list()
        K = inst.complex
        out["h"] = tr.call(
            "polynomials.h_polynomial", K.num_faces(), h_polynomial, K
        ).to_list()
    if inst.subdivision is not None:
        # The package's digest step drops both entries when either raises.
        try:
            out["local_h"] = _local_h(tr, inst.subdivision).to_list()
            out["xi"] = _local_gamma(tr, inst.subdivision).to_list()
        except Exception:
            pass
    return out


def replay_report(tr, inst: Instance, checks) -> ConjectureReport:
    rep = ConjectureReport(instance=inst.id)
    for name in sorted(checks):
        with tr.span("check." + name):
            rep.checks[name] = REPLAYED_CHECKS[name](tr, inst)
    with tr.span("harness.digest"):
        rep.digests = _r_digests(tr, inst)
    return rep


def report_outcome(rep: ConjectureReport) -> tuple[str, bool, ConjectureReport]:
    doc = report_doc(rep.to_dict())
    failed = any(
        res.status == "fail" and CHECKS[name].tier == THEOREM
        for name, res in rep.checks.items()
    )
    return _sha(json.dumps(doc, sort_keys=True)), failed, rep


def sphere_report_outcome(rep: ConjectureReport) -> tuple[str, bool, ConjectureReport]:
    """As `report_outcome`, for instances whose complex is a PL sphere.

    A PL sphere is a homology sphere over every field, so there a
    field-agreement failure is a defect even though the check is
    conjecture-tier.  This holds on every seed, pinned or not.
    """
    digest, failed, rep = report_outcome(rep)
    return digest, failed or rep.checks["field-agreement"].status != "pass", rep


# -- suite-full: the `flagsub suite` recipe with every check ---------------

SUITE_DIM = 4
SUITE_CHECKS = frozenset(CHECKS)


def _suite_args(seed: int, i: int):
    t = seed + i
    steps = t % 5
    labels = tuple(f"p{j}" for j in range(1, SUITE_DIM + 1))
    return f"i{i:04d}-d{SUITE_DIM}-s{t}", t, steps, labels


def suite_inputs(seed: int, count: int) -> list[Instance]:
    out = []
    for i in range(count):
        ident, t, steps, labels = _suite_args(seed, i)
        sphere, _ = random_flag_sphere(GeneratorSpec(SUITE_DIM, steps, t))
        sub = random_simplex_subdivision(labels, steps, t)
        pair = random_sphere_pair(SUITE_DIM, steps, 1 + t % 3, t)
        out.append(Instance(id=ident, complex=sphere, subdivision=sub, pair=pair))
    return out


def suite_replay_inputs(tr, seed: int, count: int) -> list[Instance]:
    out = []
    for i in range(count):
        ident, t, steps, labels = _suite_args(seed, i)
        sphere, _ = traced_flag_sphere(tr, GeneratorSpec(SUITE_DIM, steps, t))
        sub = traced_simplex_subdivision(tr, labels, steps, t)
        pair = traced_sphere_pair(tr, SUITE_DIM, steps, 1 + t % 3, t)
        out.append(Instance(id=ident, complex=sphere, subdivision=sub, pair=pair))
    return out


def suite_item(inst: Instance) -> ConjectureReport:
    return run_conjecture_suite([inst], set(SUITE_CHECKS))[0]


def suite_replay_item(tr, inst: Instance) -> ConjectureReport:
    return replay_report(tr, inst, SUITE_CHECKS)


def _plain(value):
    """``value`` as it reads back from JSON."""
    return json.loads(json.dumps(value))


def suite_cross_check(seed: int, reports: list[ConjectureReport], path) -> bool:
    """Whether ``flagsub suite`` over the first ``len(reports)`` instances
    writes the same reports and tallies and exits with the same code."""
    from flagsub import cli

    argv = [
        "suite",
        "--checks",
        ",".join(sorted(SUITE_CHECKS)),
        "--dim",
        str(SUITE_DIM),
        "--count",
        str(len(reports)),
        "--seed",
        str(seed),
        "--out",
        str(path),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    with open(path) as fh:
        doc = json.load(fh)
    return (
        code == (2 if has_theorem_failure(reports) else 0)
        and [report_doc(r) for r in doc["reports"]]
        == _plain([report_doc(r.to_dict()) for r in reports])
        and doc["summary"] == _plain(summarize(reports))
    )


# -- theorem-large: identities on instances the CLI never builds -----------
#
# Even items join two subdivisions of a 2-simplex (so xi-product has its
# factors) and pair a subdivision of the 5-simplex with a subdivision of
# its total (so locality runs).  Odd items subdivide a flag 4-sphere, so
# h-decomposition runs its gamma-level identity over a sphere base.

THEOREM_CHECKS = frozenset(
    {
        "local-h-symmetry",
        "local-h-nonneg",
        "h-decomposition",
        "relative-symmetry",
        "xi-formulas",
        "hierarchy",
        "locality",
        "xi-product",
        "local-gamma",
        "unimodality",
        "monotonicity",
    }
)
_A3 = ("a1", "a2", "a3")
_C3 = ("c1", "c2", "c3")
_P6 = tuple(f"p{j}" for j in range(1, 7))


def inner_map(tr, K, steps: int, rng: random.Random):
    """A subdivision of ``K`` by ``steps`` random edge subdivisions."""
    s = _trivial(tr, K)
    for _ in range(steps):
        s = _compose(tr, s, _edge_step(tr, s.total, rng))
    return s


def _theorem_instance(tr, seed: int, i: int, simplex_sub, sphere_pair) -> Instance:
    t = seed + i
    j = t // 2  # advances by one from each even (or odd) item to the next
    if i % 2:
        pair = sphere_pair(5, j % 3, 1 + (j // 3) % 2, t)
        return Instance(id=f"t{i:04d}-pair-s{t}", pair=pair)
    s1 = simplex_sub(_A3, 1 + j % 3, t)
    s2 = simplex_sub(_C3, 1 + (j // 3) % 3, t + 1)
    joined = tr.call(
        "subdivisions.join_subdivision",
        _faces(s1) + _faces(s2),
        join_subdivision,
        s1,
        s2,
    )
    outer = simplex_sub(_P6, 1 + j % 2, t)
    inner = inner_map(tr, outer.total, 1 + (j // 2) % 2, random.Random(t))
    return Instance(
        id=f"t{i:04d}-join-s{t}",
        subdivision=joined,
        factors=(s1, s2),
        outer=outer,
        inner=inner,
    )


def theorem_inputs(seed: int, count: int) -> list[Instance]:
    return [
        _theorem_instance(
            NoTrace(), seed, i, random_simplex_subdivision, random_sphere_pair
        )
        for i in range(count)
    ]


def theorem_replay_inputs(tr, seed: int, count: int) -> list[Instance]:
    def simplex_sub(vertices, steps, s):
        return traced_simplex_subdivision(tr, vertices, steps, s)

    def sphere_pair(dimension, pre, extra, s):
        return traced_sphere_pair(tr, dimension, pre, extra, s)

    return [
        _theorem_instance(tr, seed, i, simplex_sub, sphere_pair)
        for i in range(count)
    ]


def theorem_item(inst: Instance) -> ConjectureReport:
    return run_conjecture_suite([inst], set(THEOREM_CHECKS))[0]


def theorem_replay_item(tr, inst: Instance) -> ConjectureReport:
    return replay_report(tr, inst, THEOREM_CHECKS)


# -- build: generation, the generate document round trip, constructions ---

_Q4 = ("q1", "q2", "q3", "q4")


def build_spec(t: int) -> GeneratorSpec:
    if t % 4 == 3:
        return GeneratorSpec(3, 2 + (t // 4) % 5, t, (EDGE_SUBDIVIDE, JOIN_WITH_S0))
    return GeneratorSpec(4, 20 + t % 30, t)


def _generate_doc(spec: GeneratorSpec, kdoc: dict, tdoc: dict) -> dict:
    """The document `flagsub generate` writes."""
    return {
        "rng": RNG_NAME,
        "spec": {
            "dim": spec.dimension,
            "steps": spec.steps,
            "seed": spec.seed,
            "moves": list(spec.moves),
        },
        "complex": kdoc,
        "trail": tdoc,
    }


@dataclass
class BuildOutput:
    text: str
    round_trip_equal: bool
    sigma: object
    sphere: object


def build_inputs(seed: int, count: int) -> list[int]:
    return list(range(seed, seed + count))


def build_item(t: int) -> BuildOutput:
    spec = build_spec(t)
    K, trail = random_flag_sphere(spec)
    text = json.dumps(
        _generate_doc(spec, complex_to_doc(K), subdivision_to_doc(trail)), indent=2
    )
    doc = json.loads(text)
    same = (
        complex_from_doc(doc["complex"]) == K
        and subdivision_from_doc(doc["trail"]) == trail
    )
    sigma = sigma_cross_polytope_map(K, FacetChoice.of(K.names(min(K.facets))))
    sphere = ball_to_sphere(random_simplex_subdivision(_Q4, 1 + t % 4, t))
    return BuildOutput(text, same, sigma, sphere)


def build_replay_item(tr, t: int) -> BuildOutput:
    spec = build_spec(t)
    K, trail = traced_flag_sphere(tr, spec)
    kdoc = tr.call("serialize.complex_to_doc", K.num_faces(), complex_to_doc, K)
    tdoc = tr.call(
        "serialize.subdivision_to_doc", _faces(trail), subdivision_to_doc, trail
    )
    doc = _generate_doc(spec, kdoc, tdoc)
    text = tr.call("json.dumps", None, json.dumps, doc, indent=2)
    tr.count("serialize.bytes", len(text.encode()))
    doc = tr.call("json.loads", None, json.loads, text)
    same = (
        tr.call("serialize.complex_from_doc", None, complex_from_doc, doc["complex"])
        == K
        and tr.call(
            "serialize.subdivision_from_doc", None, subdivision_from_doc, doc["trail"]
        )
        == trail
    )
    sigma = tr.call(
        "constructions.sigma_cross_polytope_map",
        K.num_faces(),
        sigma_cross_polytope_map,
        K,
        FacetChoice.of(K.names(min(K.facets))),
    )
    ball = traced_simplex_subdivision(tr, _Q4, 1 + t % 4, t)
    sphere = tr.call(
        "constructions.ball_to_sphere", _faces(ball), ball_to_sphere, ball
    )
    return BuildOutput(text, same, sigma, sphere)


def build_outcome(out: BuildOutput) -> tuple[str, bool, bool]:
    maps = json.dumps(
        [subdivision_to_doc(out.sigma), subdivision_to_doc(out.sphere)],
        sort_keys=True,
    )
    same = out.round_trip_equal
    return _sha(out.text + "\n" + maps), not same, same


def build_summary(round_trips: list[bool]) -> dict:
    return {"items": len(round_trips), "round_trip_equal": sum(round_trips)}


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    # Inputs in one pass; the traced run replays one pass.  Each count is
    # a multiple of the period of the workload's size parameters in the
    # item seed (5, 72 and 60), so one pass has the same mix of sizes
    # whatever the seed.  build takes two periods, because its item times
    # spread widely.
    count: int
    make_inputs: Callable
    run_item: Callable
    replay_inputs: Callable
    replay_item: Callable
    outcome: Callable
    summary: Callable
    cross_check: Callable | None = None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "suite-full",
            120,
            suite_inputs,
            suite_item,
            suite_replay_inputs,
            suite_replay_item,
            sphere_report_outcome,
            summarize,
            suite_cross_check,
        ),
        Workload(
            "theorem-large",
            72,
            theorem_inputs,
            theorem_item,
            theorem_replay_inputs,
            theorem_replay_item,
            report_outcome,
            summarize,
        ),
        Workload(
            "build",
            120,
            build_inputs,
            build_item,
            lambda tr, seed, count: build_inputs(seed, count),
            build_replay_item,
            build_outcome,
            build_summary,
        ),
    ]
}
