"""Command-line interface.

Exit codes: 0 on success (all theorem-tier checks pass), 2 on a
theorem-tier check failure, 3 on malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from math import comb

from . import __version__, harness
from .constructions import (
    FIXTURE_NAMES,
    FacetChoice,
    ball_to_sphere,
    example_complexes,
    sigma_cross_polytope_map,
)
from .errors import FlagsubError, MalformedInstance
from .harness import (
    CHECKS,
    RNG_NAME,
    GeneratorSpec,
    Instance,
    check_names,
    has_theorem_failure,
    random_flag_sphere,
    random_simplex_subdivision,
    random_sphere_pair,
    run_conjecture_suite,
    summarize,
)
from .homology import QQ, FieldSpec, classify
from .polynomials import SymmetryFailure, gamma_vector, h_polynomial
from .serialize import (
    complex_from_doc,
    complex_to_doc,
    subdivision_from_doc,
    subdivision_to_doc,
)
from .subdivisions import (
    barycentric_subdivision,
    compose,
    stellar_subdivision,
)


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSON syntax and bytes that do not decode;
        # RecursionError, arrays or objects nested too deep to parse.
        raise MalformedInstance(f"cannot read {path}: {exc}") from None


def _open_out(path: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise MalformedInstance(f"cannot write {path}: {exc}") from None


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _field(name: str) -> FieldSpec:
    if name == "q":
        return QQ
    m = re.fullmatch(r"gf([0-9]+)", name)
    if m is None:
        raise MalformedInstance(f"unknown field {name!r} (use gf2, gfP or q)")
    try:
        return FieldSpec.gf(int(m[1]))
    except ValueError as exc:
        raise MalformedInstance(f"unknown field {name!r}: {exc}") from None


def _cmd_hvec(args) -> int:
    K = complex_from_doc(_load(args.complex))
    _emit({"f": list(K.f_vector()), "h": h_polynomial(K).to_list()})
    return 0


def _cmd_gamma(args) -> int:
    K = complex_from_doc(_load(args.complex))
    g = gamma_vector(K)
    if isinstance(g, SymmetryFailure):
        _emit({"symmetry_failure": g.to_dict()})
    else:
        _emit({"d": g.d, "gamma": g.to_list()})
    return 0


def _cmd_classify(args) -> int:
    K = complex_from_doc(_load(args.complex))
    hc = classify(K, _field(args.field))
    boundary = []
    if hc.boundary is not None:
        boundary = sorted(
            sorted(hc.boundary.names(f)) for f in hc.boundary.facets
        )
    _emit(
        {
            "verdict": hc.kind,
            "dimension": hc.dimension,
            "boundary_facets": boundary,
            "betti": hc.betti.to_dict(),
        }
    )
    return 0


def _cmd_local_h(args) -> int:
    s = subdivision_from_doc(_load(args.subdivision))
    _emit({"local_h": s.local_h().to_list()})
    return 0


def _cmd_local_gamma(args) -> int:
    s = subdivision_from_doc(_load(args.subdivision))
    xi = s.local_gamma()
    _emit(
        {
            "d": xi.d,
            "xi": xi.to_list(),
            "interior_stats": s.interior_stats().to_dict(),
        }
    )
    return 0


def _cmd_check_subdivision(args) -> int:
    s = subdivision_from_doc(_load(args.subdivision))
    verdict = s.validate(_field(args.field), fast=args.fast)
    _emit(verdict.to_dict())
    return 0


def _cmd_stellar(args) -> int:
    K = complex_from_doc(_load(args.complex))
    s = stellar_subdivision(K, K.mask(args.face.split(",")), args.vertex)
    _emit(subdivision_to_doc(s))
    return 0


def _barycentric_num_faces(n: int) -> int:
    """Face count of the barycentric subdivision of the (n-1)-simplex.

    A face is a chain of nonempty subsets of the n vertices.  The chains
    that end in the full set are the ordered set partitions, counted by
    the ordered Bell number a(n); adding or dropping the full set pairs
    them with the others, so there are 2 a(n)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return 2 * a[n]


def _cmd_barycentric(args) -> int:
    names = args.vertices.split(",")
    if _barycentric_num_faces(len(names)) > harness.MAX_FACES:
        raise MalformedInstance(
            f"barycentric subdivision on {len(names)} vertices exceeds "
            f"{harness.MAX_FACES} faces"
        )
    _emit(subdivision_to_doc(barycentric_subdivision(names)))
    return 0


def _cmd_compose(args) -> int:
    outer = subdivision_from_doc(_load(args.outer))
    inner = subdivision_from_doc(_load(args.inner))
    _emit(subdivision_to_doc(compose(outer, inner)))
    return 0


def _cmd_sigma_map(args) -> int:
    K = complex_from_doc(_load(args.complex))
    choice = FacetChoice.of(args.facet.split(","))
    s = sigma_cross_polytope_map(K, choice, verify_sphere=args.verify)
    _emit(subdivision_to_doc(s))
    return 0


def _cmd_ball_to_sphere(args) -> int:
    s = subdivision_from_doc(_load(args.subdivision))
    _emit(subdivision_to_doc(ball_to_sphere(s, verify=args.verify)))
    return 0


def _cmd_fixture(args) -> int:
    _emit(subdivision_to_doc(example_complexes(args.name)))
    return 0


def _cmd_generate(args) -> int:
    moves = tuple(args.moves.split(","))
    spec = GeneratorSpec(args.dim, args.steps, args.seed, moves)
    K, trail = random_flag_sphere(spec)
    _emit(
        {
            "rng": RNG_NAME,
            "spec": {
                "dim": spec.dimension,
                "steps": spec.steps,
                "seed": spec.seed,
                "moves": list(spec.moves),
            },
            "complex": complex_to_doc(K),
            "trail": subdivision_to_doc(trail),
        }
    )
    return 0


def _suite_instances(args, checks: set[str]) -> list[Instance]:
    """The seeded suite instances.  The sphere pair is built only when
    one of ``checks`` reads it; `_digests` reads the other two fields."""
    with_pair = any("pair" in CHECKS[name].reads for name in checks)
    instances = []
    for i in range(args.count):
        seed = args.seed + i
        steps = seed % 5
        sphere, _ = random_flag_sphere(GeneratorSpec(args.dim, steps, seed))
        sub = random_simplex_subdivision(
            tuple(f"p{j}" for j in range(1, args.dim + 1)), steps, seed
        )
        pair = None
        if with_pair:
            pair = random_sphere_pair(args.dim, steps, 1 + seed % 3, seed)
        instances.append(
            Instance(
                id=f"i{i:04d}-d{args.dim}-s{seed}",
                complex=sphere,
                subdivision=sub,
                pair=pair,
            )
        )
    return instances


def _cmd_suite(args) -> int:
    checks = check_names(args.checks.split(","))
    if args.count < 0:
        raise MalformedInstance("count must be >= 0")
    # Every sphere pair takes an edge step, and S^0 has no edge.
    if args.dim < 2:
        raise MalformedInstance("dim must be >= 2")
    # Open the report first, so that a bad path is refused before any
    # instance is generated.
    with _open_out(args.out) if args.out else contextlib.nullcontext() as fh:
        instances = _suite_instances(args, checks)
        reports = run_conjecture_suite(instances, checks)
        doc = {
            "rng": RNG_NAME,
            "dim": args.dim,
            "count": args.count,
            "seed": args.seed,
            "checks": {
                name: {"tier": CHECKS[name].tier} for name in sorted(checks)
            },
            "summary": summarize(reports),
            "reports": [r.to_dict() for r in reports],
        }
        if fh is not None:
            json.dump(doc, fh, indent=2)
    rows = ["check\ttier\tpass\tfail\tskipped"]
    for name, tally in sorted(doc["summary"].items()):
        rows.append(
            f"{name}\t{CHECKS[name].tier}\t{tally['pass']}"
            f"\t{tally['fail']}\t{tally['skipped']}"
        )
    print("\n".join(rows))
    return 2 if has_theorem_failure(reports) else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input and exit 3; plain argparse
    exits 2, the code of a theorem-tier failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagsub",
        description="Face enumeration and subdivision invariants of "
        "simplicial complexes, with exact arithmetic.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hvec", help="f-vector and h-polynomial of a complex")
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_hvec)

    p = sub.add_parser("gamma", help="gamma vector of a complex")
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_gamma)

    p = sub.add_parser("classify", help="homology sphere/ball certification")
    p.add_argument("complex")
    p.add_argument("--field", default="gf2")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("local-h", help="local h-polynomial of a subdivision")
    p.add_argument("subdivision")
    p.set_defaults(fn=_cmd_local_h)

    p = sub.add_parser("local-gamma", help="local gamma vector of a subdivision")
    p.add_argument("subdivision")
    p.set_defaults(fn=_cmd_local_gamma)

    p = sub.add_parser("check-subdivision", help="validate subdivision axioms")
    p.add_argument("subdivision")
    p.add_argument("--fast", action="store_true", help="skip homology checks")
    p.add_argument("--field", default="gf2")
    p.set_defaults(fn=_cmd_check_subdivision)

    p = sub.add_parser("stellar", help="stellar subdivision on a face")
    p.add_argument("complex")
    p.add_argument("--face", required=True, help="comma-joined vertex names")
    p.add_argument("--vertex", default=None, help="name for the new vertex")
    p.set_defaults(fn=_cmd_stellar)

    p = sub.add_parser("barycentric", help="barycentric subdivision of a simplex")
    p.add_argument("--vertices", required=True, help="comma-joined names")
    p.set_defaults(fn=_cmd_barycentric)

    p = sub.add_parser("compose", help="compose two subdivision maps")
    p.add_argument("outer")
    p.add_argument("inner")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser(
        "sigma-map", help="map a flag sphere onto a cross-polytope boundary"
    )
    p.add_argument("complex")
    p.add_argument("--facet", required=True, help="comma-joined facet vertices")
    p.add_argument("--verify", action="store_true", help="certify sphere first")
    p.set_defaults(fn=_cmd_sigma_map)

    p = sub.add_parser(
        "ball-to-sphere", help="extend a simplex subdivision to a sphere one"
    )
    p.add_argument("subdivision")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_ball_to_sphere)

    p = sub.add_parser("fixture", help="emit a bundled example subdivision")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.set_defaults(fn=_cmd_fixture)

    p = sub.add_parser("generate", help="seeded random flag sphere with trail")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--steps", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--moves", default="edge-subdivide")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("suite", help="run checks over generated instances")
    p.add_argument("--checks", required=True, help="comma-joined check names")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write full JSON report here")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except FlagsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed early.  Point stdout at devnull so that the
        # flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
