import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagsub import cli, harness
from flagsub.cli import main
from flagsub.constructions import FIXTURE_NAMES, example_complexes
from flagsub.harness import GeneratorSpec, random_flag_sphere
from flagsub.serialize import complex_from_doc, subdivision_from_doc, subdivision_to_doc
from flagsub.subdivisions import barycentric_subdivision

HEX = {
    "labels": ["a", "b", "c", "d", "e", "f"],
    "facets": [
        ["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "f"], ["f", "a"]
    ],
}


@pytest.fixture
def hex_path(tmp_path):
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(HEX))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.lstrip().startswith("{") else out)


def test_hvec(capsys, hex_path):
    code, doc = run(capsys, "hvec", hex_path)
    assert code == 0
    assert doc == {"f": [1, 6, 6], "h": [1, 4, 1]}


def test_gamma(capsys, hex_path):
    code, doc = run(capsys, "gamma", hex_path)
    assert code == 0
    assert doc == {"d": 2, "gamma": [1, 2]}


def test_gamma_reports_symmetry_failure(capsys, tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "facets": [["a", "b"]]}))
    code, doc = run(capsys, "gamma", str(path))
    assert code == 0
    assert doc["symmetry_failure"]["pair"] == [0, 2]


def test_classify(capsys, hex_path):
    for field in ("gf2", "q", "gf3"):
        code, doc = run(capsys, "classify", hex_path, "--field", field)
        assert code == 0
        assert doc["verdict"] == "sphere"
        assert doc["dimension"] == 1
        assert doc["betti"] == {"-1": 0, "0": 0, "1": 1}


def test_classify_ball_reports_boundary(capsys, tmp_path):
    path = tmp_path / "tri.json"
    path.write_text(
        json.dumps({"labels": ["a", "b", "c"], "facets": [["a", "b", "c"]]})
    )
    code, doc = run(capsys, "classify", str(path))
    assert code == 0
    assert doc["verdict"] == "ball"
    assert doc["boundary_facets"] == [["a", "b"], ["a", "c"], ["b", "c"]]


def test_stellar_barycentric_compose_pipeline(capsys, tmp_path, hex_path):
    code, sub = run(capsys, "stellar", hex_path, "--face", "a,b")
    assert code == 0
    assert len(sub["total"]["labels"]) == 7
    outer = tmp_path / "outer.json"
    outer.write_text(json.dumps(sub))

    code, inner = run(
        capsys, "stellar", str(tmp_path / "outer.json"), "--face", "c,d"
    )
    # stellar expects a complex document, not a subdivision
    assert code == 3

    code, bary = run(capsys, "barycentric", "--vertices", "p,q,r")
    assert code == 0
    assert len(bary["total"]["labels"]) == 7


def test_barycentric_face_count_is_twice_the_ordered_bell_number():
    for n in range(1, 7):
        s = barycentric_subdivision([f"p{i}" for i in range(n)])
        assert cli._barycentric_num_faces(n) == s.total.num_faces()


def test_barycentric_above_the_cap_exits_3_before_building():
    # 8 names ask for 1,091,670 faces, past the cap of 2**18; building
    # them took minutes and 722 MiB.
    proc = subprocess.run(
        [sys.executable, "-m", "flagsub", "barycentric", "--vertices", "a,b,c,d,e,f,g,h"],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: barycentric subdivision on 8 vertices")
    assert "Traceback" not in proc.stderr


def test_barycentric_reads_the_cap_at_call_time(capsys, monkeypatch):
    code, doc = run(capsys, "barycentric", "--vertices", "a,b,c,d,e")
    assert code == 0
    assert len(doc["total"]["labels"]) == 31
    monkeypatch.setattr(harness, "MAX_FACES", 1081)
    code, _ = run(capsys, "barycentric", "--vertices", "a,b,c,d,e")
    assert code == 3
    monkeypatch.setattr(harness, "MAX_FACES", 1082)
    code, _ = run(capsys, "barycentric", "--vertices", "a,b,c,d,e")
    assert code == 0


def test_readme_command_block_names_every_subcommand():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    named = [
        line.split()[1]
        for line in readme.read_text().splitlines()
        if line.startswith("flagsub ")
    ]
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    assert sorted(named) == sorted(sub.choices)


def test_local_h_and_gamma(capsys, tmp_path):
    code, bary = run(capsys, "barycentric", "--vertices", "p,q,r")
    sub = tmp_path / "bary.json"
    sub.write_text(json.dumps(bary))
    code, doc = run(capsys, "local-h", str(sub))
    assert code == 0 and doc == {"local_h": [0, 1, 1]}
    code, doc = run(capsys, "local-gamma", str(sub))
    assert code == 0
    assert doc["xi"] == [0, 1]
    assert doc["interior_stats"]["interior_vertices"] == 1


def test_check_subdivision(capsys, tmp_path):
    code, fx = run(capsys, "fixture", "ex-2.3b")
    sub = tmp_path / "fx.json"
    sub.write_text(json.dumps(fx))
    code, doc = run(capsys, "check-subdivision", str(sub))
    assert code == 0
    assert doc["homology_subdivision"] is True
    assert doc["quasi_geometric"] is True
    assert doc["vertex_induced"] is False
    code, fast = run(capsys, "check-subdivision", str(sub), "--fast", "--field", "q")
    assert fast["quasi_geometric"] is True


def test_sigma_map_and_ball_to_sphere(capsys, tmp_path, hex_path):
    code, doc = run(capsys, "sigma-map", hex_path, "--facet", "a,b", "--verify")
    assert code == 0
    assert sorted(doc["base"]["labels"]) == ["u1", "u2", "v1", "v2"]

    code, bary = run(capsys, "barycentric", "--vertices", "p,q,r")
    sub = tmp_path / "bary.json"
    sub.write_text(json.dumps(bary))
    code, doc = run(capsys, "ball-to-sphere", str(sub))
    assert code == 0
    assert len(doc["total"]["labels"]) == 10


def test_generate_is_reproducible(capsys):
    code, a = run(capsys, "generate", "--dim", "2", "--steps", "3", "--seed", "5")
    code, b = run(capsys, "generate", "--dim", "2", "--steps", "3", "--seed", "5")
    assert a == b
    assert a["spec"]["moves"] == ["edge-subdivide"]
    assert "rng" in a


def test_generate_wide_document_reads_back(capsys, tmp_path):
    # 70 edge subdivisions of the octahedron (6 labels) give 76 labels,
    # beyond the default width of `from_facets`.
    code, doc = run(capsys, "generate", "--dim", "3", "--steps", "70", "--seed", "1")
    assert code == 0
    assert len(doc["complex"]["labels"]) == 76
    complex_path = tmp_path / "complex.json"
    complex_path.write_text(json.dumps(doc["complex"]))
    trail_path = tmp_path / "trail.json"
    trail_path.write_text(json.dumps(doc["trail"]))
    code, g = run(capsys, "gamma", str(complex_path))
    assert code == 0 and g["d"] == 3
    code, h = run(capsys, "hvec", str(complex_path))
    assert code == 0 and h["f"][1] == 76
    code, v = run(capsys, "check-subdivision", str(trail_path), "--fast")
    assert code == 0 and v["homology_subdivision"]


@settings(max_examples=10, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=3),
    steps=st.integers(min_value=0, max_value=75),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(dim=3, steps=70, seed=1)
def test_generate_documents_read_back_equal(dim, steps, seed):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(
            ["generate", "--dim", str(dim), "--steps", str(steps), "--seed", str(seed)]
        )
    assert code == 0
    doc = json.loads(out.getvalue())
    K, trail = random_flag_sphere(GeneratorSpec(dim, steps, seed))
    assert complex_from_doc(doc["complex"]) == K
    assert subdivision_from_doc(doc["trail"]) == trail


def _module_env() -> dict:
    """The environment for running ``python -m flagsub`` on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_m_flagsub_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flagsub", "--version"],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_reader_closing_early_exits_0_without_traceback():
    # The document is about 137 kB, more than a pipe buffer holds, so
    # the writer is still writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "flagsub", "generate", "--dim", "4",
         "--steps", "30", "--seed", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_module_env(),
    ) as proc:
        assert len(proc.stdout.read(200)) == 200
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 0
    assert stderr == b""


def test_generate_size_guard(capsys):
    # 3**12 faces exceed the default cap of 2**18: refused before building.
    for dim in ("12", "15"):
        for steps in ("0", "1"):
            code, _ = run(capsys, "generate", "--dim", dim, "--steps", steps)
            assert code == 3


def test_suite_size_guard_refuses_before_building(capsys, monkeypatch):
    # Without the guard this built 531,441-face instances and exited 0.
    def refuse(d):
        raise AssertionError(f"built a cross-polytope of dimension {d}")

    monkeypatch.setattr(harness, "cross_polytope", refuse)
    code, out = run(capsys, "suite", "--dim", "12", "--count", "1", "--checks", "gal")
    assert code == 3
    assert out == ""


def test_suite_generation_error_after_the_first_instance_exits_3(
    capsys, monkeypatch, tmp_path
):
    # Instances are built as they are read, so a refused instance stops
    # the run after earlier ones were checked: still exit 3, no table.
    monkeypatch.setattr(harness, "MAX_FACES", 27)  # the seed-0 octahedron
    argv = ["suite", "--dim", "3", "--checks", "gal", "--count"]
    assert main(argv + ["1"]) == 0  # the first instance fits
    capsys.readouterr()
    assert main(argv + ["3", "--out", str(tmp_path / "r.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeded 27 faces" in captured.err
    assert "Traceback" not in captured.err


def test_negative_sizes_exit_3(capsys):
    for argv in (
        ("generate", "--dim", "2", "--steps", "-4"),
        ("suite", "--checks", "gal", "--count", "-2"),
    ):
        code, out = run(capsys, *argv)
        assert code == 3
        assert out == ""


def test_usage_errors_exit_3(capsys):
    # argparse exits 2, the code of a theorem-tier failure, on its own.
    for argv in (
        ["suite", "--checks", "gal", "--dim", "abc"],
        ["nosuch"],
        ["generate", "--dim", "2", "--force"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: flagsub")
        assert "error:" in captured.err
    for argv in (["--help"], ["suite", "--help"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
        assert capsys.readouterr().out


def test_unknown_checks_are_refused_before_generating(capsys, monkeypatch):
    def refuse(args, checks):
        raise AssertionError("generated instances for a refused check")

    monkeypatch.setattr(cli, "_suite_instances", refuse)
    argv = ["suite", "--checks", "gal,nope", "--dim", "6", "--count", "300"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown checks: ['nope']\n"


def test_suite_out_to_a_bad_path_exits_3_before_generating(
    capsys, monkeypatch, tmp_path
):
    # This was a traceback with exit 1, after every instance was checked.
    def refuse(args, checks):
        raise AssertionError("generated instances for an unwritable report")

    monkeypatch.setattr(cli, "_suite_instances", refuse)
    for path in (tmp_path / "missing" / "report.json", tmp_path):
        argv = ["suite", "--checks", "gal", "--count", "2", "--out", str(path)]
        assert main(argv) == 3, path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")
    assert list(tmp_path.iterdir()) == []


def test_suite_dims_below_two_are_refused_before_generating(
    capsys, monkeypatch, tmp_path
):
    # --dim 1 exited 3 only after generating, --dim 0 after the report
    # was opened, and both left an empty --out file behind.
    def refuse(args, checks):
        raise AssertionError("generated instances for a refused dimension")

    monkeypatch.setattr(cli, "_suite_instances", refuse)
    path = tmp_path / "report.json"
    for dim in ("1", "0", "-3"):
        argv = ["suite", "--checks", "gal", "--dim", dim, "--out", str(path)]
        assert main(argv) == 3, dim
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dim must be >= 2\n"
    assert not path.exists()


#: ``--field`` values that are not a field this package computes over.
BAD_FIELDS = ["gf4", "gfabc", "gf-3", "gf0", "gf1", "X", "gf", "GF2",
              "gf1000000000000000000000000000057", "gf2147483648"]


def test_malformed_field_exits_3(capsys, hex_path):
    for name in BAD_FIELDS:
        assert main(["classify", hex_path, "--field", name]) == 3, name
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown field {name!r}")
    for name in ("gf2", "gf3", "gf2147483647", "q"):
        code, doc = run(capsys, "classify", hex_path, "--field", name)
        assert code == 0 and doc["verdict"] == "sphere"


def test_suite_exit_codes_and_tsv(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "suite",
            "--checks",
            "gal,local-gamma,local-h-symmetry,h-decomposition",
            "--count",
            "4",
            "--dim",
            "2",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    tsv = capsys.readouterr().out
    assert code == 0
    lines = tsv.strip().splitlines()
    assert lines[0] == "check\ttier\tpass\tfail\tskipped"
    assert len(lines) == 5
    report = json.loads(out.read_text())
    assert report["summary"]["gal"]["pass"] == 4
    assert report["checks"]["h-decomposition"]["tier"] == "theorem"
    assert len(report["reports"]) == 4


def test_suite_builds_no_sphere_pair_unless_a_check_reads_it(
    capsys, monkeypatch, tmp_path
):
    calls = []
    real = cli.random_sphere_pair

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "random_sphere_pair", spy)
    checks = {"gal", "local-gamma", "xi-formulas"}
    out = tmp_path / "report.json"
    argv = ["suite", "--checks", ",".join(sorted(checks)), "--dim", "3",
            "--count", "6", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == []
    # The same report as from instances built with their pairs.
    args = argparse.Namespace(count=6, dim=3, seed=2)
    instances = list(cli._suite_instances(args, set(harness.CHECKS)))
    assert len(calls) == 6
    assert all(inst.pair is not None for inst in instances)
    reports = harness.run_conjecture_suite(instances, checks)
    want = json.loads(json.dumps([r.to_dict() for r in reports]))
    got = json.loads(out.read_text())["reports"]
    for r in want + got:
        del r["timings_ms"]
    assert got == want


def test_suite_holds_no_instance_past_its_report():
    # The suite builds each instance as it is read, so apart from the
    # reports it returns, its peak memory does not grow with the count.
    # The reports (a few KiB each) are kept by design, so they are
    # subtracted: what the run held at its peak beyond them.
    checks = set(harness.CHECKS)

    def held_beyond_reports(count):
        args = argparse.Namespace(count=count, dim=3, seed=0)
        tracemalloc.start()
        try:
            reports = harness.run_conjecture_suite(
                cli._suite_instances(args, checks), checks
            )
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == count
        return peak - kept

    held_beyond_reports(2)  # imports and first-use allocations
    assert held_beyond_reports(400) < 2 * held_beyond_reports(50)


def test_malformed_input_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["hvec", str(bad)]) == 3
    missing_keys = tmp_path / "mk.json"
    missing_keys.write_text(json.dumps({"labels": ["a"]}))
    assert main(["hvec", str(missing_keys)]) == 3
    assert main(["suite", "--checks", "bogus", "--count", "1"]) == 3


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b"[" * 100_000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_undecodable_input_exits_3_without_traceback(tmp_path, content):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "flagsub", "gamma", str(path)],
        capture_output=True,
        text=True,
        env={**_module_env(), "PYTHONIOENCODING": "utf-8", "LC_ALL": "C.UTF-8"},
        timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: cannot read {path}")
    assert "Traceback" not in proc.stderr


# Two disjoint edges over a 1-simplex: every structural carrier rule
# holds, but the restriction to the full base face is not a ball.
DISJOINT_EDGES = {
    "base": {"labels": ["p", "q"], "facets": [["p", "q"]]},
    "total": {"labels": ["p", "q", "m", "n"], "facets": [["m", "p"], ["n", "q"]]},
    "carrier": {
        "p": ["p"], "q": ["q"], "m": ["p", "q"], "n": ["p", "q"],
        "m,p": ["p", "q"], "n,q": ["p", "q"],
    },
}


def test_local_gamma_on_non_homology_subdivision_exits_3(capsys, tmp_path):
    path = tmp_path / "disjoint.json"
    path.write_text(json.dumps(DISJOINT_EDGES))
    assert main(["local-gamma", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: local h-polynomial not symmetric")
    assert "Traceback" not in err


def test_duplicate_carrier_keys_are_rejected(capsys, tmp_path):
    code, doc = run(capsys, "barycentric", "--vertices", "p,q")
    key = next(k for k in doc["carrier"] if "," in k)
    a, b = key.split(",")
    doc["carrier"][f"{b},{a}"] = doc["carrier"][key]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert main(["local-h", str(path)]) == 3
    assert "names a face twice" in capsys.readouterr().err


def test_fixture_names_are_wired(capsys):
    for name in ("ex-2.3a", "ex-2.3b", "ex-2.3c", "rem-4.5"):
        code, doc = run(capsys, "fixture", name)
        assert code == 0
        assert {"base", "total", "carrier"} <= doc.keys()


# -- fuzzing the readers ---------------------------------------------------

WRONG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.text(max_size=3),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    st.lists(st.lists(st.integers(min_value=0, max_value=2), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _paths(doc, prefix=()):
    """Every (container path, key or index) inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def malformed_documents(draw):
    """A valid complex or subdivision document with one to three
    mutations: a dropped key or entry, a value of the wrong type, an
    unknown vertex name, or a mangled carrier key."""
    fixture = subdivision_to_doc(example_complexes(draw(st.sampled_from(FIXTURE_NAMES))))
    doc = draw(st.sampled_from([HEX, fixture["total"], fixture, fixture]))
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["drop", "retype", "unknown-name", "mangle-key"]))
        paths = list(_paths(doc))
        if op == "mangle-key" and isinstance(doc.get("carrier"), dict) and doc["carrier"]:
            carrier = doc["carrier"]
            key = draw(st.sampled_from(sorted(carrier)))
            names = key.split(",")
            new = draw(
                st.sampled_from(
                    [
                        ",".join(reversed(names)),
                        key + "," + names[0],
                        key + ",",
                        "",
                        key + ",zz",
                        key.replace(",", ";"),
                    ]
                )
            )
            carrier[new] = carrier.pop(key)
        elif not paths:
            break
        else:
            path, key = draw(st.sampled_from(paths))
            parent = _at(doc, path)
            if op == "drop":
                del parent[key]
            elif op == "retype":
                parent[key] = draw(WRONG_VALUES)
            elif isinstance(parent[key], str):
                parent[key] = draw(st.sampled_from(["zz", "", "a,b", parent[key] + "'"]))
    return doc


@settings(max_examples=200, deadline=None)
@given(malformed_documents(), st.sampled_from(BAD_FIELDS + ["gf2", "gf5", "q"]))
def test_readers_survive_malformed_documents(doc, field):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for argv in (
            ["gamma", path],
            ["hvec", path],
            ["check-subdivision", path, "--fast"],
            ["check-subdivision", path, "--fast", "--field", field],
            ["classify", path, "--field", field],
            ["local-gamma", path],
        ):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2, 3), argv
            assert "Traceback" not in err.getvalue()
