import json
import sys
from pathlib import Path

import pytest

from voaforms.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def a1_files(tmp_path):
    lat = tmp_path / "a1.json"
    lat.write_text('{"rank": 1, "gram": [[2]]}')
    gens = tmp_path / "gens.txt"
    gens.write_text("# ground states\n1 * e(1)\n1 * e(-1)\n")
    return lat, gens


def build_manifest(tmp_path, a1_files, degree=3):
    lat, gens = a1_files
    out = tmp_path / "manifest.json"
    code = main(["build", "--lattice", str(lat), "--generators", str(gens),
                 "--max-degree", str(degree), "--format", "json",
                 "-o", str(out)])
    assert code == 0
    return out


class TestBuild:
    def test_manifest_contents(self, tmp_path, a1_files):
        out = build_manifest(tmp_path, a1_files)
        data = json.loads(out.read_text())
        ranks = {d: v["basis_rank"] for d, v in data["degrees"].items()}
        assert ranks == {"0": 1, "1": 3, "2": 4, "3": 7}
        assert all(v["li"] for v in data["degrees"].values())
        assert data["denominator_trace"]
        assert data["generators"][0] == "1 * e(0)"

    def test_empty_generators(self, tmp_path, a1_files):
        lat, _ = a1_files
        out = tmp_path / "m.json"
        code = main(["build", "--lattice", str(lat), "--max-degree", "2",
                     "--format", "json", "-o", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert list(data["degrees"]) == ["0"]

    def test_odd_gram_rejected(self, tmp_path, capsys):
        lat = tmp_path / "bad.json"
        lat.write_text('{"rank": 1, "gram": [[3]]}')
        code = main(["build", "--lattice", str(lat), "--max-degree", "2"])
        assert code == 1
        assert "lattice" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["build", "--lattice", str(tmp_path / "nope.json"),
                     "--max-degree", "2"]) == 1

    def test_bad_generator_literal(self, tmp_path, a1_files, capsys):
        lat, _ = a1_files
        gens = tmp_path / "bad_gens.txt"
        gens.write_text("1 * q(1)\n")
        code = main(["build", "--lattice", str(lat), "--generators",
                     str(gens), "--max-degree", "2"])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, a1_files, capsys):
        lat, _ = a1_files
        gens = tmp_path / "half.txt"
        gens.write_text("1/2 * e(1)\n1/2 * e(-1)\n")
        code = main(["build", "--lattice", str(lat), "--max-degree", "3",
                     "--iter-bound", "5", "--generators", str(gens)])
        assert code == 2
        assert "growth trace" in capsys.readouterr().err


class TestVerify:
    def test_all_suites_pass(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        code = main(["verify", "--manifest", str(man)])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        for name in ("integrality", "vacuum-products", "dual-stability",
                     "rescale", "invariance-identity"):
            assert f"PASS  {name}" in out

    def test_tampered_manifest_fails(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        data = json.loads(man.read_text())
        data["degrees"]["1"]["gram"][0][0] = "1/3"
        man.write_text(json.dumps(data))
        code = main(["verify", "--manifest", str(man)])
        assert code == 3
        out = capsys.readouterr().out
        assert "FAIL  manifest-consistency" in out

    def test_missing_manifest(self, tmp_path):
        assert main(["verify", "--manifest",
                     str(tmp_path / "nope.json")]) == 1

    def test_single_suite(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        code = main(["verify", "--manifest", str(man), "--suite",
                     "vacuum-line", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 1
        assert payload["results"][0]["suite"] == "vacuum-line"

    def test_suite_precondition_fails_that_suite(self, tmp_path, a1_files,
                                                  capsys, monkeypatch):
        import voaforms.cli as cli
        import voaforms.forms as fm

        def broken(V, J, manifest, seed):
            raise fm.PreconditionError("form has no vacuum line")

        suites = [(name, broken if name == "vacuum-line" else suite)
                  for name, suite in cli.VERIFY_SUITES]
        monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
        man = build_manifest(tmp_path, a1_files)
        assert main(["verify", "--manifest", str(man),
                     "--format", "json"]) == 3
        results = json.loads(capsys.readouterr().out)["results"]
        assert [r["suite"] for r in results] == [n for n, _ in suites]
        assert [r for r in results if not r["passed"]] == [
            {"suite": "vacuum-line", "passed": False,
             "detail": "form has no vacuum line"}]

    def test_dihedral_suite_needs_no_manifest(self, capsys):
        code = main(["verify", "--suite", "dihedral2a", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"]["natural_associative"] is True


class TestReports:
    def test_dihedral_json(self, capsys):
        code = main(["dihedral2a", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traces"] == {"AB": "1/4", "A_ad_ab": "17/128"}
        assert payload["verdicts"]["proportional"] is False

    def test_dihedral_text(self, capsys):
        assert main(["dihedral2a"]) == 0
        out = capsys.readouterr().out
        assert "Tr(AB) = 1/4" in out

    def test_rescale(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        code = main(["rescale", "--manifest", str(man), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["m1"], payload["m2"]) == (1, 2)
        assert payload["certificate"]["passed"] is True

    def test_dual(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        code = main(["dual", "--manifest", str(man), "--stability-order",
                     "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stability"] == {"1": True, "2": True}
        assert payload["degrees"]["1"]["rank"] == 3

    def test_tel(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        action = tmp_path / "action.json"
        action.write_text('{"isometries": [[[-1]]]}')
        code = main(["tel", "--manifest", str(man), "--action", str(action),
                     "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        ranks_plus = payload["eigenform_ranks"]["+"]
        ranks_minus = payload["eigenform_ranks"]["-"]
        assert ranks_plus["1"] == 1 and ranks_minus["1"] == 2
        assert all(e in (1, 2) for e in payload["tel_exponents"].values())

    def test_tel_bad_action(self, tmp_path, a1_files):
        man = build_manifest(tmp_path, a1_files)
        action = tmp_path / "action.json"
        action.write_text('{"isometries": [[-1]]}')
        assert main(["tel", "--manifest", str(man), "--action",
                     str(action)]) == 1

    def test_nli_transfer(self, tmp_path, a1_files, capsys):
        man = build_manifest(tmp_path, a1_files)
        code = main(["nli-transfer", "--manifest", str(man), "--other",
                     str(man), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_first_into_second"] == 1
        assert payload["m_second_into_first"] == 1


class TestDeterminism:
    def test_identical_reports_across_runs_and_threads(
            self, tmp_path, a1_files):
        man = build_manifest(tmp_path, a1_files)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        out3 = tmp_path / "r3.json"
        assert main(["verify", "--manifest", str(man), "--seed", "7",
                     "--format", "json", "-o", str(out1)]) == 0
        assert main(["verify", "--manifest", str(man), "--seed", "7",
                     "--format", "json", "-o", str(out2)]) == 0
        assert main(["dual", "--manifest", str(man), "--format", "json",
                     "-o", str(out3)]) == 0
        out4 = tmp_path / "r4.json"
        assert main(["dual", "--manifest", str(man), "--format", "json",
                     "-o", str(out4)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out3.read_bytes() == out4.read_bytes()


class TestGolden:
    """Reports for A1 at cutoff 3, byte for byte (seed 0 unless set)."""

    @pytest.mark.parametrize("name, argv", [
        ("build", ["build", "--lattice", "{lattice}", "--generators",
                   "{generators}", "--max-degree", "3"]),
        ("verify", ["verify", "--manifest", "{manifest}", "--seed", "7"]),
        ("rescale", ["rescale", "--manifest", "{manifest}"]),
        ("dual", ["dual", "--manifest", "{manifest}"]),
        ("tel", ["tel", "--manifest", "{manifest}", "--action", "{action}"]),
        ("nli-transfer", ["nli-transfer", "--manifest", "{manifest}",
                          "--other", "{manifest}"]),
    ])
    def test_json_report_bytes(self, tmp_path, a1_files, name, argv):
        lat, gens = a1_files
        action = tmp_path / "action.json"
        action.write_text('{"isometries": [[[-1]]]}')
        paths = {"lattice": lat, "generators": gens, "action": action,
                 "manifest": GOLDEN / "build.json"}
        out = tmp_path / "out"
        argv = [a.format(**paths) for a in argv]
        for fmt, suffix in (("json", "json"), ("text", "txt")):
            assert main(argv + ["--format", fmt, "-o", str(out)]) == 0
            assert out.read_bytes() == \
                (GOLDEN / f"{name}.{suffix}").read_bytes()

    @pytest.mark.parametrize("name, argv", [
        ("dual-a2n3", ["dual", "--manifest", "{a2n3}",
                       "--stability-order", "3"]),
        ("tel-a2n3", ["tel", "--manifest", "{a2n3}", "--action",
                      "{a2_action}"]),
        ("dual-a1n4-sum", ["dual", "--manifest", "{a1n4_sum}",
                           "--stability-order", "4"]),
    ])
    def test_rank2_and_one_block_report_bytes(self, tmp_path, built, name,
                                              argv):
        """A2 at cutoff 3 under swap and negation, whose Gram matrices have
        one block per charge pair, and A1 at cutoff 4 from the one generator
        e(1) + e(-1), whose Gram matrices are each a single block."""
        paths = {**built, "a2_action": _action(
            tmp_path, '{"isometries": [[[0, 1], [1, 0]], [[-1, 0], [0, -1]]]}')}
        out = tmp_path / "out.json"
        argv = [a.format(**paths) for a in argv]
        assert main(argv + ["--format", "json", "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


A2_LATTICE = '{"rank": 2, "gram": [[2, 1], [1, 2]]}'
A2_GENERATORS = "1 * e(1,0)\n1 * e(-1,0)\n1 * e(0,1)\n1 * e(0,-1)\n"


def _built(t, name, lattice, generators, degree):
    """Path of the manifest that build writes for the given inputs."""
    out = t / f"{name}.json"
    assert main(["build", "--lattice", _write(t, f"{name}-lattice.json",
                                              lattice),
                 "--generators", _write(t, f"{name}-gens.txt", generators),
                 "--max-degree", str(degree), "--format", "json",
                 "-o", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    t = tmp_path_factory.mktemp("manifests")
    return {"a2n3": _built(t, "a2n3", A2_LATTICE, A2_GENERATORS, 3),
            "a1n4_sum": _built(t, "a1n4-sum", '{"rank": 1, "gram": [[2]]}',
                               "1 * e(1) + 1 * e(-1)\n", 4),
            "isotropic": _built(t, "isotropic", '{"rank": 1, "gram": [[2]]}',
                                "1 * e(1)\n", 3)}


def _write(tmp_path, name, data):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _manifest(tmp_path, name="m.json", **fields):
    """The golden A1 manifest with fields replaced (None deletes one)."""
    data = json.loads((GOLDEN / "build.json").read_text())
    for key, value in fields.items():
        if value is None:
            del data[key]
        else:
            data[key] = value
    return _write(tmp_path, name, data)


def _lattice(t):
    return _write(t, "a1.json", '{"rank": 1, "gram": [[2]]}')


def _action(t, text='{"isometries": [[[-1]]]}'):
    return _write(t, "action.json", text)


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


GOLDEN_DEGREES = json.loads((GOLDEN / "build.json").read_text())["degrees"]
GOLDEN_TRACE = json.loads(
    (GOLDEN / "build.json").read_text())["denominator_trace"]
BAD_LITERAL = ["1 * e(0)", "1 * e(("]
ZERO_DENOMINATOR = ["1 * e(0)", "1/0 * e(1)"]
MIXED_DEGREES = ["1 * e(0)", "1 * e(1) + 1 * h(1,-1) * e(1)"]
NOT_UTF8 = b"\xff\xfe{}"
# json.loads raises ValueError on the first and RecursionError on the second
LONG_INTEGER = '{"gram": [[' + "2" * 5000 + ']]}'
DEEP_NESTING = "[" * 100_000 + "]" * 100_000
LONG_NUMBER = "9" * 5000
# above sys.maxsize, the largest argument math.factorial takes
HUGE_CUTOFF = "99999999999999999999"

MALFORMED = {
    "dual-no-lattice": (lambda t: [
        "dual", "--manifest", _manifest(t, lattice=None)], "manifest"),
    "tel-no-lattice": (lambda t: [
        "tel", "--manifest", _manifest(t, lattice=None),
        "--action", _action(t)], "manifest"),
    "nli-no-lattice": (lambda t: [
        "nli-transfer", "--manifest", _manifest(t, lattice=None),
        "--other", str(GOLDEN / "build.json")], "manifest"),
    "nli-other-no-lattice": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, lattice=None)], "other"),
    "rescale-bad-literal": (lambda t: [
        "rescale", "--manifest", _manifest(t, generators=BAD_LITERAL)],
        "manifest"),
    "nli-other-bad-literal": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, generators=BAD_LITERAL)], "other"),
    "verify-directory": (lambda t: [
        "verify", "--manifest", str(t)], "manifest"),
    "verify-not-utf8": (lambda t: [
        "verify", "--manifest", _write(t, "m.json", NOT_UTF8)], "manifest"),
    "verify-top-level-list": (lambda t: [
        "verify", "--manifest", _write(t, "m.json", "[1, 2]")], "manifest"),
    "build-lattice-number": (lambda t: [
        "build", "--lattice", _write(t, "l.json", "5"),
        "--max-degree", "2"], "lattice"),
    "build-rank-string": (lambda t: [
        "build", "--lattice",
        _write(t, "l.json", '{"rank": "x", "gram": [[2]]}'),
        "--max-degree", "2"], "lattice"),
    "build-rank-fraction": (lambda t: [
        "build", "--lattice",
        _write(t, "l.json", '{"rank": 1.5, "gram": [[2]]}'),
        "--max-degree", "2"], "lattice"),
    "build-generators-directory": (lambda t: [
        "build", "--lattice", _lattice(t), "--generators", str(t),
        "--max-degree", "2"], "generators"),
    "tel-isometries-number": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(t, '{"isometries": 5}')],
        "action: isometries"),
    "tel-tail-signs-number": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": 3}')],
        "action: tail_signs"),
    "tel-isometry-fraction": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(t, '{"isometries": [[[-1.5]]]}')],
        "action: isometry 0"),
    "tel-isometry-string": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(t, '{"isometries": [[["-1"]]]}')],
        "action: isometry 0"),
    "tel-isometry-not-rows": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(t, '{"isometries": [[-1]]}')],
        "action: isometry 0"),
    "tel-tail-signs-entry-number": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": [5]}')],
        "action: tail_signs: entry 0"),
    "tel-tail-sign-boolean": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": [[true]]}')],
        "action: tail_signs: entry 0"),
    "tel-tail-sign-fraction": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": [[1.5]]}')],
        "action: tail_signs: entry 0"),
    "tel-tail-sign-not-unit": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": [[2]]}')],
        "action: tail_signs: entry 0"),
    "tel-tail-sign-wrong-length": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": [[1, -1]]}')],
        "action: tail_signs: entry 0"),
    "tel-lift-not-involution": (lambda t: [
        "tel", "--manifest", _built(t, "a2n2", A2_LATTICE, A2_GENERATORS, 2),
        "--action", _action(t, '{"isometries": [[[1, 1], [0, -1]]]}')],
        "action"),
    "tel-tail-signs-empty": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(
            t, '{"isometries": [[[-1]]], "tail_signs": []}')],
        "action: tail_signs"),
    "verify-degree-no-rank": (lambda t: [
        "verify", "--manifest", _manifest(t, degrees={
            **GOLDEN_DEGREES,
            "1": _without(GOLDEN_DEGREES["1"], "basis_rank")})],
        "manifest: degrees.1"),
    "verify-degrees-list": (lambda t: [
        "verify", "--manifest",
        _manifest(t, degrees=list(GOLDEN_DEGREES.values()))],
        "manifest: degrees"),
    "verify-degree-number": (lambda t: [
        "verify", "--manifest",
        _manifest(t, degrees={**GOLDEN_DEGREES, "2": 7})],
        "manifest: degrees.2"),
    "verify-trace-number": (lambda t: [
        "verify", "--manifest", _manifest(t, denominator_trace=5)],
        "manifest: denominator_trace"),
    "verify-trace-entry-number": (lambda t: [
        "verify", "--manifest", _manifest(t, denominator_trace=[
            *GOLDEN_TRACE[:-1], 6])], "manifest: denominator_trace"),
    "build-generators-not-utf8": (lambda t: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", NOT_UTF8),
        "--max-degree", "2"], "generators"),
    "rescale-gen-degree-above-cutoff": (lambda t: [
        "rescale", "--manifest", str(GOLDEN / "build.json"),
        "--gen-degree", "9"], "gen-degree"),
    "rescale-gen-degree-negative": (lambda t: [
        "rescale", "--manifest", str(GOLDEN / "build.json"),
        "--gen-degree", "-1"], "gen-degree"),
    "verify-unknown-suite": (lambda t: [
        "verify", "--manifest", str(GOLDEN / "build.json"),
        "--suite", "integrality-typo"], "suite"),
    "dual-stability-order-negative": (lambda t: [
        "dual", "--manifest", str(GOLDEN / "build.json"),
        "--stability-order", "-2"], "stability-order"),
    "build-generator-zero-denominator": (lambda t: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", "1 * e(1)\n1/0 * e(-1)\n"),
        "--max-degree", "2"], "generators: line 2"),
    "build-generator-above-gen-degree": (lambda t: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", "1 * h(1,-1) * e(1)\n"),
        "--max-degree", "2", "--gen-degree", "1"], "gen-degree"),
    "build-generator-zero-exponent": (lambda t: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", "1 * h(1,-1)^0 * e(0)\n"),
        "--max-degree", "2"], "generators: line 1"),
    **{f"{command}-zero-denominator": (lambda t, command=command: [
        command, "--manifest", _manifest(t, generators=ZERO_DENOMINATOR)]
        + {"tel": ["--action", _action(t)],
           "nli-transfer": ["--other", str(GOLDEN / "build.json")]}.get(
            command, []), "manifest")
       for command in ("verify", "rescale", "dual", "tel", "nli-transfer")},
    "nli-other-zero-denominator": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, generators=ZERO_DENOMINATOR)], "other"),
    "verify-gen-degree-below-generators": (lambda t: [
        "verify", "--manifest", _manifest(t, gen_degree=-1)],
        "manifest: gen_degree"),
    "dual-generator-mixed-degrees": (lambda t: [
        "dual", "--manifest", _manifest(t, generators=MIXED_DEGREES)],
        "manifest: generators"),
    "rescale-generator-not-text": (lambda t: [
        "rescale", "--manifest", _manifest(t, generators=[1])],
        "manifest: generators"),
    "nli-other-generator-mixed-degrees": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, generators=MIXED_DEGREES)],
        "other: generators"),
    "nli-other-generator-not-text": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, generators=[1])], "other: generators"),
    "build-gram-fraction": (lambda t: [
        "build", "--lattice", _write(t, "l.json", '{"gram": [[2.5]]}'),
        "--max-degree", "2"], "lattice: gram"),
    "build-gram-empty": (lambda t: [
        "build", "--lattice", _write(t, "l.json", '{"gram": []}'),
        "--max-degree", "2"], "lattice: gram"),
    "verify-gram-empty": (lambda t: [
        "verify", "--manifest", _manifest(t, lattice={"gram": []})],
        "manifest: gram"),
    "build-gram-infinite": (lambda t: [
        "build", "--lattice", _write(t, "l.json", '{"gram": [[Infinity]]}'),
        "--max-degree", "2"], "lattice: gram"),
    "verify-gram-fraction": (lambda t: [
        "verify", "--manifest", _manifest(
            t, lattice={"rank": 1, "gram": [[2.5]]})], "manifest: gram"),
    "verify-cutoff-fraction": (lambda t: [
        "verify", "--manifest", _manifest(t, cutoff=3.5)],
        "manifest: cutoff"),
    "verify-cutoff-boolean": (lambda t: [
        "verify", "--manifest", _manifest(t, cutoff=True)],
        "manifest: cutoff"),
    "verify-generator-number": (lambda t: [
        "verify", "--manifest", _manifest(t, generators=["1 * e(0)", 5])],
        "manifest"),
    "verify-rank-disagrees": (lambda t: [
        "verify", "--manifest",
        _manifest(t, lattice={"rank": 5, "gram": [[2]]})], "manifest"),
    "verify-generators-string": (lambda t: [
        "verify", "--manifest", _manifest(t, generators="1 * e(1)")],
        "manifest: generators"),
    "nli-other-generators-string": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, generators="1 * e(1)")], "other: generators"),
    "nli-other-gen-degree-below-generators": (lambda t: [
        "nli-transfer", "--manifest", str(GOLDEN / "build.json"),
        "--other", _manifest(t, gen_degree=-1)], "other: gen_degree"),
    "verify-gen-degree-fraction": (lambda t: [
        "verify", "--manifest", _manifest(t, gen_degree=1.5)],
        "manifest: gen_degree"),
    "output-missing-directory": (lambda t: [
        "dihedral2a", "-o", str(t / "no" / "x.json")], "output"),
    "output-directory": (lambda t: ["dihedral2a", "-o", str(t)], "output"),
    "rescale-manifest-gen-degree-above-cutoff": (lambda t: [
        "rescale", "--manifest", _manifest(t, gen_degree=9)], "manifest"),
    "verify-gen-degree-above-cutoff": (lambda t: [
        "verify", "--manifest", _manifest(t, gen_degree=9),
        "--suite", "rescale"], "manifest"),
    **{f"{flag}-{kind}": (lambda t, flag=flag, text=text: {
        "lattice": ["build", "--max-degree", "2"],
        "manifest": ["verify"],
        "action": ["tel", "--manifest", str(GOLDEN / "build.json")],
        "other": ["nli-transfer", "--manifest", str(GOLDEN / "build.json")],
    }[flag] + [f"--{flag}", _write(t, "x.json", text)], flag)
       for flag in ("lattice", "manifest", "action", "other")
       for kind, text in (("long-integer", LONG_INTEGER),
                          ("deep-nesting", DEEP_NESTING))},
    "build-gram-number": (lambda t: [
        "build", "--lattice", _write(t, "l.json", '{"gram": 5}'),
        "--max-degree", "2"], "lattice: gram"),
    **{f"build-generator-long-{part}": (lambda t, literal=literal: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", literal + "\n"),
        "--max-degree", "2"], "generators: line 1")
       for part, literal in (("index", f"1 * h({LONG_NUMBER},-1) * e(0)"),
                             ("mode", f"1 * h(1,-{LONG_NUMBER}) * e(0)"),
                             ("power", f"1 * h(1,-1)^{LONG_NUMBER} * e(0)"),
                             ("tail", f"1 * e({LONG_NUMBER})"))},
    "build-generator-exponent-notation": (lambda t: [
        "build", "--lattice", _lattice(t),
        "--generators", _write(t, "g.txt", "1e3 * e(1)\n"),
        "--max-degree", "2"], "generators: line 1"),
    "verify-generator-decimal-point": (lambda t: [
        "verify", "--manifest", _manifest(t, generators=["0.5 * e(1)"])],
        "manifest"),
    "tel-repeated-isometry": (lambda t: [
        "tel", "--manifest", str(GOLDEN / "build.json"),
        "--action", _action(t, '{"isometries": [[[-1]], [[-1]]]}')],
        "action: isometry 1"),
    **{f"{command}-iter-bound-0": (lambda t, command=command: [
        command, "--manifest", str(GOLDEN / "build.json"),
        "--iter-bound", "0"]
        + {"tel": ["--action", _action(t)],
           "nli-transfer": ["--other", str(GOLDEN / "build.json")]}.get(
            command, []), "iter-bound")
       for command in ("verify", "rescale", "dual", "tel", "nli-transfer")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_names_field(tmp_path, capsys, case):
    make_argv, field = MALFORMED[case]
    assert main(make_argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: "), err


@pytest.mark.parametrize("case, message", [
    ("tel-isometry-not-rows", "not a list of rows"),
    ("tel-tail-signs-entry-number", "not a list"),
    ("build-generator-above-gen-degree",
     "generator of degree 2 exceeds bound 1"),
    ("verify-gen-degree-below-generators",
     "generator of degree 1 exceeds bound -1"),
    ("nli-other-gen-degree-below-generators",
     "generator of degree 1 exceeds bound -1"),
    ("dual-generator-mixed-degrees", "degrees present: [1, 2]"),
    ("rescale-generator-not-text", "element literal 1 is not text"),
    ("nli-other-generator-mixed-degrees", "degrees present: [1, 2]"),
    ("nli-other-generator-not-text", "element literal 1 is not text")])
def test_malformed_action_entry_message(tmp_path, capsys, case, message):
    """A bad action entry, generator or gen_degree is named by its own
    field, in words, not by a Python error about iterating an int or a
    traceback."""
    make_argv, field = MALFORMED[case]
    assert main(make_argv(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {field}: {message}\n"


@pytest.mark.parametrize("text", [LONG_INTEGER, DEEP_NESTING],
                         ids=["long-integer", "deep-nesting"])
def test_unparsable_json_is_named(tmp_path, capsys, text):
    path = _write(tmp_path, "l.json", text)
    assert main(["build", "--lattice", path, "--max-degree", "2"]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: lattice: invalid JSON in {path}: ")


def test_repeated_lift_is_named(tmp_path, capsys):
    # a repeat adds nothing but doubles the characters tel decomposes by
    action = _action(tmp_path, '{"isometries": [[[-1]], [[1]], [[-1]]]}')
    assert main(["tel", "--manifest", str(GOLDEN / "build.json"),
                 "--action", action]) == 1
    assert capsys.readouterr().err == \
        "error: action: isometry 2: repeats isometry 0\n"


def test_dependent_lift_is_named(tmp_path, capsys):
    """The eight sign lifts of +-I on A1 x A1 make a group of order 8, which
    the first three generate; with all eight, tel would build 2^8
    characters."""
    man = _built(tmp_path, "a1a1", '{"rank": 2, "gram": [[2, 0], [0, 2]]}',
                 "1 * e(1,0)\n1 * e(-1,0)\n1 * e(0,1)\n1 * e(0,-1)\n", 2)
    signs = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    lifts = {"isometries": [[[-1, 0], [0, -1]]] * 4 + [[[1, 0], [0, 1]]] * 4,
             "tail_signs": signs * 2}
    assert main(["tel", "--manifest", man, "--action",
                 _action(tmp_path, json.dumps(lifts))]) == 1
    assert capsys.readouterr().err == \
        "error: action: isometry 3: is a product of earlier isometries\n"
    lifts = {key: value[:3] for key, value in lifts.items()}
    assert main(["tel", "--manifest", man, "--action",
                 _action(tmp_path, json.dumps(lifts))]) == 0


@pytest.mark.parametrize("command", ["build", "verify", "dual", "rescale"])
def test_huge_cutoff_is_named(tmp_path, capsys, command):
    # factorial(cutoff) raised OverflowError from TruncatedVOA
    if command == "build":
        argv = ["--lattice", _lattice(tmp_path), "--max-degree", HUGE_CUTOFF]
        field = "max-degree"
    else:
        argv = ["--manifest", _manifest(tmp_path, cutoff=int(HUGE_CUTOFF))]
        field = "manifest"
    assert main([command] + argv) == 1
    assert capsys.readouterr().err == \
        f"error: {field}: cutoff must be at most {sys.maxsize}\n"


def test_missing_manifest_field_is_named(tmp_path, capsys):
    man = _manifest(tmp_path, lattice=None)
    assert main(["verify", "--manifest", man]) == 1
    assert capsys.readouterr().err == \
        "error: manifest: missing field 'lattice'\n"


@pytest.mark.parametrize("fields, detail", [
    ({"denominator_trace": [*GOLDEN_TRACE[:-1], {"0": 1}]},
     "denominator trace mismatch"),
    ({"degrees": {**GOLDEN_DEGREES, "7": GOLDEN_DEGREES["1"]}},
     "degree '7': outside 0..3"),
    ({"degrees": {**GOLDEN_DEGREES, "x": GOLDEN_DEGREES["1"]}},
     "degree 'x': outside 0..3"),
    ({"denominator_trace": None}, None),
    ({"degrees": {**GOLDEN_DEGREES, "0": {**GOLDEN_DEGREES["0"],
                                          "basis_rank": True}}},
     "degree 0: rank mismatch"),
    ({"degrees": {**GOLDEN_DEGREES, "0": {**GOLDEN_DEGREES["0"],
                                          "li": 1.0}}},
     "degree 0: li flag mismatch"),
    ({"denominator_trace": [{**GOLDEN_TRACE[0], "0": True},
                            *GOLDEN_TRACE[1:]]},
     "denominator trace mismatch"),
], ids=["trace-differs", "degree-7", "degree-x", "no-trace", "rank-true",
        "li-float", "trace-entry-true"])
def test_manifest_consistency_mismatch(tmp_path, capsys, fields, detail):
    man = _manifest(tmp_path, **fields)
    code = main(["verify", "--manifest", man, "--suite",
                 "manifest-consistency", "--format", "json"])
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert (code, result.get("detail")) == (0 if detail is None else 3,
                                            detail)


class TestExitCodes:
    @pytest.mark.parametrize("command", [
        "verify", "rescale", "dual", "tel", "nli-transfer"])
    def test_divergent_manifest_exits_2(self, tmp_path, capsys, command):
        man = _manifest(tmp_path, generators=["1/2 * e(1)", "1/2 * e(-1)"])
        argv = [command, "--manifest", man, "--iter-bound", "2"]
        if command == "tel":
            argv += ["--action", _action(tmp_path)]
        if command == "nli-transfer":
            argv += ["--other", man]
        assert main(argv) == 2
        assert "growth trace" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dual", "rescale"])
    def test_isotropic_piece_exits_3(self, built, capsys, command):
        """J_1 = Z e^gamma is isotropic, so the form has no degree-1 dual."""
        assert main([command, "--manifest", built["isotropic"]]) == 3
        assert capsys.readouterr().err == (
            f"{command} failed: invariant form degenerate on the degree-1 "
            f"piece\n")

    def test_rank_mismatch_exits_3(self, tmp_path, built, capsys):
        assert main(["nli-transfer", "--manifest", _manifest(tmp_path),
                     "--other", built["isotropic"]]) == 3
        assert capsys.readouterr().err == \
            "nli-transfer failed: degree 1: ranks 3 vs 1\n"

    def test_isotropic_piece_fails_verify(self, built, capsys):
        assert main(["verify", "--manifest", built["isotropic"],
                     "--format", "json"]) == 3
        failed = {r["suite"]: r["detail"] for r in
                  json.loads(capsys.readouterr().out)["results"]
                  if not r["passed"]}
        assert set(failed) == {"dual-stability", "rescale"}
        assert all("degree-1" in detail for detail in failed.values())

    @pytest.mark.parametrize("argv", [
        ["build", "--lattice", "a1.json", "--max-degree", "abc"],
        ["frobnicate"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestTelWork:
    SWAP_AND_NEGATION = '{"isometries": [[[0, 1], [1, 0]], [[-1, 0], [0, -1]]]}'

    def test_preservation_checked_once(self, tmp_path, built, monkeypatch):
        """One tel on A2 at cutoff 3 (four degrees, two involutions) checks
        each (automorphism, degree) pair once and builds one SignedAction
        per degree."""
        import voaforms.forms as fm
        import voaforms.latgroup as lg
        counts = {"preserves": 0, "actions": 0}
        preserves, init = lg.preserves, lg.SignedAction._set

        def counting_preserves(*args):
            counts["preserves"] += 1
            return preserves(*args)

        def counting_init(self, *args):
            counts["actions"] += 1
            init(self, *args)

        monkeypatch.setattr(lg, "preserves", counting_preserves)
        monkeypatch.setattr(fm, "preserves", counting_preserves)
        monkeypatch.setattr(lg.SignedAction, "_set", counting_init)
        out = tmp_path / "out.json"
        assert main(["tel", "--manifest", built["a2n3"], "--action",
                     _action(tmp_path, self.SWAP_AND_NEGATION),
                     "--format", "json", "-o", str(out)]) == 0
        assert counts["preserves"] <= 8 and counts["actions"] <= 4, counts

    def test_non_preserving_action(self, tmp_path, capsys):
        """The swap does not map the form of e(+-a1), 2 e(+-a2) to itself."""
        man = _built(tmp_path, "lopsided", A2_LATTICE,
                     "1 * e(1,0)\n1 * e(-1,0)\n2 * e(0,1)\n2 * e(0,-1)\n", 2)
        assert main(["tel", "--manifest", man, "--action",
                     _action(tmp_path, '{"isometries": [[[0, 1], [1, 0]]]}')
                     ]) == 3
        assert capsys.readouterr().err == "action does not preserve the form\n"
