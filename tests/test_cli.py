import hashlib
import json
import os

import pytest

from softtopo import save_space
from softtopo.cli import main

from .conftest import example_topology


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_banner_default_and_suppression(capsys):
    code, out, _ = run(capsys, ["validate", "builtin:example"])
    assert code == 0
    assert out.splitlines()[0] == "softtopo 0.1.0"
    code, out, _ = run(capsys, ["validate", "builtin:example", "--no-banner"])
    assert code == 0
    assert "softtopo" not in out.splitlines()[0]


def test_validate_builtin_ok(capsys):
    code, out, err = run(capsys, ["validate", "builtin:example", "--no-banner"])
    assert code == 0 and err == ""
    assert "valid" in out


def test_validate_json_format(capsys):
    code, out, _ = run(capsys, ["validate", "example", "--format", "json", "--no-banner"])
    assert code == 0
    obj = json.loads(out)
    assert obj["valid"] is True
    assert obj["opens"] == 3


def test_validate_rejects_broken_family(tmp_path, capsys):
    bad = {
        "signature": {"universe": ["h1", "h2", "h3"], "parameters": ["e1"]},
        "opens": [{"e1": []}, {"e1": ["h1", "h2", "h3"]}, {"e1": ["h1"]}, {"e1": ["h2"]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, err = run(capsys, ["validate", str(path), "--no-banner"])
    assert code == 2
    assert "union" in out
    assert err.startswith("error: topology:")
    assert err.count("\n") == 1


def test_validate_parses_spaces_like_every_command(capsys):
    space = {"signature": {"universe": ["h1"], "parameters": ["e1"]},
             "opens": [{}, {"e1": ["h1"]}, {"e1": ["h1"]}], "junk": 1}
    literal = json.dumps(space)
    for argv in (["validate", literal], ["classify", literal, "--set", "{}"]):
        code, out, err = run(capsys, argv + ["--no-banner"])
        assert code == 2 and out == ""
        assert err == "error: literal: unknown space fields: ['junk']\n"
    del space["junk"]
    code, out, _ = run(capsys, ["validate", json.dumps(space), "--no-banner"])
    assert code == 0
    # the opens are counted as given, the repeated literal included
    assert "opens=3" in out.splitlines()


def test_missing_space_file(capsys):
    code, _, err = run(capsys, ["validate", "/nope/missing.json", "--no-banner"])
    assert code == 2
    assert err.startswith("error: literal:")


def test_classify_semiopen_not_open(capsys):
    code, out, _ = run(
        capsys,
        [
            "classify",
            "builtin:example",
            "--set",
            '{"e1":["h1","h2"],"e2":["h1","h2"]}',
            "--no-banner",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert "open=false" in lines
    assert "semiopen=true" in lines
    assert 'semiopen-witness={"e1": ["h1", "h2"], "e2": ["h1"]}' in lines


def test_classify_set_from_file(tmp_path, capsys):
    lit = tmp_path / "set.json"
    lit.write_text('{"e1":["h3"],"e2":["h3"]}')
    code, out, _ = run(capsys, ["classify", "example", "--set", f"@{lit}", "--no-banner"])
    assert code == 0
    assert "semiclosed=true" in out.splitlines()
    assert "closed=false" in out.splitlines()


def test_operator_subcommands(capsys):
    sets = '{"e1":["h1","h2"],"e2":["h1"]}'
    code, out, _ = run(capsys, ["closure", "example", "--set", sets, "--no-banner"])
    assert code == 0
    assert out.strip() == 'closure={"e1": ["h1", "h2", "h3"], "e2": ["h1", "h2", "h3"]}'
    comp = '{"e1":["h3"],"e2":["h2","h3"]}'
    code, out, _ = run(capsys, ["interior", "example", "--set", comp, "--no-banner"])
    assert out.strip() == 'interior={"e1": [], "e2": []}'
    g0 = '{"e1":["h1"],"e2":[]}'
    code, out, _ = run(capsys, ["ssint", "example", "--set", g0, "--no-banner"])
    assert out.strip() == 'ssint={"e1": [], "e2": []}'
    code, out, _ = run(capsys, ["sscl", "example", "--set", g0, "--no-banner"])
    assert out.strip() == 'sscl={"e1": ["h1", "h2", "h3"], "e2": ["h1", "h2", "h3"]}'


def test_axioms_output_is_line_oriented(capsys):
    code, out, _ = run(capsys, ["axioms", "builtin:discrete", "--no-banner"])
    assert code == 0
    lines = [l for l in out.splitlines() if "=" in l and not l.startswith(" ")]
    names = [l.split("=")[0] for l in lines]
    assert names == [
        "semi_T0",
        "semi_T1",
        "semi_T2",
        "semiregular",
        "semi_T3",
        "seminormal",
        "semi_T4",
        "semiconnected",
        "semicompact",
    ]
    assert "semiconnected=false" in lines
    assert "  witness: " in out


def test_axioms_witness_for_indiscrete(capsys):
    code, out, _ = run(capsys, ["axioms", "builtin:indiscrete", "--no-banner"])
    assert code == 0
    assert 'semi_T0=false' in out
    assert '{"point": "e1:h1", "point2": "e1:h2"}' in out


def test_map_check(tmp_path, capsys):
    space = tmp_path / "ex.json"
    save_space(example_topology(), str(space))
    fn = {
        "source": "ex.json",
        "target": "ex.json",
        "point_map": {"h1": "h1", "h2": "h2", "h3": "h3"},
        "param_map": {"e1": "e1", "e2": "e2"},
    }
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(fn))
    code, out, _ = run(capsys, ["map-check", f"@{fn_path}", "--no-banner"])
    assert code == 0
    lines = out.splitlines()
    for flag in ("continuous", "semicontinuous", "irresolute", "semiopen_map", "semiclosed_map"):
        assert f"{flag}=true" in lines
    assert "surjective=true" in lines


def test_map_check_missing_sibling_space_file(tmp_path, capsys):
    fn = {
        "source": "gone.json",
        "target": "gone.json",
        "point_map": {"h1": "h1"},
        "param_map": {"e1": "e1"},
    }
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps(fn))
    code, out, err = run(capsys, ["map-check", f"@{fn_path}", "--no-banner"])
    assert code == 2 and out == ""
    missing = os.path.join(str(tmp_path), "gone.json")
    assert err.startswith(f"error: literal: cannot read space file {missing}: ")
    assert err.count("\n") == 1


def test_gen_exhaustive(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(
        capsys,
        ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", str(out_dir), "--no-banner"],
    )
    assert code == 0
    assert "instances=4" in out
    assert (out_dir / "manifest.json").exists()


def test_gen_exhaustive_refuses_six_bits(tmp_path, capsys):
    code, out, err = run(
        capsys,
        ["gen", "--exhaustive", "--universe", "3", "--params", "2",
         "-o", str(tmp_path / "x"), "--no-banner"],
    )
    assert code == 2
    assert out == ""
    assert err == "error: bitcap: exhaustive corpora stop at 5 lattice bits, got 6\n"
    assert not (tmp_path / "x").exists()


def test_gen_random_determinism(tmp_path, capsys):
    args = ["gen", "--universe", "3", "--params", "2", "--count", "25", "--seed", "42",
            "--density", "0.3", "--no-banner"]
    code_a, out_a, _ = run(capsys, args + ["-o", str(tmp_path / "a")])
    code_b, out_b, _ = run(capsys, args + ["-o", str(tmp_path / "b")])
    assert code_a == code_b == 0
    fp_a = [l for l in out_a.splitlines() if l.startswith("fingerprint=")]
    fp_b = [l for l in out_b.splitlines() if l.startswith("fingerprint=")]
    assert fp_a == fp_b


def test_gen_flag_conflicts(tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["gen", "--universe", "2", "--params", "1", "--exhaustive", "--count", "5",
         "-o", str(tmp_path / "x"), "--no-banner"],
    )
    assert code == 2
    assert err.startswith("error:")


def test_suite_over_corpus_dir(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    code, out, err = run(
        capsys, ["suite", out_dir, "--claims", "D2.1,R2.3.conv", "--no-banner"]
    )
    assert code == 0 and err == ""
    assert "result: ok" in out
    assert "R2.3.conv under-test refuted" in out
    # refutation witnesses land next to the corpus
    wroot = os.path.join(out_dir, "witnesses", "R2.3.conv")
    assert os.path.isdir(wroot)


@pytest.mark.parametrize("field, value", [
    ("fingerprint", 7),
    ("name", 0),
    ("name", "absolute"),
    ("name", "../{}"),
    ("name", ""),
    ("name", "."),
], ids=["fingerprint-int", "name-int", "name-absolute", "name-parent", "name-empty", "name-dot"])
def test_suite_refuses_a_manifest_outside_its_corpus(tmp_path, capsys, field, value):
    out_dir = tmp_path / "c"
    run(capsys, ["gen", "--universe", "1", "--params", "1", "--exhaustive", "-o", str(out_dir)])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    first = manifest["instances"][0]
    if field == "fingerprint":
        manifest["fingerprint"] = value
        message = "manifest 'fingerprint' must be a string"
    else:
        # the same space file moved out of the corpus: the fingerprint still matches
        os.replace(out_dir / first, tmp_path / first)
        if value == "absolute":
            value = str(tmp_path / first)
        elif isinstance(value, str):
            value = value.format(first)
        manifest["instances"][0] = value
        message = f"manifest instance {value!r} is not a file name in the corpus"
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run(capsys, ["suite", str(out_dir), "--no-banner"])
    assert code == 2
    assert out == ""
    assert err == f"error: corpus: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("universe", 2.7, "literal: corpus spec field 'universe' must be an integer, got 2.7"),
    ("parameters", 4.9, "literal: corpus spec field 'parameters' must be an integer, got 4.9"),
    ("count", True, "literal: corpus spec field 'count' must be an integer, got True"),
    ("seed", "3", "literal: corpus spec field 'seed' must be an integer, got '3'"),
    ("density", "0.3", "literal: corpus spec field 'density' must be a number, got '0.3'"),
    ("manifest-count", 2, "corpus: manifest 'count' is 2, but 'instances' has length 1"),
    ("manifest-count", True, "corpus: manifest 'count' is True, but 'instances' has length 1"),
    ("manifest-count", "1", "corpus: manifest 'count' is '1', but 'instances' has length 1"),
], ids=["universe-float", "parameters-float", "count-bool", "seed-str", "density-str",
        "manifest-count-2", "manifest-count-bool", "manifest-count-str"])
def test_suite_refuses_a_manifest_with_wrong_numbers(tmp_path, capsys, field, value, message):
    out_dir = tmp_path / "c"
    run(capsys, ["gen", "--universe", "1", "--params", "1", "--exhaustive", "-o", str(out_dir)])
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if field == "manifest-count":
        manifest["count"] = value
    else:
        manifest["spec"][field] = value
    (out_dir / "manifest.json").write_text(json.dumps(manifest))
    code, out, err = run(capsys, ["suite", str(out_dir), "--no-banner"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_suite_reports_identical_across_jobs(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    _, one, _ = run(capsys, ["suite", out_dir, "--jobs", "1", "--no-banner"])
    _, two, _ = run(capsys, ["suite", out_dir, "--jobs", "2", "--no-banner"])
    assert one == two


def test_suite_unknown_claim(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "1", "--params", "1", "--exhaustive", "-o", out_dir])
    code, _, err = run(capsys, ["suite", out_dir, "--claims", "T99.1", "--no-banner"])
    assert code == 2
    assert err.startswith("error: literal:")


def test_suite_on_single_space(capsys):
    code, out, _ = run(capsys, ["suite", "builtin:example", "--claims", "D2.1", "--no-banner"])
    assert code == 0
    assert "D2.1 asserted-invariant holds" in out


def test_suite_asserted_violation_exits_3(tmp_path, capsys, monkeypatch):
    # break one asserted evaluator on purpose: plumbing must escalate
    from softtopo import claims

    broken = claims.Claim(
        id="D2.1",
        kind=claims.REGISTRY["D2.1"].kind,
        scope="space",
        statement=claims.REGISTRY["D2.1"].statement,
        quantifier=claims.REGISTRY["D2.1"].quantifier,
        evaluate=lambda ctx: (1, [{"boom": True}]),
    )
    monkeypatch.setitem(claims.REGISTRY, "D2.1", broken)
    code, out, err = run(capsys, ["suite", "builtin:indiscrete", "--claims", "D2.1", "--no-banner"])
    assert code == 3
    assert err.startswith("error: internal:")
    assert "result: asserted-violation" in out


def test_replay_round_trip(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    run(capsys, ["suite", out_dir, "--claims", "R2.3.conv", "--no-banner"])
    wdir = os.path.join(out_dir, "witnesses", "R2.3.conv", "0")
    code, out, _ = run(capsys, ["replay", wdir, "--no-banner"])
    assert code == 0
    assert "reproduced=true" in out


def test_replay_detects_tampering(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    run(capsys, ["suite", out_dir, "--claims", "R2.3.conv", "--no-banner"])
    wdir = os.path.join(out_dir, "witnesses", "R2.3.conv", "0")
    payload_path = os.path.join(wdir, "payload.json")
    with open(payload_path) as fh:
        payload = json.load(fh)
    payload["found"] = "fabricated"
    with open(payload_path, "w") as fh:
        json.dump(payload, fh)
    code, out, _ = run(capsys, ["replay", wdir, "--no-banner"])
    assert code == 1
    assert "reproduced=false" in out


@pytest.mark.parametrize("meta, message", [
    ({"claim": ["R2.3.conv"]}, "witness field 'claim' must be a string, got ['R2.3.conv']"),
    ({"claim": "R2.3.conv", "label": ["x"]}, "witness field 'label' must be a string, got ['x']"),
], ids=["claim", "label"])
def test_replay_refuses_witness_fields_that_are_not_strings(tmp_path, capsys, meta, message):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    run(capsys, ["suite", out_dir, "--claims", "R2.3.conv", "--no-banner"])
    wdir = os.path.join(out_dir, "witnesses", "R2.3.conv", "0")
    with open(os.path.join(wdir, "claim.json"), "w") as fh:
        json.dump(meta, fh)
    code, out, err = run(capsys, ["replay", wdir, "--no-banner"])
    assert code == 2
    assert out == ""
    assert err == f"error: corpus: {message}\n"


def test_replay_refuses_a_claim_file_that_is_not_an_object(tmp_path, capsys):
    out_dir = str(tmp_path / "c")
    run(capsys, ["gen", "--universe", "2", "--params", "1", "--exhaustive", "-o", out_dir])
    run(capsys, ["suite", out_dir, "--claims", "R2.3.conv", "--no-banner"])
    wdir = os.path.join(out_dir, "witnesses", "R2.3.conv", "0")
    with open(os.path.join(wdir, "claim.json"), "w") as fh:
        json.dump([], fh)
    code, out, err = run(capsys, ["replay", wdir, "--no-banner"])
    assert code == 2
    assert out == ""
    assert err == "error: corpus: witness file claim.json must hold a JSON object\n"


# sha256 of `suite --no-banner` over the exhaustive corpus of signatures
# (1,1), (2,1), (1,2), (3,1), (1,3): 67 spaces plus the builtins
SMALL_SUITE_REPORT_SHA256 = "5a3cf25ef65b0ab76e21c752c6d72e7c4a1b3138f341deb377347bbd0d4f44dd"


def test_suite_report_bytes_are_pinned(tmp_path, capsys):
    from softtopo import Corpus, enumerate_topologies, export_corpus
    from softtopo.explorer import auto_signature

    sigs = ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3))
    instances = [t for n, m in sigs for t in enumerate_topologies(auto_signature(n, m))]
    assert len(instances) == 67
    corpus_dir = str(tmp_path / "c")
    export_corpus(Corpus(instances), corpus_dir)
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, ["suite", corpus_dir, "--jobs", jobs, "--no-banner"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SMALL_SUITE_REPORT_SHA256


def test_classify_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "example", "--set", '{"e1":["h1"],"e2":[]}', "--format", "json", "--no-banner"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["semiopen"] is False
    assert obj["semiclosed"] is False
    assert obj["set"] == {"e1": ["h1"], "e2": []}


def test_bad_inline_literal(capsys):
    code, _, err = run(capsys, ["classify", "example", "--set", "{oops", "--no-banner"])
    assert code == 2
    assert err.startswith("error: literal:")


def test_jobs_below_one_is_refused(capsys):
    code, _, err = run(capsys, ["suite", "builtin:example", "--jobs", "0", "--no-banner"])
    assert code == 2
    assert err.startswith("error: literal: jobs must be at least 1")


def test_negative_cross_triples_are_refused(capsys):
    code, out, err = run(
        capsys, ["suite", "builtin:example", "--cross-triples", "-3", "--no-banner"]
    )
    assert code == 2
    assert out == ""
    assert err == "error: literal: cross-triples must be at least 0, got -3\n"


_ONE_CELL = '{"signature":{"universe":["h1"],"parameters":["e1"]},"opens":[{},{"e1":["h1"]}]}'


@pytest.mark.parametrize("argv, message", [
    (["validate", '{"signature":{"universe":[["a"]],"parameters":["e1"]},"opens":[]}'],
     "universe labels must be nonempty strings"),
    (["classify", "builtin:example", "--set", '{"e1":[["h1"]]}'],
     "elements of 'e1' must be strings, got ['h1']"),
    (["classify", "builtin:example", "--set", '{"e1":{"h1":1}}'],
     "value of 'e1' must be a list of elements"),
    (["map-check", f'{{"source":{_ONE_CELL},"target":{_ONE_CELL},'
                   '"point_map":{"h1":["h1"]},"param_map":{"e1":"e1"}}'],
     "unknown universe element ['h1']"),
])
def test_labels_of_the_wrong_type_are_invalid_input(capsys, argv, message):
    code, out, err = run(capsys, argv + ["--no-banner"])
    assert code == 2
    assert out == ""
    assert err == f"error: literal: {message}\n"


def test_gen_into_a_regular_file_is_a_corpus_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, ["gen", "--universe", "1", "--params", "1", "--exhaustive",
                                  "-o", str(taken), "--no-banner"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: corpus: cannot write corpus {taken}: ")
    assert err.count("\n") == 1


def test_suite_witnesses_into_a_regular_file_is_a_corpus_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run(capsys, ["suite", "builtin:example", "--witness-dir", str(taken),
                                  "--no-banner"])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: corpus: cannot write witnesses under {taken}: ")
    assert err.count("\n") == 1
