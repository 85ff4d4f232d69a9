import json
import os
import subprocess
import sys

import pytest

from peal.cli import main
from peal.constructions import boolean4_table, diamond_table
from peal.core import dumps_document, table_from_document, table_to_document


@pytest.fixture()
def docs(tmp_path):
    paths = {}
    for name, table in (("diamond", diamond_table()), ("boolean4", boolean4_table())):
        p = tmp_path / (name + ".json")
        p.write_text(dumps_document(table_to_document(table)))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_pass(docs, capsys):
    code, out = run(capsys, ["verify", docs["diamond"]])
    assert code == 0
    assert "symmetric: true" in out


def test_verify_axiom_failure(tmp_path, capsys):
    doc = {
        "elements": ["0", "a", "1"],
        "zero": "0",
        "one": "1",
        "add": [["0", "0", "0"], ["0", "a", "a"], ["a", "0", "a"],
                ["0", "1", "1"], ["1", "0", "1"], ["a", "a", "1"],
                ["1", "a", "a"]],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["verify", str(p)])
    assert code == 1
    assert "PE4" in out


def test_verify_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    assert main(["verify", str(p)]) == 2


def test_verify_gpea_kind(tmp_path, capsys):
    doc = {"elements": ["0", "a", "b"], "zero": "0",
           "add": [["0", "0", "0"], ["0", "a", "a"], ["a", "0", "a"],
                   ["0", "b", "b"], ["b", "0", "b"], ["a", "a", "b"]]}
    p = tmp_path / "gpea.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["verify", str(p), "--kind", "gpea"])
    assert code == 0
    assert "axioms[gpea]" in out


def test_states_command(docs, capsys):
    code, out = run(capsys, ["--format", "json", "states", docs["boolean4"],
                             "--discrete", "2", "--extremal"])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["discrete_states_n2"] == [
        {"0": "0", "1": "1", "a": "1/2", "a'": "1/2"}
    ]
    assert len(data["results"]["extremal_states"]) == 2


def test_states_diamond(docs, capsys):
    code, out = run(capsys, ["--format", "json", "states", docs["diamond"]])
    data = json.loads(out)
    assert code == 0
    assert data["results"]["extremal_states"] == [
        {"0": "0", "1": "1", "a": "1/2", "b": "1/2"}
    ]


def test_decompose_command(docs, capsys):
    code, out = run(capsys, ["--format", "json", "decompose", docs["boolean4"], "1"])
    assert code == 0
    assert len(json.loads(out)["results"]["decompositions"]) == 2


def test_ideals_command(docs, capsys):
    code, out = run(capsys, ["--format", "json", "ideals", docs["boolean4"]])
    data = json.loads(out)
    assert code == 0
    assert [i["members"] for i in data["results"]["ideals"]] == [
        ["0"], ["0", "a"], ["0", "a'"], ["0", "1", "a", "a'"],
    ]
    assert len(data["results"]["two_valued_partition"]) == 2


def test_quotient_command(docs, tmp_path, capsys):
    out_path = tmp_path / "quotient.json"
    code, out = run(capsys, ["--format", "json", "quotient", docs["boolean4"],
                             "--ideal", "0,a", "-o", str(out_path)])
    assert code == 0
    saved = table_from_document(json.loads(out_path.read_text()))
    assert saved.size == 2
    assert json.loads(out)["results"]["linear"] is True


def test_unitize_command(tmp_path, capsys):
    doc = {"elements": ["0", "a"], "zero": "0",
           "add": [["0", "0", "0"], ["0", "a", "a"], ["a", "0", "a"]]}
    p = tmp_path / "gpea.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["--format", "json", "unitize", str(p)])
    assert code == 0
    lifted = json.loads(out)["results"]["unitization_document"]
    assert len(lifted["elements"]) == 4


def test_unitize_sharp_names_avoid_existing_elements(tmp_path, capsys):
    # x + "#" is already an element, so the sharp copies need "##"
    doc = {"elements": ["0", "x", "x#"], "zero": "0",
           "add": [["0", "0", "0"], ["0", "x", "x"], ["x", "0", "x"],
                   ["0", "x#", "x#"], ["x#", "0", "x#"], ["x", "x", "x#"]]}
    p = tmp_path / "gpea.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, ["--format", "json", "unitize", str(p)])
    assert code == 0
    lifted = json.loads(out)["results"]["unitization_document"]
    assert sorted(lifted["elements"]) == ["0", "0##", "x", "x#", "x##", "x###"]
    assert lifted["one"] == "0##"


MALFORMED_DOCUMENTS = {
    "zero-not-a-string": {"elements": ["0", "1"], "zero": ["0"], "one": "1",
                          "add": [["0", "1", "1"]]},
    "list-inside-add-triple": {"elements": ["0", "1"], "zero": "0", "one": "1",
                               "add": [["0", ["1"], "1"]]},
    # a string would otherwise be split into the valid two-chain 0, 1
    "elements-a-string": {"elements": "01", "zero": "0", "one": "1",
                          "add": [["0", "0", "0"], ["0", "1", "1"], ["1", "0", "1"]]},
}


def run_process(argv):
    """``pea argv`` in a fresh interpreter, so that a traceback shows on stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "peal.cli"] + argv,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_is_input_error(tmp_path, name):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(MALFORMED_DOCUMENTS[name]))
    proc = run_process(["verify", str(p)])
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


MALFORMED_CONSTRUCTIONS = {
    "offset-not-integers": ["--lex-product", "2", "--group", "z:2", "--offset", "x"],
    "interval-not-integers": ["--interval", "a,b", "--group", "z:2"],
    "interval-too-short-for-z3": ["--interval", "1,1", "--group", "z:3"],
    "interval-too-short-for-twisted-z3": ["--interval", "1", "--group", "twisted-z3"],
    "interval-too-long-for-lex-z1": ["--interval", "0,1,2", "--group", "lex:z:1"],
    # a short offset used to be zipped away and reported as a failed axiom
    "offset-too-short-for-z2": ["--lex-product", "2", "--group", "z:2", "--offset", "1"],
    "samples-zero": ["--lex-product", "2", "--group", "z:1", "--samples", "0"],
    "samples-negative": ["--lex-product", "2", "--group", "z:1", "--samples", "-5"],
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONSTRUCTIONS))
def test_malformed_construction_is_input_error(name):
    proc = run_process(["construct"] + MALFORMED_CONSTRUCTIONS[name])
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_construct_lex_extension_elements(capsys):
    # m, g1..gK is the element (m, (g1..gK)) of the lex extension of Z^K
    code, out = run(capsys, ["--format", "json", "construct", "--interval", "0,1",
                             "--group", "lex:z:1"])
    assert code == 0
    assert json.loads(out)["results"]["document"]["elements"] == ["(0,0)", "(0,1)"]
    code, _ = run(capsys, ["construct", "--lex-product", "2", "--group", "lex:z:1",
                           "--offset", "0,1", "--samples", "50"])
    assert code == 0


def test_construct_builtin(tmp_path, capsys):
    out_path = tmp_path / "c4.json"
    code, _ = run(capsys, ["construct", "--builtin", "chain:4", "-o", str(out_path)])
    assert code == 0
    table = table_from_document(json.loads(out_path.read_text()))
    assert table.size == 5 and table.one == "1"


def test_construct_symbolic(capsys):
    code, out = run(capsys, ["--format", "json", "construct", "--lex-product", "2",
                             "--group", "z:1", "--samples", "120"])
    assert code == 0
    data = json.loads(out)
    assert data["results"]["symbolic"]["levels"] == "2"
    assert all(v["passed"] for v in data["verdicts"])


def test_construct_usage_error(capsys):
    assert main(["construct"]) == 2


def test_suite_small(capsys):
    code, out = run(capsys, ["--format", "json", "suite", "--max-size", "3",
                             "--samples", "150"])
    assert code == 0
    data = json.loads(out)
    assert all(v["passed"] for v in data["verdicts"])


def test_suite_cap(capsys):
    assert main(["suite", "--max-size", "10"]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_suite_refuses_nonpositive_samples(samples):
    # with no sample drawn, every sampled verdict would pass unwitnessed
    proc = run_process(["suite", "--max-size", "3", "--samples", samples])
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_suite_deterministic(capsys):
    _, out1 = run(capsys, ["--format", "json", "--seed", "7", "suite",
                           "--max-size", "2", "--samples", "100"])
    _, out2 = run(capsys, ["--format", "json", "--seed", "7", "suite",
                           "--max-size", "2", "--samples", "100"])
    assert out1 == out2


def test_seed_env_override(docs, capsys, monkeypatch):
    monkeypatch.setenv("PEA_SEED", "123")
    code, out = run(capsys, ["--format", "json", "verify", docs["diamond"]])
    assert json.loads(out)["seed"] == 123


def test_document_byte_stability(docs):
    text = open(docs["diamond"]).read()
    doc = json.loads(text)
    assert dumps_document(table_to_document(table_from_document(doc))) == text


def test_decompose_output_independent_of_hash_seed(tmp_path):
    doc = tmp_path / "b3.json"
    assert main(["construct", "--interval", "1,1,1", "--group", "z:3", "-o", str(doc)]) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = set()
    for hash_seed in ("0", "1", "2", "3"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "peal.cli", "--format", "json", "decompose", str(doc), "2"],
            env=env, capture_output=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
