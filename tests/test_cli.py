import json

import pytest

from finsemi import semigroups as sg
from finsemi.cli import main


@pytest.fixture
def b2_file(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(sg.catalog("B2").to_json_dict()))
    return str(path)


@pytest.fixture
def lz2_file(tmp_path):
    path = tmp_path / "lz2.json"
    path.write_text(json.dumps(sg.catalog("left_zero", 2).to_json_dict()))
    return str(path)


def test_member(capsys, lz2_file, b2_file):
    assert main(["member", "--v", "K", "--input", lz2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] is True
    assert main(["member", "--v", "K", "--input", b2_file]) == 1


def test_ident_check(capsys, b2_file):
    code = main(["ident-check", "--input", b2_file, "--id", "x1^w = x1^w x2"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["satisfies"] is False and out["witness"] is not None


def test_green(capsys, b2_file):
    # the whole output, pinned: classes and H are built on read
    assert main(["green", "--input", b2_file]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "order": 5,
        "r_classes": [[0, 2], [1, 3], [4]],
        "l_classes": [[0, 3], [1, 2], [4]],
        "j_classes": [[0, 1, 2, 3], [4]],
        "h_classes": [[0], [1], [2], [3], [4]],
        "regular_j": [0, 1],
        "idempotents": [2, 3, 4],
    }


def test_malcev(capsys, lz2_file, b2_file):
    assert main(["malcev", "--z", "K", "--v", "Sl", "--input", lz2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] is True and out["mu_quotient_order"] == 1
    assert "witness" in out
    assert main(["malcev", "--z", "LG", "--v", "Sl", "--input", b2_file]) == 1


def test_malcev_past_the_witness_budget_reports_the_verdict(capsys, tmp_path):
    # left_zero(11) is in K m Sl, but the congruence search behind the
    # witness stops at order CONGRUENCE_MAX_ORDER = 10
    path = tmp_path / "lz11.json"
    path.write_text(json.dumps(sg.catalog("left_zero", 11).to_json_dict()))
    assert main(["malcev", "--z", "K", "--v", "Sl", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"member": True, "mu_quotient_order": 1,
                   "witness_skipped": "budget exceeded: congruence search on "
                                      "order 11 exceeds 10"}
    assert main(["malcev", "--z", "D", "--v", "Sl", "--input", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"member": False,
                                                    "mu_quotient_order": 11}


def test_phi(capsys):
    assert main(["phi", "--k", "1", "--input", "abab"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == ["ab", "ba", "ab"]
    assert main(["phi", "--k", "1", "--input", "(a b)^w"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "term" and "[ab]" in out["image"]
    assert main(["phi", "--k", "0", "--input", "(a b)^w"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["image"] == "([a] [b])^(w-1) [a] [b]"
    assert main(["phi", "--k", "-1", "--input", "abab"]) == 2


def test_phi_from_file(capsys, tmp_path):
    path = tmp_path / "term.txt"
    path.write_text("(a b)^w c\n")
    assert main(["phi", "--k", "1", "--input", f"@{path}"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "term"


def test_ilbf(capsys):
    assert main(["ilbf", "--input", "abab"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"outcome": "finite", "factors": [["a", "b"], ["a", "b"]],
                   "remainder": ""}
    assert main(["ilbf", "--input", "(a b)^w"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "infinite"
    assert main(["ilbf", "--input", "(a b)^w", "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "infinite"


def test_ilbf_nonpositive_cap_is_a_usage_error(capsys):
    for cap in ("0", "-3"):
        assert main(["ilbf", "--input", "(a b)^w", "--cap", cap]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cap must be at least 1" in captured.err
    assert main(["ilbf", "--input", "(a b)^w", "--cap", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"] == "unknown"


def test_syn(capsys):
    assert main(["syn", "--regex", "(ab)+"]) == 0
    out = json.loads(capsys.readouterr().out)
    S = sg.FiniteSemigroup.from_json_dict(out)
    assert sg.is_isomorphic(S, sg.catalog("B2"))


def test_enumerate(capsys, tmp_path):
    out_path = tmp_path / "corpus.jsonl"
    assert main(["enumerate", "--max-order", "3", "--out", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"1": 1, "2": 5, "3": 24}
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 30
    entry = json.loads(lines[0])
    assert {"id", "order", "table", "flags", "provenance"} <= set(entry)


def test_verify_paper_single_suite(capsys):
    assert main(["verify-paper", "--suite", "enumeration_counts"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out[0]["passed"] is True


def test_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["member", "--v", "K", "--input", str(bad)]) == 2
    assert main(["member", "--v", "NOPE", "--input", str(bad)]) == 2


@pytest.mark.parametrize("semigroup", [
    {"table": [[0, 0], [0, 1]], "labels": ["a"]},
    {"table": []},
    {"table": [[False]]},
    {"table": [[0, 1], [1, 0]], "generators": [True]},
])
def test_malformed_semigroup_is_a_usage_error(capsys, tmp_path, semigroup):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(semigroup))
    assert main(["malcev", "--z", "K", "--v", "Sl", "--input", str(path)]) == 2
    assert main(["member", "--v", "Sl", "--input", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_budget_exit_code(capsys, tmp_path):
    # enumerate order 6 exceeds the exact-enumeration budget
    assert main(["enumerate", "--max-order", "6"]) == 3


def test_ident_check_budget_exit_code(capsys, tmp_path):
    # 8^12 assignments of a 12-letter identity on an order-8 semigroup
    # exceed the satisfies budget: refused at once, not walked
    path = tmp_path / "c8.json"
    path.write_text(json.dumps(sg.catalog("cyclic", 8).to_json_dict()))
    word = " ".join(f"x{i}" for i in range(1, 13))
    assert main(["ident-check", "--input", str(path),
                 "--id", f"{word} = {word}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify-paper", "--suite", "malcev_equalities", "--max-order", "0"],
    ["verify-paper", "--suite", "malcev_equalities", "--max-order", "-2"],
    ["enumerate", "--max-order", "-3"],
])
def test_max_order_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-order" in captured.err


def test_syn_budget_exit_code(monkeypatch):
    # the syntactic semigroup of (ab)+ is B2, of order 5
    assert main(["syn", "--regex", "(ab)+"]) == 0
    monkeypatch.setattr(sg, "CLOSURE_BUDGET", 3)
    assert main(["syn", "--regex", "(ab)+"]) == 3


def test_member_custom_pseudovariety(capsys, tmp_path, lz2_file, b2_file):
    pv_file = tmp_path / "myk.json"
    pv_file.write_text(json.dumps(
        {"name": "myK", "basis": [{"lhs": "x1^w x2", "rhs": "x1^w"}]}))
    assert main(["member", "--v", f"@{pv_file}", "--input", lz2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"member": True, "pseudovariety": "myK"}
    # malcev loads the same file
    assert main(["malcev", "--z", "K", "--v", f"@{pv_file}",
                 "--input", lz2_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["member"] is True and "witness" in out
    assert main(["malcev", "--z", "LG", "--v", f"@{pv_file}",
                 "--input", b2_file]) == 1


def test_permanence_counterexample_replays(capsys, tmp_path):
    # the serialized counterexample alone suffices to replay the refutation
    from finsemi import suites
    report = suites.run_suite("permanence")
    refutations = [e for e in report.examples if e.get("verdict") == "refuted"]
    assert refutations
    ex = refutations[0]
    sgp_file = tmp_path / "witness.json"
    sgp_file.write_text(json.dumps(ex["semigroup"]))
    ident = f"{ex['lhs']} = {ex['rhs']}"
    assert main(["ident-check", "--input", str(sgp_file), "--id", ident]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["satisfies"] is False
