import hashlib
import json
import subprocess
import sys

import pytest

from schubert_clans import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_json(capsys):
    code, out, err = run_cli(
        capsys, "product", "--x", "31425", "--y", "14253", "--p", "3", "--verify"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "match"
    assert len(doc["output"]["terms"]) == 8
    assert all(t["coeff"] == 1 for t in doc["output"]["terms"])
    assert "product:" in err  # timing goes to stderr only


def test_product_without_verify_has_no_verdict(capsys):
    code, out, _ = run_cli(capsys, "product", "--x", "12345", "--y", "12345", "--p", "3")
    assert code == 0
    doc = json.loads(out)
    assert "verdict" not in doc
    assert doc["output"]["terms"] == [{"coeff": 1, "w": "12345"}]


def test_cached_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--x", "31425", "--y", "14253", "--p", "3", "--verify"
    )
    assert code == 0
    assert json.loads(out)["inputs"]["verify"] is True
    code, out, _ = run_cli(capsys, "product", "--x", "31425", "--y", "14253", "--p", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"]["verify"] is False
    assert "verdict" not in doc
    assert cli.build_parser() is cli.build_parser()


def test_product_perm_guard_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "product", "--x", "31425", "--y", "14253", "--p", "3", "--perm-guard", "4"
    )
    assert code == 2
    assert out == ""
    assert "guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle-product", "--x", "21", "--y", "21", "--perm-guard", "5"),
        ("product", "--x", "21", "--y", "12", "--p", "1", "--clan-guard", "5"),
        ("graph", "--p", "1", "--q", "1", "--perm-guard", "5"),
        ("verify", "--n", "3", "--format", "json"),
        ("table1", "--format", "json"),
        ("verify", "--n", "3", "--perm-guard", "5"),
    ],
)
def test_options_a_subcommand_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_output_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "product", "--x", "31425", "--y", "14253", "--p", "3")
    _, second, _ = run_cli(capsys, "product", "--x", "31425", "--y", "14253", "--p", "3")
    assert first == second
    _, g1, _ = run_cli(capsys, "graph", "--p", "2", "--q", "2")
    _, g2, _ = run_cli(capsys, "graph", "--p", "2", "--q", "2")
    assert g1 == g2


def test_product_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--x", "31425", "--y", "14253", "--p", "3", "--format", "text"
    )
    assert code == 0
    assert out.startswith("S_31425 * S_14253 = ")
    assert out.count("S_") == 10  # two factors + eight terms


def test_product_bad_p_exits_2(capsys):
    code, out, err = run_cli(capsys, "product", "--x", "31425", "--y", "14253", "--p", "2")
    assert code == 2
    assert out == ""
    assert "descending shuffle" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("product", "--x", "31425", "--y", "14253", "--p", "2"),
            "x = 31425 is not admissible at p = 2: u = w0 x = 35241 is not a descending "
            "shuffle: the values <= 2 and the values > 2 must each appear in descending order",
        ),
        (
            ("product", "--x", "31425", "--y", "21345", "--p", "3"),
            "y = 21345 is not an ascending shuffle at p = 3: the values <= 3 and the "
            "values > 3 must each appear in ascending order",
        ),
        (
            ("clan-of", "--u", "35241", "--v", "14253", "--p", "2"),
            "u = 35241 is not a descending shuffle at p = 2: the values <= 2 and the "
            "values > 2 must each appear in descending order",
        ),
    ],
)
def test_shuffle_errors_name_the_typed_permutation(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_product_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "product", "--x", "31", "--y", "12", "--p", "1")
    assert code == 2
    assert "error:" in err


def test_oracle_product_all_terms(capsys):
    code, out, _ = run_cli(capsys, "oracle-product", "--x", "21", "--y", "21")
    assert code == 0
    assert json.loads(out)["output"]["terms"] == [{"coeff": 1, "w": "312"}] or json.loads(out)["output"]["terms"] == []
    code, out, _ = run_cli(capsys, "oracle-product", "--x", "21", "--y", "21", "--all-terms")
    assert code == 0
    assert json.loads(out)["output"]["terms"] == [{"coeff": 1, "w": "312"}]


def test_clan_of(capsys):
    code, out, _ = run_cli(capsys, "clan-of", "--u", "365421", "--v", "142356", "--p", "3")
    assert code == 0
    assert json.loads(out)["output"]["clan"] == "(+,-,1,2,2,1)"
    code, out, _ = run_cli(
        capsys, "clan-of", "--u", "21", "--v", "12", "--p", "1", "--format", "text"
    )
    assert code == 0
    assert out == "(1,1)\n"


def test_clan_of_incomparable_exits_2(capsys):
    code, _, err = run_cli(capsys, "clan-of", "--u", "12", "--v", "21", "--p", "1")
    assert code == 2
    assert "not >=" in err


def test_pair_of(capsys):
    code, out, _ = run_cli(capsys, "pair-of", "--clan", "(+,-,1,2,2,1)")
    assert code == 0
    doc = json.loads(out)["output"]
    assert doc["u"] == "365421" and doc["v"] == "142356"
    assert doc["p"] == 3 and doc["q"] == 3
    code, _, err = run_cli(capsys, "pair-of", "--clan", "(1,2,1,2)")
    assert code == 2
    assert "pattern" in err


def test_graph_dot_and_json(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "1", "--q", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 2
    code, out, _ = run_cli(capsys, "graph", "--p", "3", "--q", "2")
    assert code == 0
    doc = json.loads(out)["output"]
    assert len(doc["nodes"]) == 55  # count_clans(3, 2)
    assert all(e["mult"] == 1 for e in doc["edges"])


def test_graph_export_bytes_pinned(capsys):
    # the JSON keeps "mult": 1 on every edge and the DOT edges carry only
    # their root label; these digests pin both exports byte for byte
    digests = {
        "json": "5a377f1b94c71e4a0eeed9e15b17a4d250e74e41a8d6dceab67c97ad10ec4c83",
        "dot": "7499dfd5b9678b38d4bb3672503d49cd2c5da75478dfa6ef650e51547e85c1b7",
    }
    for fmt, digest in digests.items():
        code, out, _ = run_cli(capsys, "graph", "--p", "3", "--q", "3", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_graph_guard(capsys):
    code, _, err = run_cli(capsys, "graph", "--p", "9", "--q", "9")
    assert code == 2
    assert "guard" in err
    code, _, _ = run_cli(capsys, "clans", "--p", "3", "--q", "2", "--clan-guard", "4")
    assert code == 2


def test_clans_listing(capsys):
    code, out, _ = run_cli(capsys, "clans", "--p", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)["output"]
    assert doc["count"] == 21
    assert len(doc["clans"]) == 21
    code, out, _ = run_cli(capsys, "clans", "--p", "1", "--q", "1", "--format", "text")
    assert out == "(+,-)\n(-,+)\n(1,1)\n"


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["output"]["mismatches"] == []
    assert doc["output"]["pairs_checked"] > 0


def test_verify_max_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-cases", "5")
    assert code == 0
    assert json.loads(out)["output"]["pairs_checked"] == 5


def test_verify_max_cases_on_a_p_boundary(capsys):
    # n = 4 has 10 admissible pairs with p = 1, so a cap of 10 never reaches p = 2
    code, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-cases", "10")
    assert code == 0
    assert json.loads(out)["output"]["pairs_by_p"] == {"1": 10}
    _, out, _ = run_cli(capsys, "verify", "--n", "4", "--max-cases", "11")
    assert json.loads(out)["output"]["pairs_by_p"] == {"1": 10, "2": 1}


@pytest.mark.parametrize("value", ["0", "-1"])
def test_verify_max_cases_below_one_exits_2(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--n", "4", "--max-cases", value)
    assert code == 2
    assert out == ""
    assert "--max-cases" in err


def test_verify_n_out_of_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "9")
    assert code == 2
    assert "1 <= n <= 8" in err


def test_table1(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["output"]["rows"] == 20
    assert doc["output"]["bytes_match"] is True
    assert doc["output"]["start_clan"] == "(+,-,+,-,+)"


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_clans.cli", "clan-of", "--u", "21", "--v", "12", "--p", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["output"]["clan"] == "(1,1)"


def test_unknown_subcommand_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "schubert_clans.cli", "bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
