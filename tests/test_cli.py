import contextlib
import inspect
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_clans import clans, cli, oracle, richardson, weak_order

from conftest import load_tool


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


def test_expansion_json_shape():
    x, y = (3, 1, 4, 2, 5), (1, 4, 2, 5, 3)
    doc = cli._expansion_json(x, y, 3, richardson.special_product(x, y, 3))
    assert doc["x"] == "31425" and doc["y"] == "14253" and doc["p"] == 3
    ws = [t["w"] for t in doc["terms"]]
    assert ws == sorted(ws)
    assert all(t["coeff"] == 1 for t in doc["terms"])


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
        (
            ("clan-of", "--u", "52143", "--v", "13425", "--p", "2"),
            "u = 52143 is not >= v = 13425: at prefix i = 3 there are 1 positions with "
            "u > 2 >= v but 2 with v > 2 >= u; the pair names an empty Richardson variety, "
            "so the clan rule does not apply (use the polynomial oracle for the general product)",
        ),
        (
            # u = w0 x = 12 sits below v = 21 from the first position on
            ("product", "--x", "21", "--y", "21", "--p", "1"),
            "u = 12 is not >= v = 21: at prefix i = 1 there are 0 positions with "
            "u > 1 >= v but 1 with v > 1 >= u; the pair names an empty Richardson variety, "
            "so the clan rule does not apply (use the polynomial oracle for the general product)",
        ),
        (
            ("pair-of", "--clan", "(1,2,1,2)"),
            "clan (1,2,1,2) contains the interleaved pattern (1,2,1,2) and is not the "
            "clan of any Richardson pair",
        ),
        (
            # a superscript two is a digit to str.isdigit but not to int()
            ("pair-of", "--clan", "²"),
            "bad clan token '²' in '²'",
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
    code, out, err = run_cli(capsys, "product", "--x", "3a1", "--y", "123", "--p", "1")
    assert (code, out) == (2, "")
    assert err == "error: cannot parse x from '3a1'\n"


@pytest.mark.parametrize(
    "command, option, other",
    [("product", "x", "y"), ("product", "y", "x"), ("oracle-product", "x", "y"),
     ("oracle-product", "y", "x"), ("clan-of", "u", "v"), ("clan-of", "v", "u")],
)
@pytest.mark.parametrize(
    "value, message",
    [("11", "{} = 11 is not a permutation of 1..2"), ("3a1", "cannot parse {} from '3a1'"),
     ("", "cannot parse {} from ''")],
)
def test_a_bad_permutation_error_names_its_option(capsys, command, option, other, value, message):
    block = () if command == "oracle-product" else ("--p", "1")
    code, out, err = run_cli(capsys, command, f"--{option}", value, f"--{other}", "12", *block)
    assert (code, out) == (2, "")
    assert err == f"error: {message.format(option)}\n"


def test_oracle_product_all_terms(capsys):
    code, out, _ = run_cli(capsys, "oracle-product", "--x", "21", "--y", "21")
    assert code == 0
    # S_21 * S_21 = S_312 lies outside S_2, so the restricted product is 0
    assert json.loads(out)["output"]["terms"] == []
    code, out, _ = run_cli(capsys, "oracle-product", "--x", "21", "--y", "21", "--all-terms")
    assert code == 0
    assert json.loads(out)["output"]["terms"] == [{"coeff": 1, "w": "312"}]


def test_oracle_product_text_format(capsys):
    argv = ("oracle-product", "--x", "132546", "--y", "135624", "--format", "text")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "S_132546 * S_135624 = S_154623 + 2 S_245613 + S_253614\n"
    # S_21 * S_21 = S_312 has no S_2 part
    code, out, _ = run_cli(capsys, "oracle-product", "--x", "21", "--y", "21", "--format", "text")
    assert (code, out) == (0, "S_21 * S_21 = 0\n")


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
    code, out, _ = run_cli(capsys, "pair-of", "--clan", "(+,-,1,2,2,1)", "--format", "text")
    assert (code, out) == (0, "u = 365421, v = 142356\n")
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


def _json_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# text with every kind of character the escaper treats apart: quotes,
# backslashes, control characters, non-ASCII and lone surrogates
_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\x00\x1f\x7f\n\t\ud800\udfff')
)
_LEAVES = (
    _TEXT
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 10**30, -1])
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300)
@given(st.dictionaries(_TEXT, _DOCS, max_size=5))
def test_dumps_gives_the_bytes_of_json_dumps(doc):
    assert cli._dumps(doc) == _json_dumps(doc)


def test_dumps_empty_containers_at_depth():
    doc = {"a": [{}, [], (), {"b": [[], {}]}], "c": {}, "d": []}
    assert cli._dumps(doc) == _json_dumps(doc)
    assert cli._dumps({}) == "{}\n"


def test_dumps_streams_iterators_as_arrays():
    # given a stream, arrays write out what they gathered and only the
    # rest is returned
    doc = {"a": list(range(20000)), "b": [], "c": [[{"d": [1]}], ()]}
    want = _json_dumps(doc)
    assert cli._dumps(doc) == want
    stream = io.StringIO()
    tail = cli._dumps(doc, stream)
    assert stream.getvalue() and len(tail) < len(want)
    assert stream.getvalue() + tail == want


def test_dumps_fills_rows_from_one_template():
    # a _Rows array is written as json.dumps writes its items, at any
    # depth, with "%" in keys and strings, and streamed like any array
    shape = {"a%s": cli._SLOT, "b": [cli._SLOT, "100%"], "c": {}, "n": cli._SLOT}
    items = [{"a%s": "x%d", "b": ["\u00e9\n", "100%"], "c": {}, "n": k} for k in range(5000)]

    def doc():
        rows = ((json.dumps(item["a%s"]), json.dumps(item["b"][0]), item["n"]) for item in items)
        return {"r": [{"rows": cli._Rows(shape, rows)}], "e": cli._Rows(shape, iter([]))}

    want = _json_dumps({"r": [{"rows": items}], "e": []})
    assert cli._dumps(doc()) == want
    stream = io.StringIO()
    tail = cli._dumps(doc(), stream)
    assert stream.getvalue() and stream.getvalue() + tail == want


@pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (1, 4), (3, 0)])
def test_graph_report_edges_are_graph_json_dict_edges(capsys, p, q):
    # the report's edges are graph_json_dict's rows, in order, each single
    code, out, _ = run_cli(capsys, "graph", "--p", str(p), "--q", str(q))
    assert code == 0
    doc = weak_order.graph_json_dict(weak_order.weak_order_graph(p, q))
    doc["edges"] = [
        {"src": src, "dst": dst, "root": root, "mult": 1} for src, dst, root in doc["edges"]
    ]
    assert json.loads(out)["output"] == doc
    assert out == _json_dumps(json.loads(out))


@pytest.mark.parametrize("p,q", [(10, 1), (1, 10)])
def test_graph_reports_with_two_digit_roots(capsys, p, q):
    # CLI_DIGEST.json stops at p + q <= 8 plus (4, 5), so no pinned call
    # has a root of two digits
    code, out, _ = run_cli(capsys, "graph", "--p", str(p), "--q", str(q))
    assert code == 0
    doc = json.loads(out)
    graph = doc["output"]
    assert (len(graph["nodes"]), len(graph["edges"])) == (66, 110)
    assert {e["root"] for e in graph["edges"]} == set(range(1, 11))
    assert out == _json_dumps(doc)
    code, out, _ = run_cli(capsys, "graph", "--p", str(p), "--q", str(q), "--format", "dot")
    assert code == 0
    assert (out.count('";\n'), out.count(" -> ")) == (66, 110)
    assert "[label=10];" in out


@pytest.mark.parametrize(
    "doc",
    [{1: "int key"}, {"a": {("t",): 1}}, {"a": [{None: 1}]}, {"a": {1, 2}}, {"a": [object()]},
     {"a": iter([1])}],
    ids=["int key", "tuple key", "None key", "set", "object", "iterator"],
)
def test_dumps_refuses_what_json_cannot_write(doc):
    # keys must be str, although json.dumps would stringify int and None keys;
    # a bare iterator is refused, as json.dumps refuses it
    with pytest.raises(TypeError):
        cli._dumps(doc)


# graph --p 4 --q 5 is the benchmark's largest graph_export shape; its bytes
# are pinned in CLI_DIGEST.json, and the streamed report must be the bytes of
# json.dumps of the whole envelope
def test_largest_graph_report_is_json_dumps_of_its_envelope(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "4", "--q", "5")
    assert code == 0
    doc = json.loads(out)
    graph = doc["output"]
    assert (len(graph["nodes"]), len(graph["edges"])) == (9891, 38640)
    # compared outside the assert: pytest's diff of two 4.8 MB strings would not end
    same = out == _json_dumps(doc)
    assert same


def test_largest_graph_dot_report_pinned(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "4", "--q", "5", "--format", "dot")
    assert code == 0
    assert (out.count('";\n'), out.count(" -> ")) == (9891, 38640)


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_graph_export_memory_is_bounded(fmt):
    # a report built whole before printing holds every edge several times
    # over: 53.4 MB (JSON) and 19.8 MB (DOT) at this shape.  Streamed, JSON
    # peaks at 2.9 MB with _FLUSH_PIECES = 2048 and 3.8 MB with 8192, and
    # DOT at 2.2 MB
    argv = ["graph", "--p", "4", "--q", "5", "--format", fmt]
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            code = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak <= 3_500_000, f"{peak / 1e6:.2f} MB"


def test_a_guard_is_not_echoed(capsys):
    # the report echoes every option except --format and the guards under
    # "inputs", so a guard that lets the call through leaves the bytes as they are
    product = ("product", "--x", "31425", "--y", "14253", "--p", "3")
    for argv, guard in ((product, ("--perm-guard", "10")),
                        (("clans", "--p", "2", "--q", "2"), ("--clan-guard", "84"))):
        code, plain, _ = run_cli(capsys, *argv)
        assert (code, run_cli(capsys, *argv, *guard)[:2]) == (0, (0, plain)), argv


def test_clan_of_report_literal(capsys):
    code, out, _ = run_cli(capsys, "clan-of", "--u", "365421", "--v", "142356", "--p", "3")
    assert code == 0
    assert out == (
        '{\n  "command": "clan-of",\n  "inputs": {\n    "p": 3,\n    "u": "365421",\n'
        '    "v": "142356"\n  },\n  "output": {\n    "clan": "(+,-,1,2,2,1)"\n  }\n}\n'
    )


def test_product_verify_mismatch_report(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "oracle_product", lambda *args: {})
    argv = ("product", "--x", "31425", "--y", "14253", "--p", "3", "--verify")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "mismatch"
    assert doc["oracle"] == {"p": 3, "terms": [], "x": "31425", "y": "14253"}
    assert len(doc["output"]["terms"]) == 8
    code, out, _ = run_cli(capsys, *argv, "--format", "text")
    assert code == 1
    assert out.endswith("\noracle: mismatch\n")


def test_verify_failure_report(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "oracle_product", lambda *args: {})
    code, out, _ = run_cli(capsys, "verify", "--n", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    mismatches = doc["output"]["mismatches"]
    assert len(mismatches) == doc["output"]["pairs_checked"] > 0
    assert len({(m["p"], m["u"], m["v"]) for m in mismatches}) == len(mismatches)


def test_table1_failure_report(capsys, monkeypatch):
    monkeypatch.setattr(weak_order, "act_word", lambda word, start: start)
    code, out, _ = run_cli(capsys, "table1")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["output"]["bytes_match"] is False
    assert doc["output"]["diffs"]
    assert all(d["got"]["clan"] == "(+,-,+,-,+)" for d in doc["output"]["diffs"])


def test_graph_guard(capsys):
    code, _, err = run_cli(capsys, "graph", "--p", "9", "--q", "9")
    assert code == 2
    assert "guard" in err
    # the guard caps count_clans(p, q) * (p + q) symbols: 55 * 5 at (3, 2)
    code, out, _ = run_cli(capsys, "clans", "--p", "3", "--q", "2", "--clan-guard", "275")
    assert code == 0
    assert json.loads(out)["output"]["count"] == 55
    code, _, _ = run_cli(capsys, "graph", "--p", "3", "--q", "2", "--clan-guard", "275")
    assert code == 0
    code, _, _ = run_cli(capsys, "clans", "--p", "3", "--q", "2", "--clan-guard", "274")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--p", "9", "--q", "9"),
        ("graph", "--p", "9", "--q", "9", "--format", "dot"),
        ("graph", "--p", "3", "--q", "2", "--clan-guard", "274"),
        ("graph", "--p", "3", "--q", "2", "--clan-guard", "274", "--format", "dot"),
        ("clans", "--p", "9", "--q", "9"),
        ("clans", "--p", "3", "--q", "2", "--clan-guard", "274", "--format", "text"),
    ],
    ids=" ".join,
)
def test_refused_call_prints_no_partial_report(capsys, argv):
    # graph writes its report while it makes it, so a refusal must come first
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: enumeration of (")
    assert "above the guard" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "--p", "100000", "--q", "100000"),
        ("graph", "--p", "100000", "--q", "100000", "--format", "dot"),
        ("clans", "--p", "30000", "--q", "30000"),
    ],
    ids=" ".join,
)
def test_huge_shape_is_refused_without_counting_its_clans(capsys, monkeypatch, argv):
    # an exact count at these shapes is minutes of big-integer work; the
    # guard refuses on a lower bound first
    def no_count(p, q):
        raise AssertionError("count_clans ran on a shape its lower bound refuses")

    monkeypatch.setattr(clans, "count_clans", no_count)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "needs size at least" in err and "above the guard 12000000" in err


def test_clans_listing(capsys):
    code, out, _ = run_cli(capsys, "clans", "--p", "2", "--q", "2")
    assert code == 0
    doc = json.loads(out)["output"]
    assert doc["count"] == 21
    assert len(doc["clans"]) == 21
    code, out, _ = run_cli(capsys, "clans", "--p", "1", "--q", "1", "--format", "text")
    assert out == "(+,-)\n(-,+)\n(1,1)\n"


@pytest.mark.parametrize("subcommand", ["clans", "graph"])
def test_listing_past_the_recursion_limit_exits_2(capsys, subcommand):
    # the clan DFS takes one frame per symbol, 201 here, and the lowered
    # limit leaves it 150 frames above this test
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        code, out, err = run_cli(
            capsys, subcommand, "--p", "1", "--q", "200", "--clan-guard", "1000000000"
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error: (1,200)-clans need 201 DFS frames, past the recursion limit ")


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


def test_verify_max_cases_above_sys_maxsize(capsys):
    # a count past every pair checks every pair, however large it is
    _, whole, _ = run_cli(capsys, "verify", "--n", "3")
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--max-cases", str(10**23))
    assert code == 0, err
    assert json.loads(out)["output"] == json.loads(whole)["output"]


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


DIGEST = load_tool("cli_digest")
DIGEST_GROUPS = json.loads(DIGEST.DIGEST_FILE.read_text())["groups"]


@pytest.mark.parametrize("name", sorted(DIGEST_GROUPS.keys() | DIGEST.GROUPS.keys()))
def test_cli_digest_group_matches_the_committed_file(name):
    # every group of tools/cli_digest.py, each call's argv, exit status,
    # stdout and stderr, must reproduce CLI_DIGEST.json; a group that only
    # the tool or only the file lists fails too
    got = DIGEST.digest_group(DIGEST.GROUPS[name]) if name in DIGEST.GROUPS else None
    assert got == DIGEST_GROUPS.get(name), name


def test_cli_digest_record_drops_the_timing_line():
    argv = ("clan-of", "--u", "21", "--v", "12", "--p", "1", "--format", "text")
    assert DIGEST.run_call(argv) == [list(argv), 0, "(1,1)\n", ""]


def test_cli_digest_check_reports_each_drifted_group():
    # tools/cli_digest.py --check exits 1 on any line drift() returns: a
    # changed digest, a group the run lacks and a group the file lacks
    want = DIGEST_GROUPS
    got = json.loads(json.dumps(want))
    assert DIGEST.drift(want, got) == []
    first, missing = sorted(want)[:2]
    got[first]["sha256"] = "0" * 64
    del got[missing]
    got["extra group"] = want[first]
    assert sorted(DIGEST.drift(want, got)) == sorted([
        f"{first}: {want[first]} -> {got[first]}",
        f"{missing}: {want[missing]} -> None",
        f"extra group: None -> {want[first]}",
    ])


@pytest.mark.parametrize("file_name", ["BENCH_oracle.json", "BENCH_wset.json"])
def test_bench_counts_check_reports_each_drifted_case(file_name):
    # tools/bench_counts.py --check exits 1 on any line drift() returns: a
    # changed count, a case the run lacks and a case the file lacks
    bench = load_tool("bench_counts")
    want = json.loads((bench.ROOT / file_name).read_text())["cases"]
    got = json.loads(json.dumps(want))
    assert bench.drift(file_name, want, got) == []
    first = got[0]["counts"]
    first[next(iter(first))] += 1
    missing = got.pop()
    got.append({**got[1], "name": "extra case"})
    lines = bench.drift(file_name, want, got)
    assert len(lines) == 3
    assert f"{file_name} {bench.label(missing)}: {missing['counts']} -> None" in lines
    assert f"{file_name} {bench.label(got[-1])}: None -> {got[1]['counts']}" in lines
    assert f"{file_name} {bench.label(want[0])}: {want[0]['counts']} -> {first}" in lines


def test_peak_rss_tool_passes_output_and_status_through():
    # CI's bounded steps run through tools/peak_rss.py: the child's stdout
    # stays its own, a failing child's status comes back, and a bound fails
    tool = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"

    def run(bound, code):
        argv = [sys.executable, str(tool), bound, sys.executable, "-c", code]
        return subprocess.run(argv, capture_output=True, text=True)

    proc = run("1000", "print('report')")
    assert (proc.returncode, proc.stdout) == (0, "report\n")
    assert "exit 0" in proc.stderr and "peak RSS" in proc.stderr
    assert run("1000", "raise SystemExit(3)").returncode == 3
    assert run("0", "pass").returncode == 1
