import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balrig
from balrig import families as fam
from balrig.cli import build_parser, main
from balrig.combinat import BipartiteGraph, complete_edges


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(g.to_json_dict()))
    return str(path)


def write_complex(tmp_path, k, name="k.json"):
    path = tmp_path / name
    path.write_text(json.dumps(k.to_json_dict()))
    return str(path)


def test_generate_cycle_is_square(capsys):
    rc, out = run_cli(capsys, "generate", "cycle", "--n", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["a_size"] == data["b_size"] == 2
    assert len(data["edges"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "complete", "--n", "2", "--m", "3"),
        ("generate", "tree", "--n", "3", "--m", "3", "--seed", "4"),
        ("generate", "cube", "--d", "3"),
        ("generate", "stacked-cubical", "--d", "3", "--t", "2"),
        ("generate", "stacked-cubical", "--d", "3", "--t", "2", "--augment"),
        ("generate", "laman-cube", "--d", "4"),
        ("generate", "double-banana"),
        ("generate", "fan", "--n", "4"),
        ("generate", "quadrangulation", "--faces", "8", "--seed", "1"),
        ("generate", "cross-polytope", "--d", "3"),
        ("generate", "glued-cross-polytopes", "--d", "3"),
        ("generate", "gamma", "--d", "1", "--sizes", "3,3"),
        ("generate", "van-kampen", "--l", "2", "--d", "1"),
    ],
)
def test_generate_families_emit_valid_json(capsys, argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    data = json.loads(out)
    assert "edges" in data or "facets" in data


def test_analyze_complete_3_3(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(3, 3))
    rc, out = run_cli(capsys, "analyze", "--graph", path, "-k", "2", "-l", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["rank"] == 8
    assert data["is_rigid"] is True
    assert data["is_stress_free"] is False
    assert data["prime"] and data["trials"] == 3 and data["seed"] == 0


def test_reports_are_byte_identical(capsys, tmp_path):
    path = write_graph(tmp_path, fam.double_banana())
    _, out1 = run_cli(capsys, "analyze", "--graph", path, "-k", "2", "-l", "2", "--seed", "5")
    _, out2 = run_cli(capsys, "analyze", "--graph", path, "-k", "2", "-l", "2", "--seed", "5")
    assert out1 == out2


def test_env_seed_override(capsys, tmp_path, monkeypatch):
    path = write_graph(tmp_path, fam.double_banana())
    _, with_flag = run_cli(
        capsys, "analyze", "--graph", path, "-k", "2", "-l", "2", "--seed", "7"
    )
    monkeypatch.setenv("BALRIG_SEED", "7")
    _, with_env = run_cli(capsys, "analyze", "--graph", path, "-k", "2", "-l", "2")
    assert with_flag == with_env


def test_shift_graph_keeps_edge_count_and_reports_meta(capsys, tmp_path):
    g = BipartiteGraph(3, 3, frozenset({(2, 2), (3, 1), (1, 3), (3, 3)}))
    path = write_graph(tmp_path, g)
    rc, out = run_cli(capsys, "shift", "--graph", path)
    assert rc == 0
    data = json.loads(out)
    assert len(data["edges"]) == 4
    assert data["meta"]["trials"] == 3


def test_shift_with_explicit_order(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(2, 2))
    rc, out = run_cli(
        capsys, "shift", "--graph", path, "--order", "A1,A2,B1,B2"
    )
    assert rc == 0
    assert len(json.loads(out)["edges"]) == 4


@pytest.mark.parametrize(
    "order",
    ["A\u00b2,A1,B1,B2", "A1,A\u0662,B1,B2", "A1,A2,B\uff11,B2"]
    + [f"A1,A{two},B1,B2" for two in ("+2", "0_2", " 2")],
)
def test_shift_refuses_order_indices_that_are_not_ascii_decimals(capsys, tmp_path, order):
    # a superscript two passes str.isdigit but not int; an Arabic-Indic or a
    # fullwidth digit passes both and would be read as a plain index, and so
    # would a sign, an underscore or an inner space
    path = write_graph(tmp_path, fam.complete_bipartite(2, 2))
    rc, out = run_cli(capsys, "shift", "--graph", path, "--order", order)
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError" and "bad order token" in err["message"]


@pytest.mark.parametrize(
    "token", ["1.\u0662", "1.+2", "1.0_2", "1. 2", "+1.2", "\u0661.2", "0_1.2"]
)
def test_shift_refuses_complex_order_indices_that_are_not_ascii_decimals(
    capsys, tmp_path, token
):
    # int reads each of these indices, an Arabic-Indic digit, a sign, an
    # underscore or an inner space among them, as 1 or 2
    path = write_complex(tmp_path, fam.cross_polytope_boundary(2))
    rc, out = run_cli(capsys, "shift", "--complex", path, "--order", f"1.1,2.1,{token},2.2")
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError"
    assert err["message"] == f"bad order token {token!r}; expected color.index"


@pytest.mark.parametrize("sizes", ["3,3_0,3", "3,+3,3", "3,\u0663,3", "3,3 3,3", "3,,3", ""])
def test_generate_refuses_sizes_that_are_not_ascii_decimals(capsys, sizes):
    rc, out = run_cli(capsys, "generate", "gamma", "--d", "2", "--sizes", sizes)
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError"
    assert err["message"] == f"bad --sizes {sizes!r}; expected integers like 3,3,4"


def test_tokens_are_read_stripped(capsys, tmp_path):
    octa = write_complex(tmp_path, fam.cross_polytope_boundary(3))
    k22 = write_graph(tmp_path, fam.complete_bipartite(2, 2))
    cases = [
        (["shift", "--complex", octa, "--order"],
         "1.1,2.1,3.1,1.2,2.2,3.2", " 1.1, 2.1 ,3.1,1.2,2.2,3.2 "),
        (["shift", "--graph", k22, "--order"], "A1,B1,A2,B2", "A1 , B1,A2,B2"),
        (["generate", "gamma", "--d", "2", "--sizes"], "3,3,4", " 3,3 , 4"),
    ]
    for argv, spec, padded in cases:
        rc, out = run_cli(capsys, *argv, spec)
        assert rc == 0
        assert run_cli(capsys, *argv, padded) == (0, out)


def test_shift_complex(capsys, tmp_path):
    path = write_complex(tmp_path, fam.cross_polytope_boundary(3))
    rc, out = run_cli(capsys, "shift", "--complex", path)
    assert rc == 0
    data = json.loads(out)
    assert len(data["facets"]) == 8


def test_laman_reports_witness(capsys, tmp_path):
    edges = complete_edges(3, 3) | {(4, 1), (4, 2), (1, 4)}
    path = write_graph(tmp_path, BipartiteGraph(4, 4, frozenset(edges)))
    rc, out = run_cli(capsys, "laman", "--graph", path, "-k", "2", "-l", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witness"] == {"a": [1, 2, 3], "b": [1, 2, 3]}


def test_mcheck_octahedron(capsys, tmp_path):
    path = write_complex(tmp_path, fam.cross_polytope_boundary(3))
    rc, out = run_cli(capsys, "mcheck", "--complex", path, "-l", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["rows_independent"] is True
    assert data["rank"] == 8


def test_malformed_input_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out = run_cli(capsys, "analyze", "--graph", str(path), "-k", "1", "-l", "1")
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["code"] == 3 and err["kind"] == "InputError"


#: Text the JSON loaders cannot parse: bytes that are not UTF-8, and arrays
#: nested deeper than the parser's recursion limit.
UNREADABLE = {"not-utf8": b"\xff\xfe\x00{", "deep": b"[" * 100_000}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
@pytest.mark.parametrize("from_stdin", [False, True])
def test_unreadable_input_exits_3(capsys, tmp_path, monkeypatch, name, from_stdin):
    data = UNREADABLE[name]
    if from_stdin:
        # a strict UTF-8 stdin, whatever the locale's error handler is
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        path = "-"
    else:
        path = tmp_path / "g.json"
        path.write_bytes(data)
    rc, out = run_cli(capsys, "analyze", "--graph", str(path), "-k", "1", "-l", "1")
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["code"] == 3 and err["kind"] == "InputError"


def test_size_cap_exits_4(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(13, 13))
    rc, out = run_cli(capsys, "laman", "--graph", str(path), "-k", "2", "-l", "2")
    assert rc == 4
    assert json.loads(out)["error"]["kind"] == "SizeCapError"


def test_trial_disagreement_exits_5(capsys, tmp_path):
    # over the two-element field this graph's rank genuinely depends on the
    # draw, so three trials disagree and so does the escalation batch
    edges = {(1, 4), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (4, 5)}
    g = BipartiteGraph(4, 5, frozenset(edges))
    path = write_graph(tmp_path, g)
    rc, out = run_cli(
        capsys,
        "analyze", "--graph", path, "-k", "2", "-l", "1",
        "--prime", "2", "--seed", "4",
    )
    assert rc == 5
    assert json.loads(out)["error"]["kind"] == "TrialDisagreementError"
    # the escalation batch's six per-trial ranks, in trial order
    verdicts = json.loads(out)["error"]["verdicts"]
    assert len(verdicts) == 6
    assert all(isinstance(v, int) and 0 <= v <= g.n_edges for v in verdicts)
    assert len(set(verdicts)) > 1
    _, again = run_cli(
        capsys,
        "analyze", "--graph", path, "-k", "2", "-l", "1",
        "--prime", "2", "--seed", "4",
    )
    assert again == out


def test_shift_disagreement_lists_edge_sets(capsys, tmp_path):
    # over F_3 the shifted edge set of this graph depends on the draw
    g = BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)}))
    path = write_graph(tmp_path, g)
    rc, out = run_cli(capsys, "shift", "--graph", path, "--prime", "3", "--seed", "0")
    assert rc == 5
    verdicts = json.loads(out)["error"]["verdicts"]
    assert len(verdicts) == 6
    for edges in verdicts:
        assert len(edges) == g.n_edges
        assert edges == sorted(edges)
        assert all(len(e) == 2 for e in edges)
    assert len({tuple(map(tuple, edges)) for edges in verdicts}) > 1


def test_invariant_failure_exits_6(capsys, tmp_path):
    from test_complement_route import inject_rank

    # a rank above the edge count breaks a certification invariant, on
    # either route: K_{2,2} has more edges than its maximal rank at (1,1),
    # and K_{2,2} less the edge (1,1) does not, and keeps the far edge (2,2)
    k22 = fam.complete_bipartite(2, 2)
    less = BipartiteGraph(2, 2, k22.edges - {(1, 1)})
    for g, route in [(k22, "complement"), (less, "elimination")]:
        path = write_graph(tmp_path, g)
        with pytest.MonkeyPatch.context() as mp:
            routes = inject_rank(mp, lambda rank: g.n_edges + 1)
            rc, out = run_cli(capsys, "analyze", "--graph", path, "-k", "1", "-l", "1")
        assert rc == 6 and routes == [route] * 3
        err = json.loads(out)["error"]
        assert err["code"] == 6 and err["kind"] == "InvariantError"


def test_non_prime_modulus_exits_3(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(2, 2))
    rc, out = run_cli(
        capsys, "analyze", "--graph", path, "-k", "1", "-l", "1", "--prime", "10"
    )
    assert rc == 3


def test_bad_env_seed_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("BALRIG_SEED", "not-a-number")
    rc, out = run_cli(capsys, "generate", "tree", "--n", "2", "--m", "2")
    assert rc == 3
    assert json.loads(out)["error"]["kind"] == "InputError"


#: each integer option, after the other arguments its command needs
INTEGER_OPTIONS = [
    (("analyze", "--graph", "{graph}", "-k", "1", "-l", "1"), ("--seed", "--prime", "--trials", "-k", "-l")),
    (("mcheck", "--complex", "{octahedron}", "-l", "1"), ("-l",)),
    (("generate", "cube"), ("--n", "--m", "--d", "--t", "--l", "--faces", "--seed")),
]


@pytest.mark.parametrize(
    "argv, option", [(argv, o) for argv, options in INTEGER_OPTIONS for o in options]
)
@pytest.mark.parametrize("value", ["\u0663", "3_0", "+3", "3.0", "", "- 3"])
def test_integer_options_take_a_sign_and_ascii_digits_only(capsys, tmp_path, argv, option, value):
    paths = {
        "graph": write_graph(tmp_path, fam.complete_bipartite(2, 2)),
        "octahedron": write_complex(tmp_path, fam.cross_polytope_boundary(3)),
    }
    with pytest.raises(SystemExit) as info:
        main([a.format(**paths) for a in argv] + [option, value])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["\u0663", "3_0", "+3"])
def test_env_seed_takes_a_sign_and_ascii_digits_only(capsys, monkeypatch, value):
    monkeypatch.setenv("BALRIG_SEED", value)
    rc, out = run_cli(capsys, "generate", "tree", "--n", "4", "--m", "5")
    assert rc == 3
    assert json.loads(out)["error"]["message"] == "BALRIG_SEED must be an integer"


def test_integer_options_read_stripped_signed_digits_as_int_does(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("BALRIG_SEED", raising=False)
    path = write_graph(tmp_path, fam.random_quadrangulation(8, seed=1))
    outs = set()
    for seed in ("-7", " -7 ", "-007"):
        rc, out = run_cli(capsys, "analyze", "--graph", path, "-k", " 2", "-l", "02", "--seed", seed)
        assert rc == 0 and json.loads(out)["seed"] == -7
        outs.add(out)
    monkeypatch.setenv("BALRIG_SEED", " -7")
    outs.add(run_cli(capsys, "analyze", "--graph", path, "-k", "2", "-l", "2")[1])
    assert len(outs) == 1


def test_unparsable_sizes_exit_3(capsys):
    rc, out = run_cli(capsys, "generate", "gamma", "--d", "1", "--sizes", "3,x")
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError" and "3,x" in err["message"]


def test_unknown_selftest_check_exits_3(capsys):
    rc, out = run_cli(
        capsys, "selftest", "--only", "nosuch,octahedron-facet-ridge-rigid,other"
    )
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError"
    assert "nosuch" in err["message"] and "other" in err["message"]
    assert "octahedron" not in err["message"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze"])  # missing required arguments
    assert info.value.code == 2


def test_table_format(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(3, 3))
    rc, out = run_cli(
        capsys, "analyze", "--graph", path, "-k", "2", "-l", "2", "--format", "table"
    )
    assert rc == 0
    assert "rank: 8" in out


def test_selftest_subset(capsys):
    rc, out = run_cli(
        capsys,
        "selftest",
        "--only",
        "double-banana-laman-not-stress-free,octahedron-facet-ridge-rigid",
    )
    assert rc == 0
    assert "2/2 checks passed" in out


def test_selftest_reports_seconds_per_check(capsys):
    rc, out = run_cli(capsys, "selftest", "--only", "octahedron-facet-ridge-rigid")
    assert rc == 0
    name, status, seconds, *_detail = out.splitlines()[0].split()
    assert (name, status) == ("octahedron-facet-ridge-rigid", "pass")
    assert seconds.endswith("s") and float(seconds[:-1]) >= 0
    assert out.splitlines()[-1] == "1/1 checks passed"


def test_reports_warn_when_the_failure_bound_is_at_least_one(capsys, tmp_path):
    path = write_complex(tmp_path, fam.cross_polytope_boundary(3))
    tiny = ("--prime", "2", "--trials", "1")
    rc, out = run_cli(capsys, "mcheck", "--complex", path, "-l", "2", *tiny)
    data = json.loads(out)
    assert rc == 0 and data["failure_bound"] == 4.0
    assert "not certified" in data["warnings"][0]
    rc, out = run_cli(capsys, "shift", "--complex", path, *tiny)
    meta = json.loads(out)["meta"]
    assert rc == 0 and meta["failure_bound"] == 27.0
    assert "not certified" in meta["warnings"][0]
    # certified reports carry no warnings key
    rc, out = run_cli(capsys, "mcheck", "--complex", path, "-l", "2")
    assert rc == 0 and "warnings" not in json.loads(out)
    rc, out = run_cli(capsys, "shift", "--complex", path)
    assert rc == 0 and "warnings" not in json.loads(out)["meta"]


def test_non_shifted_agreed_verdict_exits_3(capsys, tmp_path):
    g = BipartiteGraph(3, 3, frozenset({(1, 2), (1, 3), (2, 2), (3, 1)}))
    path = write_graph(tmp_path, g)
    rc, out = run_cli(capsys, "shift", "--graph", path, "--prime", "2", "--trials", "1")
    assert rc == 3
    err = json.loads(out)["error"]
    assert err["kind"] == "InputError" and "prime 2 is too small" in err["message"]


def test_modulus_beyond_the_primality_range_exits_3(capsys, tmp_path):
    path = write_graph(tmp_path, fam.complete_bipartite(2, 2))
    rc, out = run_cli(capsys, "shift", "--graph", path, "--prime", str(2**89 - 1))
    assert rc == 3
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_repeated_calls_in_one_process_match_fresh_runs(capsys, tmp_path, monkeypatch):
    # the parser is built once per process; each call must still print and
    # exit exactly as a fresh process does
    monkeypatch.delenv("BALRIG_SEED", raising=False)
    graph = write_graph(tmp_path, fam.complete_bipartite(3, 3))
    octahedron = write_complex(tmp_path, fam.cross_polytope_boundary(3))
    calls = [
        ["shift", "--graph", graph],
        ["mcheck", "--complex", octahedron, "-l", "2"],
        ["analyze", "--graph", graph],
        ["generate", "tree", "--n", "4", "--m", "5", "--seed", "2"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(balrig.__file__).resolve().parents[1])}
    build_parser.cache_clear()
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        fresh = subprocess.run(
            [sys.executable, "-m", "balrig.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout)
        codes.append(code)
    assert codes == [0, 0, 2, 0]
    assert build_parser.cache_info().misses == 1
