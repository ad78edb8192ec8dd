"""Every size cap refuses its input with exit 4 before the work it guards.

Each case runs in a fresh interpreter limited to 1 GiB of address space and
a timeout, so a missing cap shows as a memory error or a timeout instead of
a slow or swapping test run. No case builds what its cap rejects: the
inputs are small JSON files or graphs whose declared sizes are large. The
generator cases check that ``generate`` refuses what the loaders would. The
last case checks that an explicit vertex order is matched against a huge
side without listing the side's vertices.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import balrig
from balrig import families as fam
from balrig.combinat import COMPLEX_COLOR_CAP, COMPLEX_FACET_CAP, GRAPH_EDGE_CAP
from balrig.exactla import TRIAL_CAP
from balrig.families import QUADRANGULATION_FACE_CAP
from balrig.rigidity import RANK_SIZE_CAP, STRESS_OUTPUT_CAP
from balrig.shifting import SHIFT_CANDIDATE_CAP, SHIFT_SIDE_CAP, SUBSET_SEARCH_CAP

SRC = str(Path(balrig.__file__).resolve().parents[1])
MEMORY = 1 << 30


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_capped(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def refused(tmp_path, command: list[str], data: dict | None = None) -> str:
    """Run a CLI command on ``data`` (as its input file) and return the
    error message of its exit-4 refusal."""
    if data is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        command = [str(path) if arg == "INPUT" else arg for arg in command]
    out = run_capped(["-m", "balrig.cli", *command])
    assert out.returncode == 4, out.stdout + out.stderr
    error = json.loads(out.stdout)["error"]
    assert error["kind"] == "SizeCapError"
    return error["message"]


def test_analyze_caps_the_parameters_it_draws(tmp_path):
    graph = {"a_size": 10**8, "b_size": 2, "edges": [[1, 1], [2, 2]]}
    message = refused(tmp_path, ["analyze", "--graph", "INPUT", "-k", "1", "-l", "1"], graph)
    assert message == f"rank query parameters and rows drawn capped at {RANK_SIZE_CAP}; got 100000004"


def test_analyze_caps_the_rows_it_draws_for_an_empty_side(tmp_path):
    # no vertex and no column, but k rows of the A-block would be drawn
    graph = {"a_size": 0, "b_size": 0, "edges": []}
    message = refused(tmp_path, ["analyze", "--graph", "INPUT", "-k", "100000000", "-l", "1"], graph)
    assert message == f"rank query parameters and rows drawn capped at {RANK_SIZE_CAP}; got 100000001"


def test_analyze_caps_its_columns(tmp_path):
    # k(|A| + 1) + l(|B| + 1) = 1000 + 40000 drawn, but k|B| columns
    graph = {"a_size": 0, "b_size": 39999, "edges": []}
    message = refused(tmp_path, ["analyze", "--graph", "INPUT", "-k", "1000", "-l", "1"], graph)
    assert message == f"rank query columns capped at {RANK_SIZE_CAP}; got 39999000"


def test_stress_space_is_capped_like_analyze():
    script = (
        "from balrig import BipartiteGraph, SizeCapError, stress_space\n"
        "try:\n"
        "    stress_space(BipartiteGraph(3, 2, frozenset({(1, 1)})), 10**8, 1)\n"
        "except SizeCapError as exc:\n"
        "    print(exc.exit_code)\n"
    )
    out = run_capped(["-c", script])
    assert out.stdout.strip() == "4", out.stderr


def test_stress_space_caps_the_entries_it_returns():
    # K_{n,n} at (2,2) has at least n^2 - 4n stresses of n^2 entries each;
    # K_{70,70} runs (22.6 million entries), K_{128,128} would need 260
    # million and is refused before any draw
    assert 4900 * (4900 - 280) <= STRESS_OUTPUT_CAP < 16384 * (16384 - 512)
    script = (
        "from balrig import SizeCapError, stress_space\n"
        "from balrig.families import complete_bipartite\n"
        "try:\n"
        "    stress_space(complete_bipartite(128, 128), 2, 2)\n"
        "except SizeCapError as exc:\n"
        "    print(exc.exit_code, exc)\n"
    )
    out = run_capped(["-c", script])
    assert out.stdout.strip() == (
        f"4 stress basis entries capped at {STRESS_OUTPUT_CAP}; got 260046848"
    ), out.stderr


def test_analyze_caps_its_trials(tmp_path):
    # a billion trials of a 2+2 graph would run for about a day
    graph = {"a_size": 2, "b_size": 2, "edges": [[1, 1], [2, 2]]}
    command = ["analyze", "--graph", "INPUT", "-k", "1", "-l", "1", "--trials", "1000000000"]
    message = refused(tmp_path, command, graph)
    assert message == f"trial count capped at {TRIAL_CAP}; got 1000000000"


def test_mcheck_caps_the_parameters_it_draws(tmp_path):
    kx = {"color_sizes": [10**8, 2], "facets": [[[1, 1], [2, 1]]]}
    message = refused(tmp_path, ["mcheck", "--complex", "INPUT", "-l", "1"], kx)
    assert message.startswith("rank query parameters and rows drawn capped")


def test_shift_caps_the_side_of_a_graph(tmp_path):
    graph = {"a_size": SHIFT_SIDE_CAP + 1, "b_size": 1, "edges": [[1, 1]]}
    message = refused(tmp_path, ["shift", "--graph", "INPUT"], graph)
    assert message == f"shift vertices per side or color capped at {SHIFT_SIDE_CAP}; got 257"


def test_shift_caps_the_colors_of_a_complex(tmp_path):
    kx = {"color_sizes": [1, SHIFT_SIDE_CAP + 1], "facets": [[[1, 1], [2, 1]]]}
    message = refused(tmp_path, ["shift", "--complex", "INPUT"], kx)
    assert message == f"shift vertices per side or color capped at {SHIFT_SIDE_CAP}; got 257"


def test_shift_caps_the_candidates_of_a_complex(tmp_path):
    # one facet on 12 colors of 2 vertices: 3^12 = 531441 candidate bound,
    # and 2^12 color supports that are never derived
    kx = {"color_sizes": [2] * 12, "facets": [[[c, 1] for c in range(1, 13)]]}
    message = refused(tmp_path, ["shift", "--complex", "INPUT"], kx)
    assert message == f"complex shift candidate bound capped at {SHIFT_CANDIDATE_CAP}; got 531441"


def test_the_subgraph_searches_cap_their_subsets():
    # no input is shifted. A half-dense 40x40 graph has C(40, 20) = 1.4e11
    # subsets of 20 on either side, but only the vertices of degree at least
    # 20 are searched, few enough here to answer at once; at density 3/4
    # every vertex has degree at least 20, and the search is refused. 1,382
    # random facets on three colors of 30 have C(30, 3)^3 = 6.7e10 picks of
    # 3 per color.
    script = (
        "import itertools, random\n"
        "from balrig import BalancedComplex, BipartiteGraph, SizeCapError\n"
        "from balrig import contains_complete_bipartite, contains_join\n"
        "rng = random.Random(1)\n"
        "pairs = sorted(itertools.product(range(1, 41), repeat=2))\n"
        "half = BipartiteGraph(40, 40, frozenset(e for e in pairs if rng.random() < 0.5))\n"
        "dense = BipartiteGraph(40, 40, frozenset(e for e in pairs if rng.random() < 0.75))\n"
        "picks = list(itertools.product(range(1, 31), repeat=3))\n"
        "facets = [frozenset(enumerate(p, 1)) for p in random.Random(2).sample(picks, 1382)]\n"
        "kx = BalancedComplex((30, 30, 30), frozenset(facets))\n"
        "for search in (\n"
        "    lambda: contains_complete_bipartite(half, 20, 20),\n"
        "    lambda: contains_complete_bipartite(dense, 20, 20),\n"
        "    lambda: contains_join(kx, 3),\n"
        "):\n"
        "    try:\n"
        "        print(search())\n"
        "    except SizeCapError as exc:\n"
        "        print(exc.exit_code, exc)\n"
    )
    out = run_capped(["-c", script])
    assert out.stdout.splitlines() == [
        "False",
        f"4 subgraph search side subsets capped at {SUBSET_SEARCH_CAP}; got 137846528820",
        f"4 join search color subsets capped at {SUBSET_SEARCH_CAP}; got 66923416000",
    ], out.stderr


def test_the_graph_loader_caps_edges(tmp_path):
    edges = [[1, 1]] * (GRAPH_EDGE_CAP + 1)
    graph = {"a_size": 1, "b_size": 1, "edges": edges}
    message = refused(tmp_path, ["laman", "--graph", "INPUT", "-k", "1", "-l", "1"], graph)
    assert f"graph JSON edges capped at {GRAPH_EDGE_CAP}" in message


def test_the_complex_loader_caps_facets(tmp_path):
    kx = {"color_sizes": [1], "facets": [[[1, 1]]] * (COMPLEX_FACET_CAP + 1)}
    message = refused(tmp_path, ["mcheck", "--complex", "INPUT", "-l", "1"], kx)
    assert f"complex JSON facets capped at {COMPLEX_FACET_CAP}" in message


def test_the_complex_loader_caps_colors(tmp_path):
    colors = COMPLEX_COLOR_CAP + 1
    kx = {"color_sizes": [1] * colors, "facets": [[[c, 1] for c in range(1, colors + 1)]]}
    message = refused(tmp_path, ["mcheck", "--complex", "INPUT", "-l", "1"], kx)
    assert f"complex JSON colors capped at {COMPLEX_COLOR_CAP}" in message


@pytest.mark.parametrize(
    "family, message",
    [
        ("complete --n 100000 --m 100000", f"graph edges capped at {GRAPH_EDGE_CAP}; got 10000000000"),
        ("tree --n 262144 --m 2", f"graph edges capped at {GRAPH_EDGE_CAP}; got 262145"),
        ("cycle --n 1000000000", f"graph edges capped at {GRAPH_EDGE_CAP}; got 2000000000"),
        ("fan --n 1000000000", f"graph edges capped at {GRAPH_EDGE_CAP}; got 2999999998"),
        ("quadrangulation --faces 100000000",
         f"quadrangulation faces capped at {QUADRANGULATION_FACE_CAP}; got 100000000"),
        ("cube --d 1000000000", "cube dimension capped at 19; got 1000000000"),
        ("cube --d 16", f"graph edges capped at {GRAPH_EDGE_CAP}; got 524288"),
        ("stacked-cubical --d 3 --t 100000 --augment",
         f"graph edges capped at {GRAPH_EDGE_CAP}; got 800004"),
        ("laman-cube --d 16", f"graph edges capped at {GRAPH_EDGE_CAP}; got 278512"),
        ("cross-polytope --d 17", f"complex facets capped at {COMPLEX_FACET_CAP}; got 131072"),
        ("glued-cross-polytopes --d 12",
         f"complex facets capped at {COMPLEX_FACET_CAP}; got 98258"),
        ("gamma --d 2 --sizes 200,200,200",
         f"complex facets capped at {COMPLEX_FACET_CAP}; got 237608"),
        ("van-kampen --l 1 --d 1000000000",
         f"complex colors capped at {COMPLEX_COLOR_CAP}; got 1000000001"),
    ],
)
def test_generate_refuses_what_the_loaders_would(tmp_path, family, message):
    # an output past a loader's cap (or, for quadrangulations, past the
    # size whose build time is measured) is refused before it is built
    assert refused(tmp_path, ["generate", *family.split()]).endswith(message)


def test_generate_builds_up_to_the_caps():
    # a complex at the facet cap takes over a second, a graph at the edge
    # cap a quarter of one
    assert fam.complete_bipartite(512, 512).n_edges == GRAPH_EDGE_CAP


def test_a_quadrangulation_at_its_cap_builds_in_a_capped_process():
    # each split reads only the faces around its vertex, so the build at the
    # cap takes a fraction of a second, far inside the memory limit
    faces = str(QUADRANGULATION_FACE_CAP)
    out = run_capped(["-m", "balrig.cli", "generate", "quadrangulation", "--faces", faces])
    assert out.returncode == 0, out.stderr
    g = json.loads(out.stdout)
    assert len(g["edges"]) == 2 * (g["a_size"] + g["b_size"]) - 4 == 2 * QUADRANGULATION_FACE_CAP


def test_an_explicit_order_is_checked_without_listing_a_huge_side(tmp_path):
    graph = {"a_size": 10**8, "b_size": 1, "edges": [[1, 1]]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(graph))
    out = run_capped(["-m", "balrig.cli", "shift", "--graph", str(path), "--order", "A1,B1"])
    assert out.returncode == 3, out.stdout + out.stderr
    assert "every vertex" in json.loads(out.stdout)["error"]["message"]
