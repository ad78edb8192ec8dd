"""Which public entry points make up each layer, and the work they count.

Each layer lists ``(target, counter)`` pairs. A counter reads the bound
arguments and the returned object after the span closes and adds to the
tracer's counters; it never runs inside a timed span.
"""

from __future__ import annotations


def _count_draw(tracer, args, blocks):
    # square blocks: entries drawn is the sum of size^2
    entries = sum(len(block) * len(block[0]) for block in blocks if block)
    tracer.counters["exactla.draw.entries"] += entries
    tracer.note_draw(blocks, entries)


def _count_matrix(tracer, matrix):
    tracer.counters["rigidity.build.cells"] += matrix.n_rows * matrix.n_cols
    tracer.counters["rigidity.build.nnz"] += sum(
        1 for row in matrix.rows for value in row if value
    )


def _count_rigidity_build(tracer, args, matrix):
    _count_matrix(tracer, matrix)
    drawn = tracer.take_draw(args["theta"])
    if drawn is not None:
        # the builder reads rows 1..k of the A-block and 1..l of the B-block,
        # one column per vertex that has an edge
        edges = args["g"].edges
        used = args["k"] * len({a for a, _ in edges}) + args["l"] * len(
            {b for _, b in edges}
        )
        tracer.counters["exactla.draw.scoped_entries"] += drawn
        tracer.counters["exactla.draw.useful_entries"] += used


def _count_m_build(tracer, args, matrix):
    _count_matrix(tracer, matrix)
    drawn = tracer.take_draw(args["theta"])
    if drawn is not None:
        # rows 1..l of each color block, one column per vertex of a facet
        vertices = set().union(*args["kx"].facets)
        tracer.counters["exactla.draw.scoped_entries"] += drawn
        tracer.counters["exactla.draw.useful_entries"] += args["l"] * len(vertices)


def _count_rows(tracer, args, _result):
    tracer.counters["exactla.eliminate.rows"] += args["self"].n_rows


def _count_offer(tracer, _args, accepted):
    tracer.counters["exactla.eliminate.offers"] += 1
    tracer.counters["exactla.eliminate.accepted"] += bool(accepted)


def _count_trials(tracer, _args, result):
    meta = result[1]
    tracer.counters["exactla.trials.trials"] += meta.trials
    tracer.counters["exactla.trials.escalations"] += bool(meta.escalated)


#: Layers traced inside verdict calls, in report order.
CALL_LAYERS = {
    "exactla.draw": [("exactla.sample_theta", _count_draw)],
    "exactla.eliminate": [
        ("exactla.GenericMatrix.rank", _count_rows),
        ("exactla.GenericMatrix.left_kernel", _count_rows),
        ("exactla.GreedyBasis.offer", _count_offer),
        ("exactla.greedy_independent_rows", None),
    ],
    "exactla.trials": [("exactla.run_trials", _count_trials)],
    "rigidity.build": [
        ("rigidity.build_rigidity_matrix", _count_rigidity_build),
        ("rigidity.build_M", _count_m_build),
    ],
    # analyze and rows_independent_M only delegate; their self time is kept
    # out of the harness and the CLI rows
    "rigidity.report": [("rigidity.analyze", None), ("rigidity.rows_independent_M", None)],
    "rigidity.verify": [("rigidity.stress_space", None)],
    "shifting.expand": [("shifting.shift_graph", None), ("shifting.shift_complex", None)],
    "shifting.verify": [
        ("shifting.check_shifted", None),
        ("combinat.f_vector", None),
        ("combinat.BalancedComplex.from_maximal_candidates", None),
    ],
    "combinat.faces": [
        ("combinat.all_faces", None),
        ("combinat.faces_with_colorset", None),
        ("combinat.ridges", None),
    ],
    "cli.io": [("cli.main", None)],
}

#: Layers traced during set-up.
SETUP_LAYERS = {
    "families.generate": [
        ("families.random_quadrangulation", None),
        ("families.random_tree", None),
        ("families.complete_bipartite", None),
        ("families.cross_polytope_boundary", None),
        ("families.glued_cross_polytopes", None),
        ("families.gamma_complex", None),
    ],
}

#: Counter suffixes per layer; every count is reported per traced verdict call.
COUNTERS = {
    "exactla.draw": ["entries", "scoped_entries", "useful_entries"],
    "exactla.eliminate": ["rows", "offers", "accepted"],
    "exactla.trials": ["trials", "escalations"],
    "rigidity.build": ["cells", "nnz"],
    "cli.io": ["bytes_in", "bytes_out"],
}

#: Ratios as ``(name, numerator counter, base counter)``; the base is
#: reported next to each ratio.
RATIOS = [
    ("exactla.draw.useful_ratio", "exactla.draw.useful_entries", "exactla.draw.scoped_entries"),
    ("exactla.eliminate.accept_ratio", "exactla.eliminate.accepted", "exactla.eliminate.offers"),
    ("rigidity.build.density", "rigidity.build.nnz", "rigidity.build.cells"),
]
