"""Integration: the pipeline's behaviour on two-operator graphs matches
Table 5's prescribed action for every producer-consumer quadrant pair.

For each pair we build a minimal graph with a first operator of the row
quadrant feeding a second operator of the column quadrant, run the
SmartMem pipeline, and check the outcome: Fixed-output operators are
eliminated, Variable pairs fuse or stay, and semantics always hold.
"""

import pytest

from repro.core import Action, action_for, smartmem_optimize
from repro.ir import GraphBuilder, Quadrant, validate
from repro.runtime import verify_equivalence


def make_pair(first_q: Quadrant, second_q: Quadrant):
    """A graph `input -> first -> second -> relu-out` with representative
    operators for each quadrant.  Returns (graph, first name, second name).

    The trailing relu gives eliminated transforms a consumer to carry
    their views, matching how they appear inside real models.
    """
    b = GraphBuilder(f"{first_q.name}_{second_q.name}")
    x = b.input("x", (4, 6, 8))

    def emit(quadrant: Quadrant, inp: str) -> tuple[str, str]:
        shape = b.shape(inp)
        if quadrant is Quadrant.ILD_VARIABLE:
            out = b.softmax(inp, axis=-1)
        elif quadrant is Quadrant.ILI_VARIABLE:
            out = b.relu(inp)
        elif quadrant is Quadrant.ILD_FIXED:
            perm = tuple(reversed(range(len(shape))))
            out = b.transpose(inp, perm)
        else:  # ILI_FIXED
            out = b.slice_axis(inp, 0, 0, max(1, shape[0] - 1))
        return out, b.graph.producer(out).op_type

    mid, first_op = emit(first_q, x)
    out, second_op = emit(second_q, mid)
    b.output(b.sigmoid(out))
    return b.finish(), first_op, second_op


ALL_PAIRS = [(f, s) for f in Quadrant for s in Quadrant]


@pytest.mark.parametrize("first_q,second_q", ALL_PAIRS,
                         ids=[f"{f.name}->{s.name}" for f, s in ALL_PAIRS])
def test_pipeline_implements_table5(first_q, second_q):
    graph, first_op, second_op = make_pair(first_q, second_q)
    validate(graph)
    action = action_for(first_q, second_q)
    result = smartmem_optimize(graph)
    validate(result.graph)
    remaining = result.graph.count_op_types()

    fixed_ops = {"transpose", "slice"}
    if action is Action.ELIMINATE_BOTH:
        # both operators were Fixed relayouts: neither survives
        assert not (set(remaining) & fixed_ops)
    elif action is Action.ELIMINATE_SECOND:
        assert second_op in fixed_ops
        assert remaining.get(second_op, 0) == 0
    elif action is Action.ELIMINATE_FIRST:
        assert first_op in fixed_ops
        assert remaining.get(first_op, 0) == 0
    elif action is Action.TRY_FUSE:
        # at least one pair member is ILI&Variable: the pipeline fuses the
        # chain into fewer kernels than source operators
        assert result.operator_count < len(graph.nodes)
    else:  # KEEP_BOTH: two ILD&Variable compute ops both survive
        assert remaining.get("softmax", 0) == 2

    # the universal invariant
    assert verify_equivalence(graph, result.graph, seeds=(0,)).passed


@pytest.mark.parametrize("first_q,second_q", ALL_PAIRS,
                         ids=[f"{f.name}->{s.name}" for f, s in ALL_PAIRS])
def test_no_fixed_output_op_survives(first_q, second_q):
    """Table 5's summary property: after the pipeline, every surviving
    operator has a Variable output (Sec 3.2.2: 'all preserved operators
    are ILD & Variable ... all operators in other types are fused into
    ILD & Variable eventually')."""
    graph, _, _ = make_pair(first_q, second_q)
    result = smartmem_optimize(graph)
    for node in result.graph.iter_nodes():
        assert node.opdef.quadrant.output_variable, node.op_type
