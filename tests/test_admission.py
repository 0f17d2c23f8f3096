"""The admission table: one function, two front doors, two shape regimes.

``runtime.session._admit`` is the only admission implementation; the
strict door (``CompiledModel.admit``: declared inputs only, messages and
errors decorated with the request) and the lenient door
(``Session._admit``: any graph tensor plus ``<weight>@kn`` operands) are
one-line callers of it.  Every malformed-request case runs against both
doors, on a concrete and on a symbolic compile of the same two-input
graph, and pins the error type, the tensor it names, its
``request_id``/``model`` context and the message text.
"""

import numpy as np
import pytest

from repro.api import (
    AdmissionError, CompileOptions, InferenceRequest, compile_private,
)
from repro.ir import GraphBuilder
from repro.runtime import FaultPlan
from repro.runtime.kernels import pack

MAX_EXTENT = 4
RID = "r7"


def two_input_graph():
    """Two inputs, two packed ``dense`` weights, batch-stackable."""
    b = GraphBuilder("two-input")
    tokens = b.input("tokens", (1, 4, 8))
    mask = b.input("mask", (1, 4, 8))
    hidden = b.dense(b.add(tokens, mask), 16)
    b.output(b.dense(b.relu(hidden), 8))
    return b.finish()


@pytest.fixture(scope="module", params=["concrete", "symbolic"])
def compiled(request):
    graph = two_input_graph()
    options = CompileOptions(faults=FaultPlan())
    if request.param == "symbolic":
        options = CompileOptions(
            faults=FaultPlan(), max_extent=MAX_EXTENT,
            signature={name: (None,) + tuple(graph.shape(name))[1:]
                       for name in graph.inputs})
    return compile_private(graph, options)


@pytest.fixture(params=["strict", "lenient"])
def door(request, compiled):
    """``(admit(inputs), strict)`` for one front door."""
    if request.param == "strict":
        return (lambda inputs: compiled.admit(
            InferenceRequest(inputs=inputs, request_id=RID))), True
    return compiled.session._admit, False


def grown(value, extent):
    return np.resize(value, (extent,) + value.shape[1:])


# Each case: (inputs, session) -> (bad inputs, tensor the error names,
# shared message body or None, {door or regime: what differs}).  A body
# is the text both doors raise (the strict door prefixes the request);
# "ok" marks a door that admits the request instead.


def unknown_name(inputs, session):
    return ({**inputs, "not_a_tensor": np.zeros(3)}, "not_a_tensor", None, {
        "strict": "unknown input tensor 'not_a_tensor'; this model takes "
                  f"{sorted(inputs)}",
        "lenient": "ok"})


def missing_input(inputs, session):
    dropped = sorted(inputs)[0]
    rest = {k: v for k, v in inputs.items() if k != dropped}
    return rest, dropped, None, {
        "strict": f"missing input tensors {[dropped]}",
        "lenient": f"missing graph inputs: {[dropped]}"}


def empty_request(inputs, session):
    return {}, sorted(inputs)[0], None, {
        "strict": f"has no input tensors; expected {sorted(inputs)}",
        "lenient": f"missing graph inputs: {list(inputs)}"}


def wrong_shape(inputs, session):
    name = "mask"
    bad = inputs[name][..., :-1]
    spec = tuple(session.graph.shape(name))
    return {**inputs, name: bad}, name, (
        f"input {name!r}: got shape {bad.shape}, expected {spec}"), {
        "symbolic": f"input {name!r}: got shape {bad.shape}, expected "
                    f"(?, {spec[1]}, {spec[2]}) (symbolic leading extent, "
                    f"served bucket range 1..{MAX_EXTENT})"}


def wrong_dtype(inputs, session):
    name = "tokens"
    return ({**inputs, name: inputs[name].astype(np.float64)}, name,
            f"input {name!r}: got dtype float64, expected float32", {})


def extent_out_of_range(inputs, session):
    name = "tokens"
    bad = grown(inputs[name], MAX_EXTENT + 5)
    return {**inputs, name: bad}, name, (
        f"input {name!r}: got shape {bad.shape}, expected "
        f"{tuple(session.graph.shape(name))}"), {
        "symbolic": f"input {name!r}: leading extent {MAX_EXTENT + 5} is "
                    f"outside the served bucket range 1..{MAX_EXTENT}"}


def extent_disagreement(inputs, session):
    first, second = list(inputs)[:2]
    bad = grown(inputs[second], 3)
    return {**inputs, second: bad}, second, (
        f"input {second!r}: got shape {bad.shape}, expected "
        f"{tuple(session.graph.shape(second))}"), {
        "symbolic": f"input {second!r}: leading extent 3 disagrees with "
                    f"input {first!r} (extent 1); a request's inputs "
                    f"share one symbolic extent"}


def packed_operand_wrong_shape(inputs, session):
    packed, source, _ = session.program.packs[0]
    operand = session._params[packed]
    assert operand.shape[0] != operand.shape[1]
    expected = tuple(session.graph.shape(source))[::-1]
    return {**inputs, packed: operand.T}, packed, None, {
        "strict": f"unknown input tensor {packed!r}; this model takes "
                  f"{sorted(inputs)}",
        "lenient": f"packed weight {packed!r}: got float32 "
                   f"{operand.T.shape}, expected float32 {expected}"}


def packed_weight_override(inputs, session):
    _, source, _ = session.program.packs[0]
    override = np.full(session.graph.shape(source), 0.5, dtype=np.float32)
    return {**inputs, source: override}, source, None, {
        "strict": f"unknown input tensor {source!r}; this model takes "
                  f"{sorted(inputs)}",
        "lenient": "ok"}


CASES = [unknown_name, missing_input, empty_request, wrong_shape,
         wrong_dtype, extent_out_of_range, extent_disagreement,
         packed_operand_wrong_shape, packed_weight_override]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_admission_table(case, door, compiled):
    admit, strict = door
    session = compiled.session
    good = session.make_inputs(seed=1)
    bad, named, body, differs = case(good, session)
    regime = "symbolic" if session.symbolic is not None else "concrete"
    body = differs.get("strict" if strict else "lenient",
                       differs.get(regime, body))
    if body == "ok":
        values = admit(bad)
        for name, value in good.items():
            assert values[name] is value
        assert "not_a_tensor" not in values
        if named in session.program.pack_of:  # the override, re-packed
            packed = session.program.pack_of[named]
            assert values[named] is bad[named]
            assert values[packed].tobytes() == pack(bad[named]).tobytes()
            assert values[packed] is not session._params[packed]
        return
    with pytest.raises(AdmissionError) as raised:
        admit(bad)
    err = raised.value
    assert isinstance(err, ValueError)
    assert err.model == "two-input"
    assert err.request_id == (RID if strict else None)
    assert repr(named) in str(err)
    if not strict:
        assert str(err) == body
    elif case is empty_request:
        assert str(err) == f"request {RID!r} {body}"
    else:
        assert str(err) == f"request {RID!r}: {body}"


def test_anonymous_strict_request_is_named_generically(compiled):
    with pytest.raises(AdmissionError, match="^request has no input") as err:
        compiled.admit(InferenceRequest(inputs={}))
    assert err.value.request_id is None


def test_admitted_request_is_merged_over_the_parameters(door, compiled):
    admit, _strict = door
    session = compiled.session
    inputs = session.make_inputs(seed=2)
    if session.symbolic is not None:
        inputs = {name: grown(value, 3) for name, value in inputs.items()}
    values = admit(inputs)
    assert set(values) == set(session._params) | set(inputs)
    for name, value in inputs.items():
        assert values[name] is value
