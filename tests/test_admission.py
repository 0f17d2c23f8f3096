"""The admission table: one function, one mode, three front doors, two
shape regimes.

``runtime.session._admit`` is the only admission implementation, and
``CompiledModel.admit`` a one-line caller of it: a request names exactly
the declared graph inputs, and messages and errors are decorated with
the request.  ``CompiledModel.run`` and ``.run_batch`` admit through it
before anything executes.  Every malformed-request case runs through
each door, on a concrete and on a symbolic compile of the same
two-input graph, and pins the error type, the tensor it names, its
``request_id``/``model`` context, the message text, and that no request
was recorded.
"""

import numpy as np
import pytest

import repro
from repro.api import (
    AdmissionError, CompileOptions, InferenceRequest,
)
from repro.ir import GraphBuilder
from repro.runtime import FaultPlan

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
    return repro.compile(graph, options)


@pytest.fixture(params=["admit", "run", "run_batch"])
def door(request, compiled):
    """``submit(inputs)`` through one front door, under the request id
    ``RID``.  The batch door serves the request behind a well-formed
    batchmate, which must not mask its refusal."""
    def submit(inputs):
        bad = InferenceRequest(inputs=inputs, request_id=RID)
        if request.param == "admit":
            return compiled.admit(bad)
        if request.param == "run":
            return compiled.run(bad)
        good = InferenceRequest(
            inputs=compiled.session.make_inputs(seed=3), request_id="ok")
        return compiled.run_batch([good, bad])
    return submit


def grown(value, extent):
    return np.resize(value, (extent,) + value.shape[1:])


# Each case: (inputs, session) -> (bad inputs, tensor the error names,
# message body, {regime: body there}).  The error's message is the body
# led by the request.


def unknown_name(inputs, session):
    return ({**inputs, "not_a_tensor": np.zeros(3)}, "not_a_tensor",
            "unknown input tensor 'not_a_tensor'; this model takes "
            f"{sorted(inputs)}", {})


def missing_input(inputs, session):
    dropped = sorted(inputs)[0]
    rest = {k: v for k, v in inputs.items() if k != dropped}
    return rest, dropped, f"missing input tensors {[dropped]}", {}


def empty_request(inputs, session):
    return {}, sorted(inputs)[0], (
        f"has no input tensors; expected {sorted(inputs)}"), {}


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
    packed, _, _ = session.program.packs[0]
    operand = session._params[packed]
    assert operand.shape[0] != operand.shape[1]
    return {**inputs, packed: operand.T}, packed, (
        f"unknown input tensor {packed!r}; this model takes "
        f"{sorted(inputs)}"), {}


def packed_weight_override(inputs, session):
    _, source, _ = session.program.packs[0]
    override = np.full(session.graph.shape(source), 0.5, dtype=np.float32)
    return {**inputs, source: override}, source, (
        f"unknown input tensor {source!r}; this model takes "
        f"{sorted(inputs)}"), {}


CASES = [unknown_name, missing_input, empty_request, wrong_shape,
         wrong_dtype, extent_out_of_range, extent_disagreement,
         packed_operand_wrong_shape, packed_weight_override]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_admission_table(case, door, compiled):
    session = compiled.session
    good = session.make_inputs(seed=1)
    bad, named, body, differs = case(good, session)
    regime = "symbolic" if session.symbolic is not None else "concrete"
    body = differs.get(regime, body)
    recorded = session.stats.requests
    with pytest.raises(AdmissionError) as raised:
        door(bad)
    assert session.stats.requests == recorded
    err = raised.value
    assert isinstance(err, ValueError)
    assert err.model == "two-input"
    assert err.request_id == RID
    assert repr(named) in str(err)
    if case is empty_request:
        assert str(err) == f"request {RID!r} {body}"
    else:
        assert str(err) == f"request {RID!r}: {body}"


def test_anonymous_strict_request_is_named_generically(compiled):
    with pytest.raises(AdmissionError, match="^request has no input") as err:
        compiled.admit(InferenceRequest(inputs={}))
    assert err.value.request_id is None


def test_admitted_request_is_merged_over_the_parameters(compiled):
    session = compiled.session
    inputs = session.make_inputs(seed=2)
    if session.symbolic is not None:
        inputs = {name: grown(value, 3) for name, value in inputs.items()}
    values = compiled.admit(InferenceRequest(inputs=inputs, request_id=RID))
    assert set(values) == set(session._params) | set(inputs)
    for name, value in inputs.items():
        assert values[name] is value
