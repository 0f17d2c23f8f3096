"""Tensor-level dynamic batching: extent-polymorphic program variants.

The PR-4 scheduler coalesces batch-compatible requests, but each request
of a coalesced micro-batch still executes as its own pass over the
program - coalescing amortizes *dispatch*, not kernel work.  This module
makes the kernel work itself batched.  Given an
:class:`~repro.runtime.program.ExecutionProgram` whose ops are
batch-stackable, one builder derives a **bucket variant**: the same
steps with the leading extent of every batched value spelled
symbolically - output shapes lead with
:data:`~repro.ir.symbolic.SYM`, reshape targets with ``-1``, batch-axis
slices stop at :data:`~repro.ir.symbolic.OPEN_STOP`, view chains become
:class:`~repro.ir.symbolic.SymViewChain` - and the
:class:`~repro.runtime.program.SlotPlan` and traffic counters sized at
the bucket's bound.  Conv steps keep the base step's bound kernel and
scratch, running longer extents in chunks.  A variant runs at whatever
leading extent its inputs carry, up to the bound.  Because it is an
ordinary ``ExecutionProgram``, the in-process runner emits and caches a
module for it like any other program.

It comes in two flavours, which differ only in whether rank-2
``dense``/``matmul`` kernels are wrapped by :func:`_per_request_rows`:

* :func:`rebatch` - the *stacked* flavour: ``n`` requests of extent
  ``B`` concatenated along the leading axis run as one pass at extent
  ``n*B``, one kernel invocation per step, outputs byte-identical to
  solo runs;
* :func:`symbolize` - the *exact* flavour: one request at any extent
  runs the kernel calls a fresh concrete compile at that extent would.

Batch-size bucketing: a micro-batch of ``n`` requests is served by the
variant of the power-of-two bucket :func:`bucket` covering it, at its
exact size - nothing is padded - so a serving session compiles a small
set of variants instead of one per observed batch size.  Variants are
cached on ``program.backend_cache`` keyed by ``(bucket, flavour)``.

Which ops are batch-stackable
-----------------------------

:func:`analyze` walks the program once and proves, per step, that
executing the stacked tensors is equivalent to executing each request
alone.  The invariant: every *batched* value carries the batch on its
leading axis (extent ``B``, the graph inputs' shared leading extent),
and scaling ``B -> B*N`` never changes non-batch extents.  The rules:

* **elementwise** (``unary``, ``binary``, ``layout_convert``,
  ``batchnorm``): always stackable; a non-batched operand may broadcast
  only from rank below the batched operand (or a leading extent of 1).
* **matmul / dense**: stackable when the batch rides broadcast batch
  dims (rank >= 3) or independent rows (rank 2, no ``transpose_a``);
  weights must be non-batched.
* **softmax / layernorm / rmsnorm / reduce_***: stackable iff the
  normalized/reduced axes exclude the batch axis.
* **NCHW ops** (``conv2d``, pools, ``instancenorm``, ``groupnorm``,
  ``upsample2d``, ``depth_to_space``, ``space_to_depth``): stackable by
  construction - they never mix rows across the leading axis.
* **layout ops**: ``reshape`` must keep the batch axis outermost;
  ``transpose`` must fix axis 0; ``slice``/``pad`` must not cut or grow
  the batch axis; ``concat``/``split``/``gather`` must target a
  non-batch axis (and ``concat`` operands must be uniformly batched).
* **embedding**: ids are batched, the table is not.

View chains are trickier: a chain may move the batch axis *internally*
(e.g. SD-TextEncoder's qkv split transposes batch to axis 1, slices the
qkv axis, and reshapes batch back) as long as every step keeps the
batch indexable - reshapes keep it outermost-nontrivial, slices take
its full range - and the chain ends with batch back on axis 0.

Anything outside these rules (an op reducing or reshaping across the
batch dim, an unknown op type) marks the whole program non-stackable:
:meth:`Session.execute_values <repro.runtime.session.Session.execute_values>`
then falls back to the sequential per-request path *explicitly* instead
of producing wrong stacked results.  The reason is recorded on the
:class:`BatchAnalysis` for introspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..ir.symbolic import OPEN_STOP, SYM, SymViewChain
from ..ir.view import ViewChain, ViewStep
from .kernels import get_kernel
from .program import ExecutionProgram, Step, _assign_slots, fill_once

_ANALYSIS_KEY = "batching.analysis"
_VARIANTS_KEY = "batching.variants"


class NotStackable(Exception):
    """The program (or one step of it) cannot be batch-stacked; the
    message names the offending op and rule."""


def bucket(n: int) -> int:
    """The power-of-two bucket serving a micro-batch of ``n`` requests.

    Bucketing keeps the set of compiled variants logarithmic in the
    observed batch sizes.  The bucket sizes the variant's memory; the
    pass itself runs at the live extent, so ``n`` stacked requests
    execute exactly ``n`` requests' rows.
    """
    if n < 1:
        raise ValueError("batch size must be at least 1")
    return 1 << (n - 1).bit_length()


@dataclass
class BatchAnalysis:
    """Batch-stackability verdict for one program (cached on it).

    ``batched`` names every value whose leading axis is the batch axis
    (graph inputs and everything data-dependent on them); values outside
    it (parameters, constant subexpressions) are shared across the
    stacked requests unscaled.  Mutable on purpose: a rebatch failure
    demotes the program to non-stackable at runtime (defense in depth -
    the sequential path is always correct).
    """

    stackable: bool
    reason: str
    batched: frozenset[str]
    batch_extent: int


def analyze(program: ExecutionProgram) -> BatchAnalysis:
    """Prove (or refute) that ``program`` is batch-stackable.

    Computed once per program and cached on
    :attr:`~repro.runtime.program.ExecutionProgram.backend_cache`; the
    verdict is what licenses
    :meth:`~repro.runtime.session.Session.execute_values` to route a
    micro-batch through one stacked pass.
    """
    return fill_once(program.backend_cache, _ANALYSIS_KEY, _analyze, program)


def mark_unstackable(program: ExecutionProgram, reason: str) -> None:
    """Demote ``program`` to the sequential path permanently.

    Called when building or running a variant fails in a way analysis
    did not predict: wrong results are never acceptable, a sequential
    fallback always is.
    """
    analysis = analyze(program)
    analysis.stackable = False
    analysis.reason = reason


def _analyze(program: ExecutionProgram) -> BatchAnalysis:
    signature = program.input_signature
    if not signature:
        return BatchAnalysis(False, "program has no graph inputs",
                             frozenset(), 0)
    extents = []
    for name, shape, _ in signature:
        if not shape:
            return BatchAnalysis(
                False, f"input {name!r} is rank-0 (no batch axis)",
                frozenset(), 0)
        extents.append(shape[0])
    batch_extent = extents[0]
    if any(extent != batch_extent for extent in extents):
        return BatchAnalysis(
            False, "graph inputs disagree on the leading batch extent",
            frozenset(), 0)
    batched = set(program.input_names)
    shapes, shape_of = _shape_resolver(program)
    try:
        for step in program.steps:
            # factor=2 is a throwaway probe: the transform both checks
            # the stacking rules and exercises the view/attr scaling the
            # real variant build will perform.
            out_batched, _, _, _, _ = _transform_step(
                step, batch_extent, 2, batched, shape_of, False)
            for out, out_shape in zip(step.out_names, step.out_shapes):
                shapes[out] = tuple(out_shape)
                if out_batched:
                    batched.add(out)
    except (NotStackable, ValueError, KeyError) as err:
        return BatchAnalysis(False, f"{err}", frozenset(), batch_extent)
    return BatchAnalysis(True, "", frozenset(batched), batch_extent)


def rebatch(program: ExecutionProgram, factor: int) -> ExecutionProgram:
    """The stacked variant of bucket ``factor`` (cached).

    It serves one stacked pass of up to ``factor`` requests at their
    exact total extent, with rank-2 GEMMs split per request so every
    request's rows are byte-identical to its solo run.  ``factor == 1``
    is the program itself: a single request is never stacked.  Raises
    :class:`NotStackable` when :func:`analyze` refuted stacking.
    """
    if factor == 1:
        return program
    return _variant(program, factor, per_request_rows=True)


def symbolize(program: ExecutionProgram, factor: int) -> ExecutionProgram:
    """The exact-extent variant of bucket ``factor`` (cached).

    It serves one request at any leading extent up to the bound
    ``B * factor``, issuing the kernel calls a fresh concrete compile at
    that extent would - so outputs are byte-identical to it.
    ``factor == 1`` builds a real variant: it serves extents below the
    base batch.  Raises :class:`NotStackable` when :func:`analyze`
    refuted scaling.
    """
    return _variant(program, factor, per_request_rows=False)


def _variant(program: ExecutionProgram, factor: int,
             per_request_rows: bool) -> ExecutionProgram:
    """The one variant cache: ``backend_cache["batching.variants"]``,
    keyed by ``(factor, per_request_rows)``."""
    if factor < 1:
        raise ValueError("batch factor must be at least 1")
    variants = fill_once(program.backend_cache, _VARIANTS_KEY, dict)
    return fill_once(variants, (factor, per_request_rows), _build_variant,
                     program, factor, per_request_rows)


def _build_variant(program: ExecutionProgram, factor: int,
                   per_request_rows: bool) -> ExecutionProgram:
    """The one variant builder: every batched value's leading extent
    becomes symbolic, and memory and traffic are sized at the bound
    ``B * factor`` (conv scratch stays the base step's).  ``per_request_rows`` wraps rank-2 GEMMs by
    :func:`_per_request_rows`; it is the only difference between the
    stacked and the exact flavour."""
    analysis = analyze(program)
    if not analysis.stackable:
        raise NotStackable(
            f"{program.graph.name!r} is not batch-stackable: "
            f"{analysis.reason}")
    B = analysis.batch_extent
    batched = analysis.batched
    # The base plan's slotted tensors, re-planned with the batched ones
    # scaled: a fresh replay rather than scaling slot sizes in place,
    # because base slots are *shared* across tensors of one size class
    # - and a batched and a non-batched tensor of equal base size land
    # in different classes once scaled.
    slotted = program.slot_plan.tensor_slot
    tensors = program.graph.tensors
    plan = _assign_slots(
        program.input_names,
        (([t for t in step.out_names if t in slotted], step.drops)
         for step in program.steps),
        lambda t: tensors[t].size_bytes * (factor if t in batched else 1))
    shapes, shape_of = _shape_resolver(program)
    steps = []
    for step in program.steps:
        out_batched, attrs, views, kernel, owned = _transform_step(
            step, B, factor, batched, shape_of, per_request_rows)
        for out, out_shape in zip(step.out_names, step.out_shapes):
            shapes[out] = tuple(out_shape)
        out_shapes = step.out_shapes
        if out_batched:
            out_shapes = tuple(
                (SYM,) + tuple(shape[1:]) for shape in out_shapes)
        scale = factor if out_batched else 1
        steps.append(Step(
            node_id=step.node_id,
            op_type=step.op_type,
            kernel=kernel,
            arg_names=step.arg_names,
            views=views,
            attrs=attrs,
            out_names=step.out_names,
            out_shapes=out_shapes,
            drops=step.drops,
            bytes_read=step.bytes_read * scale,
            bytes_written=step.bytes_written * scale,
            flops=step.flops * scale,
            # A conv keeps the base step's bound kernel, which runs a
            # longer extent in chunks of its own: the scratch does not
            # scale, whatever the bound.
            scratch_bytes=step.scratch_bytes,
            arena_bytes=step.arena_bytes,
            owned=owned,
        ))
    # Fusion groups are step indices, stable across variants: the
    # variant inherits them verbatim.
    variant = ExecutionProgram(
        program.graph, tuple(steps), plan.with_scratch(steps),
        input_signature=tuple(
            (name, (SYM,) + tuple(shape[1:]), dtype)
            for name, shape, dtype in program.input_signature),
        fused_chains=program.fused_chains,
        symbolic_extent=B * factor,
        packs=program.packs)
    # A variant is never itself stacked or re-scaled.  Pre-seeding the
    # analysis keeps anything that probes the variant (which carries
    # SYM shapes analyze cannot read) on the sequential path.
    variant.backend_cache[_ANALYSIS_KEY] = BatchAnalysis(
        False, "bucket variant: it already runs at its inputs' leading "
        "extent", frozenset(), B * factor)
    return variant


# ---------------------------------------------------------------------------
# internals: shape resolution, view-chain scaling, per-op rules
# ---------------------------------------------------------------------------


def _shape_resolver(program: ExecutionProgram):
    """A mutable name->shape map seeded from the input signature.

    Step outputs are added by the caller as the walk proceeds;
    parameters and interior constants (never produced by a step) resolve
    lazily from the graph's tensor specs.
    """
    shapes = {name: tuple(shape) for name, shape, _ in program.input_signature}
    tensors = program.graph.tensors

    def shape_of(name: str) -> tuple[int, ...]:
        shape = shapes.get(name)
        if shape is None:
            shape = shapes[name] = tuple(int(d) for d in tensors[name].shape)
        return shape

    return shapes, shape_of


def _scale_chain(chain: ViewChain, B: int, factor: int) -> SymViewChain:
    """One view chain with its batch axis made extent-polymorphic.

    Tracks the batch axis *position* through the chain - transposes move
    it freely, reshapes must keep it the outermost non-trivial axis on
    both sides, slices must take its full range - and requires the chain
    to end with the batch back on axis 0 (the kernel-argument
    invariant).  Raises :class:`NotStackable` otherwise.

    The batch position of a reshape target becomes ``-1`` and the
    batch-axis slice triple becomes ``(0, OPEN_STOP, 1)`` (both clamp to
    the actual runtime extent), packaged as a
    :class:`~repro.ir.symbolic.SymViewChain`.  The chain scaled
    concretely to ``B * factor`` is built and validated first, so the
    symbolic one inherits every rule check.
    """
    shape = chain.in_shape
    if not shape or shape[0] != B:
        raise NotStackable(
            f"view chain input {shape} does not lead with the batch axis")
    pos = 0
    steps: list[ViewStep] = []
    sym_steps: list[ViewStep] = []
    for step in chain.steps:
        if step.kind == "transpose":
            steps.append(step)
            sym_steps.append(step)
            pos = step.arg.index(pos)
        elif step.kind == "slice":
            lo, hi, stride = step.arg[pos]
            if (lo, hi, stride) != (0, shape[pos], 1):
                raise NotStackable(
                    f"view slice {step.arg[pos]} cuts the batch axis")
            steps.append(ViewStep("slice", (
                step.arg[:pos] + ((0, B * factor, 1),) + step.arg[pos + 1:])))
            sym_steps.append(ViewStep("slice", (
                step.arg[:pos] + ((0, OPEN_STOP, 1),) + step.arg[pos + 1:])))
        else:  # reshape
            if any(d != 1 for d in shape[:pos]):
                raise NotStackable(
                    f"view reshape from {shape} buries the batch axis")
            target = step.arg
            q = None
            for i, d in enumerate(target):
                if d == B:
                    q = i
                    break
                if d != 1:
                    break
            if q is None:
                raise NotStackable(
                    f"view reshape to {target} merges the batch axis")
            steps.append(ViewStep(
                "reshape", target[:q] + (B * factor,) + target[q + 1:]))
            sym_steps.append(ViewStep(
                "reshape", target[:q] + (-1,) + target[q + 1:]))
            pos = q
        shape = step.output_shape(shape)
    if pos != 0:
        raise NotStackable("view chain leaves the batch off axis 0")
    try:
        scaled = ViewChain((B * factor,) + chain.in_shape[1:], tuple(steps))
    except ValueError as err:
        raise NotStackable(f"scaled view chain is inconsistent: {err}") \
            from err
    expected = (B * factor,) + chain.out_shape[1:]
    if scaled.out_shape != expected:
        raise NotStackable(
            f"scaled view chain produces {scaled.out_shape}, "
            f"expected {expected}")
    return SymViewChain((SYM,) + chain.in_shape[1:], sym_steps,
                        (SYM,) + chain.out_shape[1:])


def _axes(attrs: dict, rank: int, default) -> tuple[int, ...]:
    raw = attrs.get("axes", default)
    if isinstance(raw, int):
        raw = (raw,)
    return tuple(a % rank for a in raw)


def _per_request_rows(kernel, B: int):
    """Wrap a rank-2 GEMM kernel to keep per-request bit-exactness.

    A rank-2 ``dense``/``matmul`` folds the batch into the GEMM's M
    dimension, and BLAS row-blocking makes ``(N*B, k) @ (k, m)`` differ
    from the solo ``(B, k) @ (k, m)`` in the last float bits.  Lifting
    the stacked rows to ``(N, B, k)`` makes numpy loop the leading axis,
    issuing per request the *identical* GEMM call a solo run issues -
    byte-identical outputs by construction.  Every other stackable op
    already loops the leading axis (rank>=3 matmul, the conv2d einsum)
    or is element/row-local.
    """
    def stacked_kernel(inputs, attrs):
        x = inputs[0]
        lifted = x.reshape((x.shape[0] // B, B) + x.shape[1:])
        out = kernel([lifted, *inputs[1:]], attrs)
        return out.reshape((x.shape[0],) + out.shape[2:])

    return stacked_kernel


def _transform_step(step: Step, B: int, factor: int, batched,
                    shape_of, per_request_rows: bool,
                    ) -> tuple[bool, dict, tuple, object, int | None]:
    """Check one step's stacking rule and make its batch-dependent
    capture extent-polymorphic.

    Returns ``(out_batched, attrs, views, kernel, owned)``: whether the
    step's outputs carry the batch axis, the (possibly re-built) attrs
    dict - reshape targets lead with ``-1``, slice stops with
    :data:`~repro.ir.symbolic.OPEN_STOP` (the ``slice`` kernel clamps) -
    the ``(position, chain)`` capture with batched chains made
    :class:`~repro.ir.symbolic.SymViewChain`, the kernel (the base
    step's - a conv runs longer extents in chunks of its planned one -
    or the reference one where the variant cannot keep the step's
    ownership), and the variant step's
    :attr:`~Step.owned`.  Every rule is checked on the concrete base
    shapes.  Raises :class:`NotStackable` when stacking would change
    results.

    ``per_request_rows`` wraps rank-2 GEMMs by :func:`_per_request_rows`
    (the stacked flavour).  Without it an exact-extent pass issues the
    same single GEMM call a concrete compile at that extent issues,
    which is what makes its outputs byte-identical to fresh concrete
    compiles.
    """
    op = step.op_type
    arg_batched = tuple(name in batched for name in step.arg_names)
    views = []
    for idx, chain in step.views:
        views.append((idx, _scale_chain(chain, B, factor)
                      if arg_batched[idx] else chain))
    views = tuple(views)
    if not any(arg_batched):
        # A pure parameter/constant subexpression: identical for every
        # request, so the variant runs it once, unscaled, and the output
        # is shared across the split.
        return False, step.attrs, views, step.kernel, step.owned

    by_view = dict(views)

    def arg_shape(pos: int) -> tuple[int, ...]:
        # Base (unscaled) kernel-argument shape, i.e. post-view.
        chain = by_view.get(pos)
        if chain is not None:
            return (B,) + chain.out_shape[1:] if arg_batched[pos] \
                else chain.out_shape
        return shape_of(step.arg_names[pos])

    attrs = step.attrs
    kernel = step.kernel
    rank = len(arg_shape(0))

    if op in ("unary", "layout_convert"):
        pass
    elif op == "binary":
        ra, rb = rank, len(arg_shape(1))
        a_b, b_b = arg_batched[0], arg_batched[1]
        if a_b and b_b:
            if ra != rb:
                raise NotStackable(
                    f"binary: batched operands of ranks {ra} and {rb}")
        elif a_b:
            if rb > ra or (rb == ra and arg_shape(1)[0] != 1):
                raise NotStackable(
                    "binary: non-batched operand broadcasts over the "
                    "batch axis")
        else:
            if ra > rb or (ra == rb and arg_shape(0)[0] != 1):
                raise NotStackable(
                    "binary: non-batched operand broadcasts over the "
                    "batch axis")
    elif op == "matmul":
        ra, rb = rank, len(arg_shape(1))
        a_b, b_b = arg_batched[0], arg_batched[1]
        if a_b and b_b:
            if ra != rb or ra < 3:
                raise NotStackable(
                    "matmul: batched operands need aligned batch dims "
                    "(equal rank >= 3)")
        elif a_b:
            if ra < 2 or rb > 2:
                raise NotStackable(
                    "matmul: batch axis would join the contraction")
            if ra == 2:
                if attrs.get("transpose_a"):
                    raise NotStackable(
                        "matmul: transpose_a folds the batch axis")
                if per_request_rows:
                    kernel = _per_request_rows(kernel, B)
        else:
            if rb < 3 or ra > 2:
                raise NotStackable(
                    "matmul: batched rhs without a broadcast batch dim")
    elif op == "dense":
        if not arg_batched[0] or any(arg_batched[1:]):
            raise NotStackable("dense: weights/bias must be non-batched")
        if rank < 2:
            raise NotStackable("dense: rank-1 activation contracts the "
                               "batch axis")
        if rank == 2 and per_request_rows:
            kernel = _per_request_rows(kernel, B)
    elif op == "softmax":
        if int(attrs.get("axis", -1)) % rank == 0:
            raise NotStackable("softmax over the batch axis")
    elif op in ("layernorm", "rmsnorm"):
        if not arg_batched[0] or any(arg_batched[1:]):
            raise NotStackable(f"{op}: scale/bias must be non-batched")
        if 0 in _axes(attrs, rank, -1):
            raise NotStackable(f"{op} normalizes across the batch axis")
    elif op in ("instancenorm", "groupnorm", "batchnorm", "conv2d",
                "maxpool2d", "avgpool2d", "global_avgpool", "upsample2d",
                "depth_to_space", "space_to_depth"):
        if not arg_batched[0] or any(arg_batched[1:]):
            raise NotStackable(
                f"{op}: weights/scale/bias must be non-batched")
        if rank < 2:
            raise NotStackable(f"{op}: activation has no batch axis")
    elif op in ("reduce_mean", "reduce_sum", "reduce_max"):
        if 0 in _axes(attrs, rank, tuple(range(rank))):
            raise NotStackable(f"{op} reduces across the batch axis")
    elif op == "reshape":
        target = tuple(int(d) for d in attrs["shape"])
        if not target or target[0] != B:
            raise NotStackable(
                f"reshape to {target} merges the batch axis")
        attrs = {**attrs, "shape": (-1,) + target[1:]}
    elif op == "transpose":
        if tuple(attrs["perm"])[0] != 0:
            raise NotStackable("transpose moves the batch axis")
    elif op == "slice":
        starts = tuple(int(v) for v in attrs["starts"])
        stops = tuple(int(v) for v in attrs["stops"])
        steps_ = attrs.get("steps")
        if starts[0] != 0 or stops[0] < B \
                or (steps_ is not None and int(steps_[0]) != 1):
            raise NotStackable("slice cuts the batch axis")
        attrs = {**attrs, "stops": (OPEN_STOP,) + stops[1:]}
    elif op == "gather":
        if int(attrs.get("axis", 0)) % rank == 0:
            raise NotStackable("gather indexes the batch axis")
    elif op == "concat":
        if not all(arg_batched):
            raise NotStackable(
                "concat mixes batched and non-batched operands")
        if int(attrs.get("axis", 0)) % rank == 0:
            raise NotStackable("concat along the batch axis")
    elif op == "split":
        if int(attrs.get("axis", 0)) % rank == 0:
            raise NotStackable("split along the batch axis")
    elif op == "pad":
        if tuple(attrs["pads"][0]) != (0, 0):
            raise NotStackable("pad grows the batch axis")
    elif op == "embedding":
        if arg_batched[0]:
            raise NotStackable("embedding: batched table")
    else:
        raise NotStackable(f"op {op!r} has no batch-stacking rule")

    for shape in step.out_shapes:
        if not shape or shape[0] != B:
            raise NotStackable(
                f"{op}: output shape {tuple(shape)} does not lead with "
                f"the batch axis")
    owned = step.owned
    if owned is not None and not arg_batched[owned]:
        # The owned operand broadcasts over the batched output (a
        # parameter subexpression added to an activation): an in-place
        # write would have to grow it, so the variant allocates.
        owned, kernel = None, get_kernel(op)
    return True, attrs, views, kernel, owned


__all__ = [
    "BatchAnalysis", "NotStackable", "analyze", "bucket",
    "mark_unstackable", "rebatch", "symbolize",
]
