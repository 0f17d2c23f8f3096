"""The in-process runner: ExecutionPrograms compiled to Python.

A program's steps could run as a loop over per-step closures, but that
loop pays per-step dispatch on every request: one closure call, one
argument-list comprehension, one dict read per input, one dict write
per output, one drop loop.  On dispatch-bound models (tiny tensors,
many steps) that residue is a measurable fraction of the request wall.

:class:`NumPyBackend` - the one in-process runner, which every backend
name runs (a ``"parallel"`` session inside each worker) - removes it by
*compiling the whole step loop to Python source* once per program:

* every step of the program becomes inline statements in a single
  generated function, emitted one way for every step, with no per-step
  closure dispatch; each step calls the kernel ``lower()`` bound to it
  (in place where the step owns an operand), so the compiler's fusion
  groups are the only fusion decision;
* interior values live in function locals (``LOAD_FAST``) instead of the
  values dict; inputs and parameters are read from the request dict
  exactly once;
* pre-resolved view chains, and every ``reshape`` / ``transpose`` step,
  are inlined as direct ndarray method calls (``.reshape(...)``,
  ``.transpose(...)``, constant slice subscripts) instead of
  applier-closure or kernel calls;
* kernels and per-step attrs are bound as module globals of the
  generated module;
* every output's shape is checked against its spec, with the error text
  of the per-step timing walk
  (:attr:`~repro.runtime.program.ExecutionProgram.op_list`).

The module source is emitted by :func:`emit_program_source`, compiled
once by :func:`compile_program`, and cached on
:attr:`~repro.runtime.program.ExecutionProgram.backend_cache` - the
program itself is memoized per graph generation by
:func:`~repro.runtime.program.lower`, so the compiled runner inherits
exactly the lowering's lifetime and invalidation.  A
:class:`~repro.runtime.session.Session` emits its base program's module
when it is built, so an emission bug fails the compile, not a request.

Micro-batching and stacked execution wrap the same runner.  A bucket
variant built by :mod:`repro.runtime.batching` is an ordinary
``ExecutionProgram``, so ``run_stacked`` and the symbolic route compile
(and cache) *source* for it the same way - one module per (bucket,
flavour), serving every leading extent up to the bucket's bound through
the ``_n`` runtime local.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..api.errors import BackendCompilationError, ExecutionError
from ..ir.symbolic import OPEN_STOP, SymDim, SymViewChain
from ..memory.pool import PoolReport
from .batching import analyze
from .program import ExecutionProgram, fill_once

_MODULE_CACHE_KEY = "codegen.module"

#: Module sources actually emitted+compiled (cache misses) since process
#: start - the regression-test observable for "one emission per bucket".
_EMISSIONS = 0
_EMISSIONS_LOCK = threading.Lock()  # distinct programs emit at once


def emission_count() -> int:
    """How many program modules this process has emitted and compiled
    (cache hits excluded)."""
    return _EMISSIONS


_UNPRINTABLE = re.compile(r"[^ -~]")


def _comment_text(text: str) -> str:
    """Comment-safe rendering of free-form names: anything outside
    printable ASCII (a newline would terminate the comment and corrupt
    the module) becomes ``?``.  Only cosmetic text goes through here -
    names that matter semantically are embedded via ``repr``."""
    return _UNPRINTABLE.sub("?", text)


def _dims_source(dims) -> str:
    """A shape tuple as source text.  The symbolic leading extent - SYM
    in an output spec, ``-1`` in a symbolic reshape target - reads the
    runtime local ``_n``."""
    items = ["_n" if isinstance(d, SymDim) or d == -1 else repr(d)
             for d in dims]
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


@dataclass(frozen=True)
class CompiledProgramModule:
    """One program compiled to a Python module.

    ``source`` is the generated text (inspectable, like the pseudo-OpenCL
    kernels of :mod:`repro.runtime.codegen`); ``run_plain`` is the
    compiled runner - the module's one function - the backend executes;
    ``namespace`` is the module globals the source was executed in
    (kernels and attrs bound by name).
    """

    source: str
    run_plain: Callable
    namespace: dict


class _SourceEmitter:
    """Builds the module source for one :class:`ExecutionProgram`."""

    def __init__(self, program: ExecutionProgram) -> None:
        self.program = program
        self.graph = program.graph
        # ExecutionError is pre-bound so the emitted shape checks raise
        # the taxonomy's type.
        self.namespace: dict = {"ExecutionError": ExecutionError}
        self._kernel_names: dict[int, str] = {}
        self._attrs_names: dict[int, str] = {}
        self._locals: dict[str, str] = {}
        self._externals: set[str] = set()
        self._external_loads: list[str] = []

    # -- bindings ----------------------------------------------------------

    def _attrs(self, attrs: dict) -> str:
        """One module global per distinct attrs dict (shared by every
        step carrying it, like kernels)."""
        key = id(attrs)
        name = self._attrs_names.get(key)
        if name is None:
            name = f"_a{len(self._attrs_names)}"
            self._attrs_names[key] = name
            self.namespace[name] = attrs
        return name

    def _kernel(self, step) -> str:
        """One module global per distinct kernel callable."""
        key = id(step.kernel)
        name = self._kernel_names.get(key)
        if name is None:
            base = "_k_" + re.sub(r"\W", "_", step.op_type)
            name = base
            suffix = 2
            while name in self.namespace:
                name = f"{base}_{suffix}"
                suffix += 1
            self.namespace[name] = step.kernel
            self._kernel_names[key] = name
        return name

    def _value(self, name: str) -> str:
        """The local identifier for a value, loading externals (graph
        inputs, parameters, interior constants) from the request dict
        exactly once at the top of the function."""
        found = self._locals.get(name)
        if found is None:
            found = self._locals[name] = f"v{len(self._locals)}"
            self._externals.add(name)
            self._external_loads.append(
                f"    {found} = values[{name!r}]")
        return found

    def _define(self, name: str) -> str:
        """The local identifier a step output is bound to."""
        found = self._locals.get(name)
        if found is None:
            found = self._locals[name] = f"v{len(self._locals)}"
        return found

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _render_view(expr: str, chain) -> str:
        """Inline a pre-resolved view chain as direct ndarray calls.

        Symbolic chains render their batch-axis placeholders against
        ``_n``, the pass's leading extent, a local emitted at the top of
        the function body.
        """
        symbolic = isinstance(chain, SymViewChain)
        for step in chain.steps:
            if step.kind == "reshape":
                expr = f"{expr}.reshape(" + (
                    _dims_source(step.arg) if symbolic
                    else repr(step.arg)) + ")"
            elif step.kind == "transpose":
                expr = f"{expr}.transpose({step.arg!r})"
            else:  # slice: constant subscript, no per-run slice building
                index = ", ".join(
                    f"{lo}:{'_n' if hi == OPEN_STOP else hi}:{st}"
                    for lo, hi, st in step.arg)
                expr = f"{expr}[{index}]"
        return expr

    def _emit_check(self, lines, out: str, step, shape) -> None:
        """The shape check: the full shape, with a symbolic spec's
        leading extent read from ``_n``, in the timing walk's error
        text."""
        message = (f"kernel {step.op_type} ({step.node_id}) produced "
                   "shape ").replace("%", "%%") + "%r, spec says %r"
        want = _dims_source(shape)
        lines.append(f"    if {out}.shape != {want}:")
        lines.append(f"        raise ExecutionError({message!r}"
                     f" % ({out}.shape, {want}))")

    def _args(self, step) -> list[str]:
        """Argument expressions, views rendered inline."""
        # Views come from the Step's lowering-time capture, never the
        # live graph: the program must stay faithful to the state it was
        # lowered from even if the graph mutates afterwards.
        views = dict(step.views)
        args = []
        for pos, arg_name in enumerate(step.arg_names):
            expr = self._value(arg_name)
            view = views.get(pos)
            if view is not None:
                expr = self._render_view(expr, view)
            args.append(expr)
        return args

    def _emit_epilogue(self, lines: list[str], step) -> None:
        """Value drops after a step's statement(s)."""
        for dead in step.drops:
            local = self._locals.get(dead)
            if local is not None:
                # Free the backing ndarray as soon as the value dies,
                # bounding process memory by the live set.
                lines.append(f"    {local} = None")
            if local is None or dead in self._externals:
                # Only externals (and never-referenced values) live in
                # the request dict; interior values are locals only.
                lines.append(f"    values.pop({dead!r}, None)")

    def _emit_step(self, lines: list[str], step) -> None:
        """One step's statements: the bound kernel's call (or the
        ndarray method a relayout kernel makes), the tuple unwrap and
        shape check, then the drops."""
        args = self._args(step)
        op = step.op_type
        lines.append("    # " + _comment_text(
            f"{step.node_id}: {op}({', '.join(step.arg_names)})"))
        if op in ("reshape", "transpose"):
            # Exactly what the ``reshape``/``transpose`` kernels do, minus
            # the kernel call.
            out = self._define(step.out_names[0])
            arg = tuple(map(int, step.attrs[
                "shape" if op == "reshape" else "perm"]))
            lines.append(f"    {out} = {args[0]}.{op}({arg!r})")
            self._emit_check(lines, out, step, step.out_shapes[0])
        elif len(step.out_names) == 1:
            out = self._define(step.out_names[0])
            lines.append(f"    {out} = {self._kernel(step)}("
                         f"[{', '.join(args)}], {self._attrs(step.attrs)})")
            lines.append(f"    if type({out}) in (tuple, list):")
            lines.append(f"        {out} = {out}[0]")
            self._emit_check(lines, out, step, step.out_shapes[0])
        else:
            lines.append(f"    _r = {self._kernel(step)}([{', '.join(args)}]"
                         f", {self._attrs(step.attrs)})")
            for pos, (out_name, shape) in enumerate(
                    zip(step.out_names, step.out_shapes)):
                out = self._define(out_name)
                lines.append(f"    {out} = _r[{pos}]")
                self._emit_check(lines, out, step, shape)
            lines.append("    _r = None")
        self._emit_epilogue(lines, step)

    def _emit_body(self) -> list[str]:
        """The fused step loop: the body of ``run_plain``."""
        program = self.program
        lines: list[str] = []
        if program.symbolic_extent is not None:
            # The symbolic extent is a *runtime local*, read off the
            # request once; everything shape-like downstream (batch-axis
            # slices, reshape targets) refers to it instead of a literal.
            lines.append(f"    # symbolic leading extent (bound "
                         f"{program.symbolic_extent}), decided per request")
            lines.append(
                f"    _n = values[{program.input_names[0]!r}].shape[0]")
        for step in program.steps:
            self._emit_step(lines, step)
        returns = ", ".join(
            f"{name!r}: {self._locals[name]}"
            if name in self._locals else f"{name!r}: values[{name!r}]"
            for name in program.output_names)
        lines.append(f"    return {{{returns}}}")
        return self._external_loads + lines

    def emit(self) -> str:
        program = self.program
        plain = ["def run_plain(values):"] + self._emit_body()
        # Comments, not a module docstring: free-form graph names could
        # otherwise terminate the string literal.
        header = [
            "# Generated by repro.runtime.codegen_backend for "
            + _comment_text(repr(self.graph.name)) + ".",
            f"# {program.num_steps} steps fused into one function; "
            f"{len(self._kernel_names)} distinct kernels bound as module "
            "globals.",
        ]
        if program.symbolic_extent is not None:
            header.append(
                f"# Symbolic bucket variant (extent bound "
                f"{program.symbolic_extent}): one compiled module serves "
                "every leading extent up to the bound, at that exact "
                "extent.")
        header.append("")
        return "\n".join(header + plain) + "\n"


def emit_program_source(program: ExecutionProgram) -> tuple[str, dict]:
    """Emit the Python module source for ``program``.

    Returns ``(source, namespace)``: the namespace carries the objects
    the source refers to by name (kernel callables, per-step attr
    dicts).  Pure emission - nothing is compiled or executed.
    """
    emitter = _SourceEmitter(program)
    # Emitting binds kernels/attrs into the namespace as a side effect,
    # so emit first and snapshot after.
    source = emitter.emit()
    return source, emitter.namespace


def compile_program(program: ExecutionProgram) -> CompiledProgramModule:
    """Compile ``program``'s generated module (cached on the program).

    The cache rides :attr:`ExecutionProgram.backend_cache`, and the
    program itself is memoized per graph generation by :func:`lower` -
    so a graph mutation invalidates the runner exactly when it
    invalidates the lowering.
    """
    return fill_once(program.backend_cache, _MODULE_CACHE_KEY,
                     _emit_and_compile, program)


def _emit_and_compile(program: ExecutionProgram) -> CompiledProgramModule:
    """One emission: :func:`compile_program`'s cache miss."""
    global _EMISSIONS
    with _EMISSIONS_LOCK:
        _EMISSIONS += 1
    try:
        source, namespace = emit_program_source(program)
        code = compile(source, f"<repro-codegen:{program.graph.name}>",
                       "exec")
        exec(code, namespace)
    except BackendCompilationError:
        raise
    except Exception as err:
        # Emission/compile bugs surface as the taxonomy's compile
        # failure.  Nothing is cached: a later call retries.
        raise BackendCompilationError(
            f"codegen failed to compile {program.graph.name!r}: {err}",
            model=program.graph.name, backend=NumPyBackend.name,
        ) from err
    return CompiledProgramModule(
        source=source,
        run_plain=namespace["run_plain"],
        namespace=namespace,
    )


def program_source(program: ExecutionProgram) -> str:
    """The generated Python source serving ``program`` (for inspection,
    like :func:`repro.runtime.codegen.generate_kernel` for pseudo-OpenCL)."""
    return compile_program(program).source


class NumPyBackend:
    """The in-process runner: every program and bucket variant runs its
    emitted function (:func:`compile_program`).  One shared instance
    (:func:`get_backend`) serves every backend name.

    The hot path touches only program-local state: kernels and attrs
    bound as module globals, views inlined, shapes prefetched - no
    graph, tensor-spec, or kernel-registry traffic per request, and no
    pool bookkeeping: the slot plan's accounting is a static fact of the
    program (:attr:`~repro.runtime.program.ExecutionProgram.report`).
    """

    name = "numpy"

    def run(self, program: ExecutionProgram,
            values: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute ``program`` over ``values`` (mutated in place; pass a
        private dict) and return the graph outputs."""
        return compile_program(program).run_plain(program.bind_packs(values))

    def run_many(self, program: ExecutionProgram,
                 values_list: list[dict[str, np.ndarray]],
                 ) -> list[tuple[dict[str, np.ndarray], PoolReport, float]]:
        """Serve a batch of requests in one invocation; returns
        ``(outputs, report, wall_seconds)`` per request, where ``report``
        is the program's static :attr:`~ExecutionProgram.report`."""
        perf = time.perf_counter
        report = program.report
        results = []
        for values in values_list:
            start = perf()
            outputs = self.run(program, values)
            results.append((outputs, report, perf() - start))
        return results

    def run_stacked(self, program: ExecutionProgram,
                    variant: ExecutionProgram, values_list,
                    ) -> list[tuple[dict[str, np.ndarray], PoolReport, float]]:
        """Serve a stackable micro-batch as ONE pass of ``variant``.

        The ``n`` requests' input tensors are concatenated along the
        leading batch axis - nothing is padded - the bucket's stacked
        variant (:func:`~repro.runtime.batching.rebatch`) runs once at
        extent ``n*B`` through :meth:`run_many` - one kernel invocation
        per step for the whole micro-batch - and the batched outputs are
        split back per request.  Values outside the batched set (graph
        outputs that are pure parameter expressions) are shared
        unsliced.

        Result rows mirror :meth:`run_many`: ``(outputs, report, wall)``
        per request, with the variant's report *shared* (the pass is one
        execution of one plan) and the stacked wall time divided evenly
        - callers flag the attribution via ``RunStats.batched``.
        """
        analysis = analyze(program)
        extent = analysis.batch_extent
        batched = analysis.batched
        n = len(values_list)
        stacked = dict(values_list[0])
        for name in program.input_names:
            stacked[name] = np.concatenate(
                [values[name] for values in values_list], axis=0)
        (outputs, report, wall), = self.run_many(variant, (stacked,))
        share = wall / n
        results = []
        for i in range(n):
            lo = i * extent
            hi = lo + extent
            results.append((
                {name: value[lo:hi] if name in batched else value
                 for name, value in outputs.items()},
                report, share))
        return results


_RUNNER = NumPyBackend()

_BACKENDS = {"numpy": "numpy", "codegen": "numpy", "parallel": "parallel"}
"""Every accepted backend name and the canonical name it reports.
``"codegen"`` was the emitted runner's own name before it became the
only in-process runner; a ``"parallel"`` session shards invocations
over its worker pool (:meth:`~repro.runtime.session.Session.execute_values`)
and runs on this same runner inside each worker."""


def canonical_backend(name: str) -> str:
    """The canonical name of backend ``name``; ``KeyError`` for an
    unknown one."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown backend {name!r}; "
                       f"available: {available_backends()}") from None


def get_backend(name: str = "numpy") -> NumPyBackend:
    """The shared in-process runner, which every accepted backend name
    executes on; ``KeyError`` for an unknown name."""
    canonical_backend(name)
    return _RUNNER


def available_backends() -> list[str]:
    return sorted(_BACKENDS)
