"""Structured semantic verification of graph rewrites.

``verify_equivalence`` runs two graphs on shared random inputs and
produces a per-output error report - the tool behind every
"optimized == original" guarantee in the examples and tests, with
actionable output when something diverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..ir.graph import Graph
from .executor import make_inputs
from .codegen_backend import get_backend
from .program import lower


@dataclass
class OutputCheck:
    name: str
    shape: tuple[int, ...]
    max_abs_error: float
    max_rel_error: float
    matches: bool


@dataclass
class VerificationReport:
    checks: list[OutputCheck] = field(default_factory=list)
    seeds: tuple[int, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.matches for c in self.checks)

    @property
    def worst_abs_error(self) -> float:
        return max((c.max_abs_error for c in self.checks), default=0.0)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"verification {status} over seeds {list(self.seeds)}"]
        for c in self.checks:
            mark = "ok " if c.matches else "BAD"
            lines.append(
                f"  [{mark}] {c.name} {c.shape}: max abs err "
                f"{c.max_abs_error:.3e}, max rel err {c.max_rel_error:.3e}")
        return "\n".join(lines)


def verify_equivalence(
    reference: Graph,
    candidate: Graph,
    seeds: tuple[int, ...] = (0, 1),
    rtol: float = 1e-4,
    atol: float = 1e-5,
) -> VerificationReport:
    """Compare graph outputs over several input seeds.

    Both graphs are lowered once (memoized per graph generation) and
    executed by the one in-process runner
    (:class:`~repro.runtime.codegen_backend.NumPyBackend`) - the same
    program path the executor and the serving sessions use, so
    verification exercises exactly the code that serves requests.
    """
    run = get_backend().run
    ref_program = lower(reference)
    cand_program = lower(candidate)
    report = VerificationReport(seeds=tuple(seeds))
    worst: dict[str, OutputCheck] = {}
    for seed in seeds:
        inputs = make_inputs(reference, seed=seed)
        ref_out = run(ref_program, dict(inputs))
        cand_out = run(
            cand_program, {k: v for k, v in inputs.items()
                           if k in candidate.tensors})
        for name in ref_out:
            a = np.asarray(ref_out[name], dtype=np.float64)
            b = np.asarray(cand_out[name], dtype=np.float64)
            abs_err = float(np.nanmax(np.abs(a - b))) if a.size else 0.0
            scale = np.maximum(np.abs(a), 1e-12)
            rel_err = float(np.nanmax(np.abs(a - b) / scale)) if a.size else 0.0
            matches = bool(np.allclose(a, b, rtol=rtol, atol=atol,
                                       equal_nan=True))
            check = OutputCheck(name, tuple(a.shape), abs_err, rel_err, matches)
            prev = worst.get(name)
            if prev is None or check.max_abs_error > prev.max_abs_error \
                    or not check.matches:
                worst[name] = check
    report.checks = list(worst.values())
    return report
