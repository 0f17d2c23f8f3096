"""The measuring subprocess: one workload in one fresh interpreter.

The runner starts this with the BLAS thread caps already in the
environment, so numpy is first imported under them.  The program is
driven only through its public entry points; every tensor it sees comes
from :mod:`perfkit.loadgen`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import resource
import sys
import threading
import time
from collections import Counter
from statistics import median

import numpy as np

import repro
from repro.runtime import active_segments, verify_equivalence
from repro.runtime.codegen_backend import emission_count

from . import drive, layers, loadgen, spec
from .trace import Tracer

POOL_SIZE = 64
"""Distinct pooled requests per serving workload."""
COLD_POOL_SIZE = 4
"""Distinct pooled requests per cold-start model."""
OPEN_WINDOW_OPS = 210
"""Fewest operations in an open window: 200 and a margin for the rate's
own variance, so that the window's p95 has ten samples beyond it."""
WINDOW_S = 0.25
"""How long a closed window lasts, and an open one whose rate fills it
with more than ``OPEN_WINDOW_OPS`` operations.  Short on purpose: what
slows this host (a neighbour on the sibling hardware thread) comes and
goes within a second and only ever slows, so a run of many short windows
holds some that ran undisturbed, and those are what is reported."""
CLOSED_WINDOW_OPS = 4096
"""No closed window sends more than this, so the responses the benchmark
holds stay a small, fixed part of ``peak_rss_mb`` however fast the
service."""
COLD_ROUND_PASSES = 16
"""A ``cold_start`` round is this many passes over the 13 models: 208
operations, so its p95 too has ten samples beyond it."""
COLD_PASS_NOMINAL_S = 0.3
"""What one ``cold_start`` pass takes on the host the benchmark was sized
on.  The round count is fixed from this and ``--seconds``, not timed, so
that the number of graphs the process has compiled - which its resident
set and its collector pauses grow with - is the same in every run."""


def host_fingerprint() -> dict:
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "workers": drive.worker_count(),
    }


def same_outputs(got: dict, expected: dict) -> bool:
    """Byte-for-byte equality of two named-tensor dicts."""
    if got.keys() != expected.keys():
        return False
    for name, want in expected.items():
        have = got[name]
        if have.shape != want.shape or have.dtype != want.dtype \
                or have.tobytes() != want.tobytes():
            return False
    return True


class Checker:
    """Counts operations and, by reason, the ones that failed.

    A failed operation is a refusal, an exception, a response that never
    came, a response that differs from the solo reference in any byte,
    or a hygiene check that did not hold.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def expect(self, holds: bool, reason: str) -> bool:
        self.attempted += 1
        if not holds:
            self.failures[reason] += 1
        return holds

    def response(self, future, expected: dict):
        """The response of one operation, or None if it failed."""
        if isinstance(future, BaseException):
            self.expect(False, f"refused: {type(future).__name__}")
            return None
        if not future.done():
            self.expect(False, "timeout")
            return None
        try:
            response = future.result()
        except Exception as err:  # noqa: BLE001 - counted, not raised
            self.expect(False, f"error: {type(err).__name__}")
            return None
        if not self.expect(same_outputs(response.outputs, expected),
                           "mismatch"):
            return None
        return response

    def window(self, window: loadgen.Window, references: list) -> list:
        """Responses of a window, ``None`` where the operation failed."""
        return [self.response(future, references[chosen])
                for future, chosen in zip(window.futures, window.which)]


def reference_outputs(workload: spec.Workload, model: str, config,
                      pool: list, checker: Checker, seed: int,
                      corrupt: bool) -> list:
    """What a solo ``CompiledModel.run`` on a separate numpy compile of a
    freshly built graph answers for every pooled request; the optimized
    graph is also checked once against the raw one."""
    graph = drive.build_graph(model, config)
    compiled = repro.compile(
        graph, drive.compile_options(workload, graph, "numpy"))
    report = verify_equivalence(graph, compiled.graph, seeds=(seed,))
    checker.expect(report.passed, "optimized graph differs from raw graph")
    references = [
        {name: value.copy() for name, value in compiled.run(
            repro.InferenceRequest(inputs=tensors)).outputs.items()}
        for tensors in pool]
    if corrupt:  # the self-test's proof that the check can fail
        for outputs in references:
            first = next(iter(outputs.values()))
            first.view(np.uint8).reshape(-1)[0] ^= 0x01
    return references


def hygiene(checker: Checker, threads_before: int, children_before: int,
            report=None, submitted: int = 0, served: int = 0) -> None:
    """Leak and bookkeeping checks after ``close()``; each one that does
    not hold is a failed operation."""
    if report is not None:
        checker.expect(report.requests == served,
                       "ServiceReport.requests != responses received")
        checker.expect(
            report.requests + report.failed + report.expired
            + report.cancelled == submitted,
            "ServiceReport counters do not add up to submitted")
    checker.expect(threading.active_count() == threads_before,
                   "threads left after close()")
    checker.expect(
        len(multiprocessing.active_children()) == children_before,
        "child processes left after close()")
    checker.expect(not active_segments(),
                   "shared-memory segments left after close()")


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    reaped child (the parallel workload's worker), in MB."""
    usage = resource.getrusage
    return (usage(resource.RUSAGE_SELF).ru_maxrss
            + usage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def window_plan(workload: spec.Workload, args) -> dict:
    """Window sizes and round count for this run.

    A round is one open window and one closed window, both as short as
    their sample counts allow (see ``WINDOW_S``); ``--seconds`` is spent
    on whole rounds, five at least, after one discarded warm-up round.  A
    traced run spends a third of that, on four rounds at least because
    every other one is traced, and the rest on replaying the layers.
    ``cold_start`` has no arrival schedule: a round is a fixed number of
    whole passes over the models.
    """
    if args.smoke:
        return dict(open_ops=60, closed_s=0.15, passes=1, warmup=False,
                    rounds=2 if args.trace else 1)
    budget = args.seconds / 3 if args.trace else args.seconds
    if not workload.rate:
        round_s = COLD_ROUND_PASSES * COLD_PASS_NOMINAL_S
        return dict(passes=COLD_ROUND_PASSES,
                    rounds=max(2, round(budget / round_s)))
    open_ops = max(OPEN_WINDOW_OPS, math.ceil(workload.rate * WINDOW_S))
    round_s = open_ops / workload.rate + WINDOW_S
    return dict(open_ops=open_ops, closed_s=WINDOW_S, warmup=True,
                rounds=max(4 if args.trace else 5, int(budget / round_s) - 1))


# ---------------------------------------------------------------------------
# the four serving workloads
# ---------------------------------------------------------------------------

def warm_service(service, workload: spec.Workload, signature,
                 seed: int) -> int:
    """Make every variant the traffic will touch answer once: a burst per
    power-of-two batch bucket and, under a symbolic compile, one request
    per extent.  Returns how many requests that took."""
    top = spec.MAX_BATCH_SIZE
    extents = [1 if workload.max_extent else None] * top \
        + list(range(2, workload.max_extent + 1))
    requests = [repro.InferenceRequest(inputs=tensors)
                for tensors in loadgen.request_pool(
                    signature, loadgen.stream(seed, 1), extents)]
    sent = 0
    size = top
    while size >= 1:
        for _ in range(5):  # a stall can split a burst; try again
            futures = [service.submit(r) for r in requests[:size]]
            sent += size
            sizes = {f.result(loadgen.WINDOW_TIMEOUT_S).batch_size
                     for f in futures}
            if sizes == {size}:
                break
        size //= 2
    for request in requests[top:]:
        service.submit(request).result(loadgen.WINDOW_TIMEOUT_S)
    return sent + len(requests) - top


def open_round(window: loadgen.Window, responses: list) -> dict:
    ok = [i for i, response in enumerate(responses) if response is not None]
    due, sent, done = window.due, window.sent, window.done
    latency = [(done[i] - due[i]) * 1e3 for i in ok]
    lateness = [(sent[i] - due[i]) * 1e3 for i in range(len(sent))]
    return {
        "open_ops": len(responses),
        "latency_p50_ms": loadgen.percentile(latency, 50),
        "latency_p95_ms": loadgen.percentile(latency, 95),
        "loadgen.latency_p99_ms": loadgen.percentile(latency, 99),
        "loadgen.lateness_p99_ms": loadgen.percentile(lateness, 99),
        "loadgen.offered_rps": len(due) / (due[-1] - window.start),
        "loadgen.achieved_rps": len(ok) / (window.end - window.start),
        "loadgen.backlog_end": window.backlog_end,
    }


def serving(workload: spec.Workload, args, tracer: Tracer | None) -> dict:
    checker = Checker()
    threads_before = threading.active_count()
    children_before = len(multiprocessing.active_children())
    (model, config), = workload.models
    graph = drive.build_graph(model, config)
    started = time.perf_counter()
    service = repro.serve(graph, drive.serve_options(workload, graph))
    standup_ms = (time.perf_counter() - started) * 1e3
    signature = service.program.input_signature
    submitted = served = warm_service(service, workload, signature,
                                      args.seed)
    setup_s = time.time() - args.spawned
    if args.role == "setup":
        service.close()
        return {"setup_s": setup_s}

    rng = loadgen.stream(args.seed, 0)
    extents = loadgen.balanced_extents(rng, workload.max_extent, POOL_SIZE)
    pool = loadgen.request_pool(signature, rng, extents)
    requests = [repro.InferenceRequest(inputs=tensors) for tensors in pool]
    references = reference_outputs(workload, model, config, pool, checker,
                                   args.seed, args.corrupt_reference)

    plan = window_plan(workload, args)
    open_ops = plan["open_ops"]
    harvest = layers.Harvest(tracer, steady=True) \
        if tracer is not None else None
    rounds = []

    def submit_spans(first_id: int):
        def on_submit(i, before, after, _add=tracer.add):
            _add("api.submit", before, after, None, first_id + i)
        return on_submit

    for index in range(-1 if plan["warmup"] else 0, plan["rounds"]):
        warmup = index < 0
        # In a traced run every other round is traced; the rest give the
        # untraced numbers the tracing overhead is taken against.
        traced = tracer is not None and not warmup and index % 2 == 0
        which = loadgen.picks(loadgen.stream(args.seed, 2000 + index),
                              POOL_SIZE, open_ops)
        window = loadgen.open_window(
            service, requests, which,
            loadgen.arrival_offsets(loadgen.stream(args.seed, 1000 + index),
                                    workload.rate, open_ops),
            submit_spans(submitted) if traced else None)
        responses = checker.window(window, references)
        record = open_round(window, responses)
        if traced:  # open windows only: these fields explain latency_*
            harvest.window(window, responses, submitted, extents)
        submitted += len(responses)
        served += len(responses) - responses.count(None)

        window = loadgen.closed_window(
            service, requests, which, plan["closed_s"], CLOSED_WINDOW_OPS,
            spec.CLOSED_LOOP_OUTSTANDING,
            submit_spans(submitted) if traced else None)
        responses = checker.window(window, references)
        submitted += len(responses)
        good = len(responses) - responses.count(None)
        served += good
        record.update({
            "closed_ops": good, "traced": traced,
            "throughput_rps": good / max(window.end - window.start, 1e-6)})
        if not warmup:
            rounds.append(record)
        # Before the next window allocates: keeps peak_rss_mb level.
        del window, responses

    started = time.perf_counter()
    service.close()
    close_ms = (time.perf_counter() - started) * 1e3
    report = service.report()
    hygiene(checker, threads_before, children_before, report,
            submitted=submitted, served=served)
    per_layer = None
    if tracer is not None:
        totals = layers.ServiceTotals()
        totals.add(report, standup_ms, close_ms)
        per_layer = layers.per_layer(
            workload, args, tracer, rounds, harvest, totals, checker,
            emission_count())
    return summarize(workload, args, rounds, setup_s, checker, per_layer)


# ---------------------------------------------------------------------------
# cold start
# ---------------------------------------------------------------------------

def cold_start(workload: spec.Workload, args, tracer: Tracer | None) -> dict:
    checker = Checker()
    threads_before = threading.active_count()
    children_before = len(multiprocessing.active_children())
    perf = time.perf_counter
    pools: dict[str, list] = {}
    picks = loadgen.stream(args.seed, 2000)
    operations = 0
    harvest = totals = None
    if tracer is not None:
        harvest = layers.Harvest(tracer, steady=False)
        totals = layers.ServiceTotals()

    def one_pass(traced: bool) -> list:
        """One cold start per model; ``(model, pick, response or error,
        seconds)`` rows.  A fresh graph misses every program cache."""
        nonlocal operations
        rows = []
        for model, config in workload.models:
            request_id = operations
            operations += 1
            t0 = perf()
            graph = drive.build_graph(model, config)
            t1 = perf()
            if model not in pools:  # untimed: the benchmark's own work
                pools[model] = [
                    repro.InferenceRequest(inputs=tensors)
                    for tensors in loadgen.request_pool(
                        drive.graph_signature(graph),
                        loadgen.stream(args.seed, len(pools) + 10),
                        [None] * COLD_POOL_SIZE)]
            pick = int(picks.integers(0, COLD_POOL_SIZE))
            request = pools[model][pick]
            t2 = perf()
            try:
                service = repro.serve(graph, backend=workload.backend)
                t3 = perf()
                try:
                    outcome = service.submit(request).result(
                        loadgen.WINDOW_TIMEOUT_S)
                finally:
                    t4 = perf()
                    service.close()
            except Exception as err:  # noqa: BLE001 - a failed operation
                outcome = err
                t3 = t4 = perf()
            t5 = perf()
            rows.append((model, pick, outcome, (t1 - t0) + (t5 - t2)))
            if traced and not isinstance(outcome, BaseException):
                root = tracer.add("request", t0, t5, None, request_id)
                tracer.add("models.build", t0, t1, root, request_id)
                tracer.add("api.standup", t2, t3, root, request_id)
                tracer.add("api.close", t4, t5, root, request_id)
                harvest.take(outcome, t3, t4,
                             tracer.add("api.request", t3, t4, root,
                                        request_id), request_id)
                totals.add(service.report(), (t3 - t2) * 1e3,
                           (t5 - t4) * 1e3)
        return rows

    first_pass = one_pass(False)  # warm-up: part of set-up, not of a round
    setup_s = time.time() - args.spawned
    if args.role == "setup":
        return {"setup_s": setup_s}

    references = {}
    for index, (model, config) in enumerate(workload.models):
        references[model] = reference_outputs(
            workload, model, config,
            [request.inputs for request in pools[model]], checker,
            args.seed, args.corrupt_reference and index == 0)

    def check(rows: list) -> list[float]:
        latencies = []
        for model, pick, outcome, seconds in rows:
            expected = references[model][pick]
            if isinstance(outcome, BaseException):
                checker.expect(False, f"error: {type(outcome).__name__}")
            elif checker.expect(same_outputs(outcome.outputs, expected),
                                "mismatch"):
                latencies.append(seconds * 1e3)
        return latencies

    check(first_pass)
    plan = window_plan(workload, args)
    rounds = []
    for index in range(plan["rounds"]):
        traced = tracer is not None and index % 2 == 0
        rows = [row for _ in range(plan["passes"])
                for row in one_pass(traced)]
        spent = sum(row[3] for row in rows)
        latencies = check(rows)
        rounds.append({
            "open_ops": len(rows), "closed_ops": len(rows), "traced": traced,
            "latency_p50_ms": loadgen.percentile(latencies, 50),
            "latency_p95_ms": loadgen.percentile(latencies, 95),
            "loadgen.latency_p99_ms": loadgen.percentile(latencies, 99),
            "throughput_rps": len(latencies) / spent,
            # One client that sends when the last reply is in: the load
            # offered is the load achieved.
            "loadgen.offered_rps": len(latencies) / spent,
            "loadgen.achieved_rps": len(latencies) / spent,
        })
    emissions = emission_count()
    hygiene(checker, threads_before, children_before)
    per_layer = None
    if tracer is not None:
        per_layer = layers.per_layer(
            workload, args, tracer, rounds, harvest, totals, checker,
            emissions)
    return summarize(workload, args, rounds, setup_s, checker, per_layer)


# ---------------------------------------------------------------------------
# the result record
# ---------------------------------------------------------------------------

def validity(workload: spec.Workload, rounds: list) -> list[str]:
    """Why the run's latency numbers cannot be trusted, if they cannot:
    the generator ran late, the offered load was not absorbed, or the
    queue grew from round to round."""
    if not workload.rate:
        return []
    reasons = []
    gap_ms = 1e3 / workload.rate
    late = loadgen.across_rounds(rounds, "loadgen.lateness_p99_ms")
    if late > 10 * gap_ms:
        reasons.append(f"generator lateness p99 {late:.3f} ms exceeds ten "
                       f"mean inter-arrival gaps ({10 * gap_ms:.3f} ms)")
    offered = loadgen.across_rounds(rounds, "loadgen.offered_rps")
    achieved = loadgen.across_rounds(rounds, "loadgen.achieved_rps")
    if achieved < 0.97 * offered:
        reasons.append(f"achieved {achieved:.1f} rps is below 97% of the "
                       f"offered {offered:.1f} rps")
    backlog = [r["loadgen.backlog_end"] for r in rounds]
    third = max(1, len(backlog) // 3)
    early, late = median(backlog[:third]), median(backlog[-third:])
    if late > 2 * spec.MAX_BATCH_SIZE and late > 2 * early:
        reasons.append(f"backlog grew over the run: {early:.0f} in its "
                       f"first third, {late:.0f} in its last")
    return reasons


def summarize(workload: spec.Workload, args, rounds: list, setup_s: float,
              checker: Checker, per_layer: dict | None) -> dict:
    open_ops = [r["open_ops"] for r in rounds]
    closed_ops = [r["closed_ops"] for r in rounds]

    def of_rounds(name, unit, samples):
        return {"value": loadgen.across_rounds(rounds, name,
                                               spec.WINDOWED[name]),
                "unit": unit, "rounds": len(rounds),
                "samples_per_round": min(samples)}

    once = {"rounds": 1, "samples_per_round": 1}
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s", **once},
        "latency_p50_ms": of_rounds("latency_p50_ms", "ms", open_ops),
        "latency_p95_ms": of_rounds("latency_p95_ms", "ms", open_ops),
        "throughput_rps": of_rounds("throughput_rps", "ops/s", closed_ops),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", **once},
    }
    # One 60-request smoke window is all edge; validity needs full ones.
    reasons = [] if args.smoke else validity(workload, rounds)
    return {
        "workload": workload.name, "seed": args.seed,
        "trace": bool(args.trace), "smoke": bool(args.smoke),
        "rate_rps": workload.rate, "rounds": rounds,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "attempted": checker.attempted, "failed": checker.failed,
        "failures": dict(checker.failures),
        "valid": not reasons, "invalid_reasons": reasons,
        "host_noise_pct": loadgen.host_noise_pct(
            rounds, spec.WINDOWED["latency_p50_ms"]),
        "host": host_fingerprint(),
    }


def main(args) -> dict:
    """Run one workload in this process; returns its result record."""
    workload = spec.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace and args.role == "measure" else None
    run = serving if workload.rate else cold_start
    result = run(workload, args, tracer)
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
        result["trace_file"] = args.trace_out
        result["spans"] = len(tracer.spans)
    sys.stdout.flush()
    return result
