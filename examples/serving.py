"""Serving: repro.compile / repro.serve - the typed service-layer API.

``repro.compile`` turns a model into a CompiledModel serving typed
InferenceRequest/InferenceResponse objects (compile once, run many).
``repro.serve`` puts the same compiled model behind a dynamic
micro-batching scheduler: concurrent submit() calls are coalesced into
one backend invocation on the lowered-program path, so dispatch is paid
per micro-batch instead of per request.

Run:  python examples/serving.py
"""

import threading

import repro
from repro.models import build_smoke

# 1. Compile once.  Programs are cached process-wide on the graph's
#    *content fingerprint*: rebuilding an identical graph reuses the
#    program; each compile gets its own session (stats, worker pool).
graph = build_smoke("Pythia")
model = repro.compile(graph)
program = model.program
print(f"Pythia (smoke): {len(model.graph.nodes)} nodes lowered to "
      f"{program.num_steps} steps")
print(f"admission spec: {model.input_signature}")
assert repro.compile(build_smoke("Pythia")).program is program

# 2. Typed request in, typed response out - with per-request RunStats.
request = model.make_request(seed=0)
response = model.run(request)
print(f"\nrun: outputs={sorted(response.outputs)}  "
      f"wall={response.stats.wall_s * 1e3:.3f} ms  "
      f"planned peak={response.stats.pool.peak_bytes} B")

# 3. Malformed requests fail at admission with an error naming the
#    tensor - including wrong-*name* tensors, never deep inside a kernel.
try:
    model.run({"not_a_tensor": request.inputs[next(iter(request.inputs))]})
except ValueError as err:
    print(f"rejected: {err}")

# 4. repro.serve: a scheduler coalesces concurrent traffic into
#    micro-batches.  Four client threads submit 32 requests; the worker
#    never waits for a batch to fill - each batch is whatever queued
#    while the previous one ran - and drains them through one backend
#    invocation per batch: a stacked batch-N kernel pass when the
#    program is batch-stackable (Pythia is), the sequential run_many
#    path otherwise.
service = repro.serve(graph, max_batch_size=8)
responses = []
record = responses.append
lock = threading.Lock()


def client(seeds):
    futures = [service.submit(model.make_request(seed=s)) for s in seeds]
    for future in futures:
        response = future.result(timeout=60)
        with lock:
            record(response)


threads = [threading.Thread(target=client, args=(range(i, 32, 4),))
           for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()

report = service.report()
print(f"\nscheduler: {report.requests} requests in {report.batches} "
      f"micro-batches (mean {report.mean_batch_size:.1f}/batch, largest "
      f"{report.largest_batch}, queue peak {report.queue_depth_peak}, "
      f"{report.stacked_batches} stacked kernel passes)")
print(f"executor-side throughput: {report.throughput_rps:,.0f} req/s")
assert len(responses) == 32
assert report.largest_batch <= 8
assert any(r.batch_size > 1 for r in responses), "burst must coalesce"
assert report.stacked_batches > 0, "multi-request batches must stack"
assert any(r.stats.batched for r in responses)

# 5. Graceful shutdown: close() drains the queue, then joins the worker.
pending = [service.submit(model.make_request(seed=s)) for s in range(6)]
service.close()
assert all(f.done() for f in pending)
print(f"closed after draining: {service.report().requests} requests total, "
      f"queue depth {service.report().queue_depth}")

# 6. Async serving + the multi-process backend.  submit_async() wraps
#    the same scheduler in asyncio awaitables; backend="parallel" serves
#    each micro-batch as stacked shards across a pool of forked worker
#    processes, tensors crossing through shared memory.  Outputs stay
#    byte-identical to the in-process path.
import asyncio

vit_graph = build_smoke("ViT")
vit = repro.compile(vit_graph)
expected = [vit.run(vit.make_request(seed=s)) for s in range(64)]

with repro.serve(vit_graph,
                 repro.ServeOptions(backend="parallel", workers=4,
                                    max_batch_size=32)) as parallel:

    async def burst():
        calls = [parallel.submit_async(vit.make_request(seed=s))
                 for s in range(64)]
        return await asyncio.gather(*calls)

    async_responses = asyncio.run(burst())
    parallel_report = parallel.report()

for expect, got in zip(expected, async_responses):
    for name, value in expect.outputs.items():
        assert got.outputs[name].tobytes() == value.tobytes(), name
print(f"\nparallel backend: {len(async_responses)} async requests, "
      f"{parallel_report.stacked_batches} stacked shard passes, "
      f"{parallel_report.worker_restarts} worker restarts; outputs "
      f"byte-identical to in-process serving")

# 7. Every program runs as one generated Python function, emitted at
#    compile time (inspectable, like the pseudo-OpenCL kernels);
#    "codegen" is another name for that one runner - same outputs.
from repro.runtime import program_source

same = repro.compile(graph, repro.CompileOptions(backend="codegen"))
same_response = same.run(same.make_request(seed=0))
for name, value in response.outputs.items():
    assert (same_response.outputs[name] == value).all(), name
source = program_source(same.program)
print(f"\nemitted runner: {same.program.num_steps} steps fused into "
      f"{len(source.splitlines())} lines of generated Python; outputs match")
print("\n".join(source.splitlines()[:10]))
