"""Shared fixtures: small graphs that exercise every optimizer path."""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

import repro
from repro.api import ServeOptions, Service
from repro.api.options import merge_options
from repro.ir import GraphBuilder
from repro.runtime import FaultPlan, FaultRule



def pytest_addoption(parser):
    parser.addoption(
        "--numpy-kernels", action="store_true",
        help="bind no native kernel: every step runs the numpy reference "
             "kernels (CI reruns the parity suites this way)")


def pytest_configure(config):
    if config.getoption("--numpy-kernels"):
        from repro.runtime import native
        native._CACHE["library"] = "numpy kernels only (--numpy-kernels)"


class Scheduling:
    """Deterministic scheduler set-ups.

    Batching is work-conserving - the worker takes whatever is queued
    the moment it is free - so a test that needs requests to *sit* in
    the queue must park them explicitly; nothing may lean on timing.
    """

    BLOCKER = "blocker"

    def __init__(self) -> None:
        self._services: list[Service] = []

    def parked(self, model, options: ServeOptions | None = None,
               **overrides) -> Service:
        """A service whose worker has not started: submitted requests
        queue untouched until :meth:`release` (or the test drives
        ``_next_batch`` / ``_execute`` by hand)."""
        options = merge_options(ServeOptions, options, overrides)
        service = Service(
            repro.compile(model, options.resolved_compile()), options,
            _start=False)
        self._services.append(service)
        return service

    def release(self, service: Service) -> None:
        """Start a parked service's worker on its pre-loaded queue."""
        service._worker = service._spawn_worker()

    def blocked(self, model, options: ServeOptions | None = None,
                hold_ms: float = 250.0, **overrides):
        """A running service whose worker is busy for ``hold_ms`` inside
        a latency-faulted ``"blocker"`` request; returns ``(service,
        blocker_future)``.  Whatever the test submits before the
        blocker resolves is, by construction, queued behind it."""
        options = merge_options(ServeOptions, options, overrides)
        plan = options.faults or FaultPlan()
        rule = FaultRule(kind="latency", request_id=self.BLOCKER,
                         latency_ms=hold_ms)
        service = self.parked(model, replace(
            options, faults=replace(plan, rules=plan.rules + (rule,))))
        blocker = service.submit(
            service.compiled.make_request(request_id=self.BLOCKER))
        self.release(service)
        give_up = time.monotonic() + 30.0
        while service.queue_depth:  # until the worker has dequeued it
            assert time.monotonic() < give_up, "worker never took the blocker"
            time.sleep(0.0005)
        return service, blocker

    def close(self) -> None:
        for service in self._services:
            service.close()


@pytest.fixture
def scheduling():
    setups = Scheduling()
    yield setups
    setups.close()


@pytest.fixture
def linear_graph():
    """input -> conv -> relu -> reshape -> transpose -> layernorm -> dense."""
    b = GraphBuilder("linear")
    x = b.input("x", (1, 8, 8, 8))
    y = b.conv2d(x, 16, 3, padding=1)
    y = b.relu(y)
    y = b.reshape(y, (1, 16, 64))
    y = b.transpose(y, (0, 2, 1))
    y = b.layernorm(y)
    y = b.dense(y, 32)
    b.output(y)
    return b.finish()


@pytest.fixture
def attention_graph():
    """A miniature attention block with the full qkv choreography."""
    b = GraphBuilder("attention")
    x = b.input("x", (1, 16, 24))
    h = b.layernorm(x)
    qkv = b.dense(h, 72)
    qkv = b.reshape(qkv, (1, 16, 3, 2, 12))
    qkv = b.transpose(qkv, (2, 0, 3, 1, 4))
    q = b.reshape(b.slice_axis(qkv, 0, 0, 1), (2, 16, 12))
    k = b.reshape(b.slice_axis(qkv, 0, 1, 2), (2, 16, 12))
    v = b.reshape(b.slice_axis(qkv, 0, 2, 3), (2, 16, 12))
    attn = b.matmul(q, k, transpose_b=True)
    attn = b.softmax(attn)
    o = b.matmul(attn, v)
    o = b.transpose(o, (1, 0, 2))
    o = b.reshape(o, (1, 16, 24))
    o = b.dense(o, 24)
    b.output(b.add(o, x))
    return b.finish()


@pytest.fixture
def multi_consumer_graph():
    """One producer feeding consumers with different reduction dims."""
    b = GraphBuilder("fanout")
    x = b.input("x", (4, 8, 16))
    y = b.dense(x, 16)
    r1 = b.reduce(y, "reduce_sum", axes=1)   # wants dim 1 contiguous
    r2 = b.reduce(y, "reduce_sum", axes=2)   # wants dim 2 contiguous
    m = b.matmul(y, y, transpose_b=True)     # wants dim 2 contiguous
    b.output(r1)
    b.output(r2)
    b.output(m)
    return b.finish()


@pytest.fixture
def conv_net_graph():
    """Small CNN: conv/bn/relu stacks with a residual."""
    b = GraphBuilder("cnn")
    x = b.input("x", (1, 3, 16, 16))
    y = b.conv2d(x, 8, 3, padding=1, bias=False)
    y = b.batchnorm(y)
    y = b.relu(y)
    z = b.conv2d(y, 8, 3, padding=1, bias=False)
    z = b.batchnorm(z)
    y = b.relu(b.add(y, z))
    y = b.maxpool2d(y, 2)
    y = b.global_avgpool(y)
    y = b.reshape(y, (1, 8))
    b.output(b.dense(y, 10))
    return b.finish()
