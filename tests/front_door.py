"""Serve a bare ``Session`` through the public front door.

A session has no serving methods of its own: every request is admitted
by the one admission function behind ``CompiledModel``.  Imported by
module name (``from front_door import serve_one``) because the suite's
directory is on ``sys.path`` while pytest collects it.
"""

from repro.api.compiled import CompiledModel


def serve_one(session, inputs):
    """One request through the front door: its outputs."""
    return CompiledModel(session).run(inputs).outputs


def serve_batch(session, batch):
    """A micro-batch through the front door: its outputs, in order."""
    return [r.outputs for r in CompiledModel(session).run_batch(batch)]
