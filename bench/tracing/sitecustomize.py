"""Starts the span tracer in every Python process of a traced invocation.

The benchmark puts this directory first on PYTHONPATH and names the trace
directory in FORKWORK_TRACE_DIR; the interpreter imports this module at
start-up, in the CLI process and in any spawned pool worker alike.
"""

import os

if os.environ.get("FORKWORK_TRACE_DIR"):
    import span_tracer

    span_tracer.install(os.environ["FORKWORK_TRACE_DIR"])
