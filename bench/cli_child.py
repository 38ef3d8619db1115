"""Run one sgring CLI invocation with every traced function wrapped.

    python3 bench/cli_child.py TRACE_FILE OP_ID PARENT_SPAN -- <sgring arguments>

Times the import of sgring.cli, installs the tracer, runs cli.main, and
writes the spans plus import, cli.main, CPU and wall time to TRACE_FILE.
Root spans name PARENT_SPAN, the benchmark's op span, as their parent.  SIGTERM
(sent when the benchmark's op timeout expires) unwinds the computation so
the spans of the interrupted call are still written.
"""
import os
import signal
import sys
from time import perf_counter


class Terminated(BaseException):
    """Raised inside the computation when the parent ends the op."""


def _terminate(signum, frame):
    raise Terminated()


def main() -> int:
    trace_file, op_id, parent, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: cli_child.py TRACE_FILE OP_ID PARENT_SPAN -- ARGS")
    wall0 = perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__))))
    import tracing

    t0 = perf_counter()
    from sgring import cli
    import_s = perf_counter() - t0
    tracer = tracing.Tracer(proc=os.getpid(), root_parent=int(parent))
    tracer.op = int(op_id)
    tracer.install()
    code = 0
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    except Terminated:
        code = 128 + signal.SIGTERM
    finally:
        main_s = perf_counter() - t0
        tracer.uninstall()
        data = tracer.data()
        times = os.times()
        data["cli"] = {"import_s": import_s, "main_s": main_s,
                       "cpu_s": times.user + times.system,
                       "wall_s": perf_counter() - wall0}
        sys.stdout.flush()
        tracing.write(trace_file, data)
    return code


if __name__ == "__main__":
    sys.exit(main())
