"""Run one bergman-lab command in a fresh interpreter and report its costs.

Usage: worker.py RESULT_JSON T_SPAWN TRACE ARGV...

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes), so the set-up time runs
from interpreter start until ``bergman_lab.cli`` is imported.  With TRACE
set to 1 the traced functions are wrapped before the command runs and
their spans are written to RESULT_JSON with the timings.  The program
itself receives only ARGV; its exit code is passed through.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, t_spawn, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    import bergman_lab.cli as cli

    setup_s = time.monotonic() - t_spawn
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.call(spans.ROOT, cli.main, (argv,))
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "main_s": main_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
