"""One measured carpetcurl call in a fresh, single-threaded process.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py [--trace SPANS.json] -- verify --out DIR ...

Times ``import carpetcurl.cli`` (nothing else is imported before the clock
starts), then ``carpetcurl.cli.main(argv)``, and reads the process's peak
resident memory.

The speed of a shared virtual CPU drifts by up to 2x over seconds to minutes,
so an untraced call is sampled with a fixed probe, ``probe_kernel``, every
``PROBE_PERIOD_S`` seconds, from a ``SIGALRM`` handler in the main thread (no
thread is started).  The probe's own time is subtracted from the call's wall
time; ``run.py`` turns the samples into a speed factor.

With ``--trace`` the layer tracer is installed between the import and the
call (and no probe runs), its spans are written to the given file afterwards
and the per-layer metrics are added to the result.  The last line of standard
output is one JSON object with the measurements and the CLI's exit code.
"""

import sys
import time

PROBE_PERIOD_S = 0.1


def probe_kernel():
    """A fixed piece of interpreter work: integer arithmetic, a dict, tuples."""
    acc, table = 1, {}
    for i in range(1, 3000):
        acc = (acc * (i + 7) + i) % 1000000007
        table[i % 97] = (acc, str(i))
    return acc


def time_probe():
    t = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - t


class SpeedProbe:
    """Times ``probe_kernel`` every ``period`` seconds while the block runs."""

    def __init__(self, period):
        self.period = period
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append(time_probe())

    def __enter__(self):
        import signal  # not at the top: it would load modules before the import is timed
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        import signal
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def main(args):
    t0 = time.perf_counter()
    from carpetcurl import cli
    setup_s = time.perf_counter() - t0

    import json
    import resource

    result = {"setup_s": setup_s}
    if args == ["--import-only"]:
        print(json.dumps(result))
        return 0
    trace_path = None
    if args[:1] == ["--trace"]:
        trace_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        print("usage: child.py --import-only | [--trace FILE] -- ARGV...", file=sys.stderr)
        return 2
    argv = args[1:]

    if trace_path is not None:
        from tracer import Tracer
        tracer = Tracer().install()
        t1 = time.perf_counter()
        code = cli.main(argv)
        result["verify_s"] = time.perf_counter() - t1
        result["call_probes"] = []
    else:
        with SpeedProbe(PROBE_PERIOD_S) as probe:
            t1 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t1
        result["verify_s"] = wall - sum(probe.samples)
        if not probe.samples:  # a call shorter than one period
            probe.samples.append(time_probe())
        result["call_probes"] = probe.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["exit_code"] = code
    if trace_path is not None:
        tracer.write(trace_path)
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
