"""One pass of a workload, in a fresh interpreter started by run.py.

Reads a JSON spec on stdin, builds the workload's root systems, then calls
``bruhatkit.cli.main(argv)`` for every op with stdout and stderr captured,
and writes one JSON result line to stdout.  Set-up time runs from the
``PERFBENCH_T0`` timestamp, which the parent takes just before spawning this
process, to the end of set-up; both sides read the same monotonic clock.

Right before, right after and, on a timer signal, every YARDSTICK_INTERVAL_S
during set-up and each op, the worker times ``yardstick()``, a fixed piece of
pure-Python work.  The result gives each timed phase its wall time, with the
yardsticks' own time taken out, and the mean yardstick time measured around
and during it, from which run.py corrects the phase for the speed the host
gave the process at that moment.
"""

import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time

#: Seconds between yardsticks while a timed phase runs.
YARDSTICK_INTERVAL_S = 0.004
#: Yardsticks timed right before and right after each timed phase.
YARDSTICKS_AROUND = 3
_YARDSTICK_TABLE = {(i, i * 7 % 13): i for i in range(300)}


def yardstick() -> float:
    """Wall time of a fixed piece of work that does not touch bruhatkit.

    One untimed pass first brings the table back into the caches, so that
    the time does not depend on what the program left in them."""
    s = 0
    for k, v in _YARDSTICK_TABLE.items():
        s += v ^ k[1]
    t = time.perf_counter()
    for _ in range(4):
        for k, v in _YARDSTICK_TABLE.items():
            s += v ^ k[1]
    return time.perf_counter() - t


class Yardsticks:
    """Yardstick timings taken before, on a timer during, and after a
    timed phase."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        # The program's own threads would slow the yardstick down with
        # contention that belongs to the program, so that is not sampled.
        if threading.active_count() > 1:
            return
        t = time.perf_counter()
        self.samples.append(yardstick())
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        self.samples = [yardstick() for _ in range(YARDSTICKS_AROUND)]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, YARDSTICK_INTERVAL_S,
                         YARDSTICK_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Mean yardstick time of the phase, and the time the timer's
        yardsticks took out of it."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples += [yardstick() for _ in range(YARDSTICKS_AROUND)]
        return statistics.fmean(self.samples), self.spent


def main() -> None:
    t0 = float(os.environ["PERFBENCH_T0"])
    yardsticks = Yardsticks()
    yardsticks.start()
    spec = json.load(sys.stdin)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import bruhatkit.cli as cli
    from bruhatkit import rootsys
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"bruhatkit was imported from {cli.__file__}")

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    for family, rank in spec["systems"]:
        rootsys.root_system(family, rank)
    setup_s = time.perf_counter() - t0
    setup_yardstick_s, spent = yardsticks.stop()
    setup_s -= spent
    if tracer is not None:
        build_s = tracer.total("rootsys.root_system")
        caches_before = tracer.cache_counts()

    real_stdout, real_stderr = sys.stdout, sys.stderr
    results = []
    for argv in spec["ops"]:
        out = sys.stdout = io.StringIO()
        sys.stderr = io.StringIO()
        yardsticks.start()
        t = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an op that raises is a failed op
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdout, sys.stderr = real_stdout, real_stderr
        seconds = time.perf_counter() - t
        yardstick_s, spent = yardsticks.stop()
        results.append((code, seconds - spent, yardstick_s, out.getvalue()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.restore()
        layers = tracer.metrics(caches_before, tracer.cache_counts(), build_s)
        layers["untraced_functions"] = tracer.untraced
        if spec.get("spans"):
            with open(spec["spans"], "w", encoding="utf-8") as f:
                for span in tracer.span_records():
                    f.write(json.dumps(span) + "\n")
            layers["spans"] = len(tracer.span_records())
            layers["dropped_spans"] = tracer.dropped_spans

    keep = set(spec["keep"])
    ops = []
    for k, (code, seconds, yardstick_s, text) in enumerate(results):
        data = text.encode("utf-8")
        ops.append({"exit": code, "ms": seconds * 1000,
                    "yardstick_us": yardstick_s * 1e6,
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "bytes": len(data),
                    "text": text if k in keep else None})
    json.dump({"setup_s": setup_s,
               "setup_yardstick_us": setup_yardstick_s * 1e6,
               "peak_rss_mb": peak_rss_mb, "ops": ops, "layers": layers},
              real_stdout)
    real_stdout.write("\n")


if __name__ == "__main__":
    main()
