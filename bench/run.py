"""Benchmark of the drinfeld library's exact-arithmetic workloads.

    python3 bench/run.py --workload eis-rank --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones of
``spans.LAYER_METRICS``.  Times are scaled to a fixed machine speed by
``speed``.  See ``bench/README.md``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_KERNELS = 10      # speed kernels before a set-up sample, and after

# One set-up sample in a fresh interpreter.
_SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:3]
import run
print(run.setup_sample())
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_sample():
    """Import the library and fill its module-level tables.  Returns the
    seconds at the reference speed, from speed kernels run before and
    after."""
    kernels = [speed.kernel() for _ in range(SETUP_KERNELS)]
    start = perf_counter()
    import workloads
    workloads.warm()
    seconds = perf_counter() - start
    kernels += [speed.kernel() for _ in range(SETUP_KERNELS)]
    return seconds * speed.scale(kernels)


def child_setup_sample():
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, str(BENCH), str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


class Runner:
    """Runs rounds of one workload's operations and checks every output.
    ``sampler`` is the running ``speed.Sampler``."""

    def __init__(self, ops, digest, sampler):
        self.ops = ops
        self.digest = digest
        self.sampler = sampler
        self.times = {op.label: [] for op in ops}    # scaled seconds
        self.raw = 0.0                               # unscaled seconds
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def _fail(self, label, why):
        self.failed += 1
        print("FAIL %s: %s" % (label, why), file=sys.stderr)

    def round(self, tracer=None):
        """One round, starting at a different operation each time so that
        no operation always runs first.  Returns the scaled seconds the
        library spent in the round's operations; checks are not timed."""
        sampler = self.sampler
        first_sample = len(sampler.samples)
        n = len(self.ops)
        timed = []
        for i in range(n):
            op = self.ops[(self.rounds + i) % n]
            self.attempted += 1
            spent = sampler.spent
            start = perf_counter()
            try:
                if tracer is not None:
                    tracer.op += 1
                    tracer.active = True
                out = op.run()
            except Exception:
                self._fail(op.label, traceback.format_exc())
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            timed.append((op.label,
                          perf_counter() - start - (sampler.spent - spent)))
            try:
                ok, text = op.check(out)
            except Exception:
                self._fail(op.label, traceback.format_exc())
                continue
            d = self.digest(text)
            if op.label not in self.digests:
                print("op %s digest %s %s" % (op.label, d,
                                             "pass" if ok else "FAIL"))
            first = self.digests.setdefault(op.label, d)
            if not ok:
                self._fail(op.label, "check failed, digest %s" % d)
            elif first != d:
                self._fail(op.label, "output digest %s differs from %s"
                           % (d, first))
        self.rounds += 1
        factor = speed.scale(sampler.samples[first_sample:]
                             or [speed.kernel()])
        for label, seconds in timed:
            self.raw += seconds
            self.times[label].append(seconds * factor)
        return factor * sum(seconds for _, seconds in timed)

    def wall_s(self):
        """Seconds per round: the median time of each operation, summed."""
        return sum(statistics.median(t) for t in self.times.values() if t)

    def result(self, metrics):
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def measure_untraced(runner, seconds):
    """Rounds until another round would end past ``seconds``; at least one.
    Rounds are not split, so every run times whole rounds."""
    start = perf_counter()
    while True:
        runner.round()
        elapsed = perf_counter() - start
        if elapsed * (runner.rounds + 1) / runner.rounds > seconds:
            return


def measure_traced(runner, seconds, spans):
    """Alternate untraced and traced rounds, as long as another pair fits
    in ``seconds``; at least one pair.  Each traced round gets a fresh
    tracer, installed only around that round."""
    untraced, traced, per_round = [], [], []
    start = perf_counter()
    while True:
        untraced.append(runner.round())
        tracer = spans.Tracer()
        with tracer:
            traced.append(runner.round(tracer))
        per_round.append(spans.round_metrics(tracer))
        elapsed = perf_counter() - start
        pairs = len(traced)
        if elapsed * (pairs + 1) / pairs > seconds:
            break
    values = {name: statistics.median(r[name] for r in per_round)
              for name in per_round[0]}
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(untraced) - 1)
    return {name: {"value": values[name], "unit": spec[0]}
            for name, spec in spans.LAYER_METRICS.items()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "drinfeld" / "__init__.py").is_file():
        print("error: no library at %s; run from the root of a checkout"
              % (SRC / "drinfeld"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    setup = [setup_sample()]
    setup += [child_setup_sample() for _ in range(SETUP_SAMPLES - 1)]
    import spans
    import workloads

    try:
        inputs, ops = workloads.build_round(args.workload, args.seed)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("workload %s seed %d inputs %s"
          % (args.workload, args.seed, json.dumps(inputs, sort_keys=True)))
    with speed.Sampler() as sampler:
        runner = Runner(ops, workloads.digest, sampler)
        if args.trace:
            metrics = measure_traced(runner, args.seconds, spans)
        else:
            measure_untraced(runner, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "wall_s": {"value": runner.wall_s(), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            }
    print("rounds %d fail_frac %.6f unscaled_round_s %.4f kernel_mean_s %.6f"
          % (runner.rounds, runner.failed / runner.attempted,
             runner.raw / runner.rounds, statistics.fmean(sampler.samples)))
    print(json.dumps(runner.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
