"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest bench -q
"""

import cProfile
import inspect
import json
import pstats
import shutil
import signal
import subprocess
import sys
from argparse import Namespace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for _p in (str(BENCH), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import spans       # noqa: E402
import speed       # noqa: E402
import workloads   # noqa: E402


def small_ops():
    """Small instances of every workload's operations, covering all ten
    layers."""
    args = workloads.cli.build_parser().parse_args(["verify"])
    mix = {op.label: op for op in workloads.verify_mix_ops("t^2+t+2")}
    return (workloads.eis_rank_ops("t", N=12, weights=(1, 2))
            + workloads.distribution_ops("t^2+1", "t+1", k=1, N=9)
            + [mix["eigen"], mix["twist-commute"], mix["convolution"]]
            + [workloads.Op("normproj-small",
                            lambda: workloads.cli.suite_normproj(
                                Namespace(**{**vars(args), "precision": 8})),
                            workloads._reports_check)])


def run_all(ops):
    return [op.run() for op in ops]


def digests(ops, outs):
    result = []
    for op, out in zip(ops, outs):
        ok, text = op.check(out)
        assert ok, op.label
        result.append(workloads.digest(text))
    return result


def snapshot():
    """Every attribute of every library namespace and layer class."""
    owners = spans._namespaces()
    owners += [owner for _, _, owner, _, _ in spans._targets()
               if inspect.isclass(owner)]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_wrapper_counts_match_cprofile():
    workloads.warm()
    ops = small_ops()
    run_all(ops)        # fill every module-level cache first
    profile = cProfile.Profile()
    profile.runcall(run_all, ops)
    ncalls = {key: value[1]
              for key, value in pstats.Stats(profile).stats.items()}
    tracer = spans.Tracer()
    originals = {key: raw.__func__ if isinstance(
        raw, (classmethod, staticmethod)) else raw
        for _, key, _, _, raw in spans._targets()}
    with tracer:
        tracer.active = True
        run_all(ops)
        tracer.active = False
    compared = 0
    for key, fn in originals.items():
        code = fn.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno,
                           code.co_name), 0)
        assert tracer.stats[key].calls == want, key
        compared += bool(want)
    assert compared > 100
    totals = tracer.layer_totals()
    assert all(totals[layer][0] > 0 for layer in spans.LAYERS), totals


def test_traced_output_equals_untraced_and_wrappers_are_restored():
    workloads.warm()
    ops = small_ops()
    before = snapshot()
    plain = digests(ops, run_all(ops))
    tracer = spans.Tracer()
    with tracer:
        # forms bound the name at import time; it must see the wrapper too
        assert workloads.forms.moebius_of_series.__wrapped__ is not None
        tracer.active = True
        outs = run_all(ops)
        tracer.active = False
    assert digests(ops, outs) == plain
    after = snapshot()
    assert before.keys() == after.keys()
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        for name, value in attrs.items():
            assert now.get(name) is value, (owner, name)


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == {name: row[:2]
                        for name, row in spans.LAYER_METRICS.items()}
    tracer = spans.Tracer()
    with tracer:
        pass
    row = spans.round_metrics(tracer)
    assert set(row) | {"trace.overhead_frac"} == set(spans.LAYER_METRICS)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eis-rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_sampler_samples_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 3 * speed.INTERVAL_S:
            speed.kernel()
    assert len(sampler.samples) >= 2
    assert 0 < sampler.spent < perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
