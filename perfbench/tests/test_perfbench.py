"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import gzip
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import configs  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from oscdecay import validate_modes  # noqa: E402


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(configs.WORKLOADS))
def test_generator_is_deterministic_and_valid(name):
    workload = configs.WORKLOADS[name]
    pool = configs.generate(workload, 5)
    assert pool == configs.generate(workload, 5)
    assert pool != configs.generate(workload, 6)
    for config in pool:
        modes = validate_modes(config["modes"])
        assert modes.Gamma[0] == 1.0
        assert 0.5 * modes.M <= config["p"] <= 3.0 * modes.M
        assert all(modes.a > 0.0)


@pytest.mark.parametrize("name", sorted(configs.WORKLOADS))
def test_reference_pool_is_the_generated_pool(name):
    workload = configs.WORKLOADS[name]
    with gzip.open(os.path.join(BENCH, "reference", name + ".json.gz"), "rt") as fh:
        reference = json.load(fh)
    assert reference["configs"] == configs.generate(workload, workload.master_seed)
    assert len(reference["expected"]) == workload.pool
    assert all(set(entry) == set(workload.commands) for entry in reference["expected"])


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (child c [2, 3]) and, from two threads,
    # b [5, 7] and d [6, 9], whose overlap counts once
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 7.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 2.0, 3.0])


def synthetic_tracer():
    tracer = spans.Tracer()
    for name, s, e, p in [("cli.main", 0.0, 10.0, -1),
                          ("boost.survival_boosted", 1.0, 5.0, 0),
                          ("specfun.upsilon", 2.0, 3.0, 1),
                          ("specfun.xi_fn", 3.0, 4.0, 1),
                          ("timemap.phi_p", 6.0, 9.0, 0),
                          ("restframe.amplitude_rest", 7.0, 8.0, 4)]:
        idx = tracer.open(name)
        tracer.close(idx)
        tracer.start[idx], tracer.end[idx], tracer.parent[idx] = s, e, p
    return tracer


def test_layer_metrics_on_a_synthetic_trace():
    metrics = spans.layer_metrics(synthetic_tracer())
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["boost.self_s"] == pytest.approx(2.0)
    assert metrics["specfun.self_s"] == pytest.approx(2.0)
    assert metrics["timemap.self_s"] == pytest.approx(2.0)
    assert metrics["restframe.self_s"] == pytest.approx(1.0)
    assert metrics["cli.share"] == pytest.approx(0.3)
    assert metrics["specfun.calls_per_boosted_pt"] == 2.0
    assert metrics["restframe.calls_per_phi_pt"] == 1.0


def test_saved_spans_load_back():
    tracer = synthetic_tracer()
    tracer.counts["quad.evals"] = 7
    path = os.path.join(run.WORK, "test-spans.bin")
    os.makedirs(run.WORK, exist_ok=True)
    tracer.save(path)
    merged = spans.merge([spans.load(path), spans.load(path)])
    os.remove(path)
    assert len(merged.start) == 12
    assert list(merged.parent[6:]) == [-1, 6, 7, 7, 6, 10]
    assert merged.counts["quad.evals"] == 14
    assert spans.layer_metrics(merged)["cli.self_s"] == pytest.approx(6.0)


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |       numpy.core",
        "import time:       200 |       1000 |     numpy",
        "import time:       500 |       1500 |   oscdecay.kinematics",
        "import time:       400 |        400 |         numpy.linalg",
        "import time:       600 |       2000 |       scipy.optimize",
        "import time:       100 |       2100 |   oscdecay.timemap",
        "import time:       400 |       4000 | oscdecay",
    ])
    numpy_s, scipy_s, oscdecay_s = spans.parse_importtime(text)
    assert (numpy_s, scipy_s, oscdecay_s) == pytest.approx((1e-3, 2e-3, 1e-3))


def test_output_tolerances():
    ref = {"csv": {"header": "t,value", "columns": {"value": [0.5, 1e-6]}},
           "report": {"tool_version": "0.1.0", "results": {"max_rel_deviation": 1e-3}}}
    close = {"csv": {"header": "t,value", "columns": {"value": [0.5 * (1 + 1e-12), 1e-6]}},
             "report": {"tool_version": "9", "results": {"max_rel_deviation": 1.01e-3,
                                                         "new_key": 1}}}
    assert outputs.differences(ref, close) == []
    far = json.loads(json.dumps(close))
    far["csv"]["columns"]["value"][1] = 1.001e-6
    far["csv"]["header"] = "t,value,valid"
    assert len(outputs.differences(ref, far)) == 2


def test_reference_seconds_follow_the_nearby_yardstick_samples():
    ystick = yardstick.Yardstick()
    ystick.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    nominal = ystick.nominal
    ystick.took = [nominal] * 4 + [2.0 * nominal] * 4
    # the machine ran at nominal speed early on and at half of it later
    assert ystick.reference_seconds(2.0, 1.5) == pytest.approx(2.0)
    assert ystick.reference_seconds(2.0, 6.5) == pytest.approx(1.0)


def test_printed_metric_names_match_benchmark_json():
    bench = benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == run.per_layer_units()
    # the traced run adds the import split and what it reads from the outputs
    extra = {"import.numpy_s", "import.scipy_s", "import.oscdecay_s",
             "oracle.bound_exceeded", "oracle.max_rel_dev", "trace.overhead_frac"}
    assert set(spans.layer_metrics(synthetic_tracer())) | extra == set(per_layer)
    assert [w["name"] for w in bench["workloads"]] == list(configs.WORKLOADS)
