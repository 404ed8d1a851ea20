import pytest

import spans


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def span(name, start, end, parent=-1, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_tracer_records_nesting_and_clock_readings():
    tr = spans.Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    root = tr.begin("cli.main")
    a = tr.begin("genetic.run_ga")
    tr.end(a, evaluations=7)
    b = tr.begin("learners.knn.fit", _private=object())
    tr.end(b)
    tr.end(root)
    out = tr.export()
    assert [(s["name"], s["start"], s["end"], s["parent"]) for s in out] == [
        ("cli.main", 0.0, 10.0, -1),
        ("genetic.run_ga", 1.0, 3.0, 0),
        ("learners.knn.fit", 4.0, 6.0, 0),
    ]
    assert out[1]["attrs"] == {"evaluations": 7}
    assert out[2]["attrs"] == {}  # in-memory-only attrs are not exported


def test_tracer_refuses_out_of_order_close():
    tr = spans.Tracer(clock=FakeClock(0.0, 1.0, 2.0))
    outer = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_self_time_subtracts_children_on_nested_spans():
    s = [
        span("cli.main", 0.0, 10.0),
        span("pipeline.ga_mask", 1.0, 7.0, 0),
        span("genetic.run_ga", 1.5, 6.5, 1),
        span("learners.lr.fit", 2.0, 3.0, 2),
        span("learners.lr.fit", 4.0, 6.0, 2),
        span("report.render_report", 8.0, 9.0, 0),
    ]
    assert spans.self_times(s) == pytest.approx([3.0, 1.0, 2.0, 1.0, 2.0, 1.0])
    # self times of a tree partition the root's duration
    assert sum(spans.self_times(s)) == pytest.approx(10.0)


def test_self_time_never_counts_overlapping_children_twice():
    s = [span("p", 0.0, 10.0), span("c1", 1.0, 5.0, 0), span("c2", 4.0, 12.0, 0)]
    assert spans.self_times(s)[0] == pytest.approx(1.0)


def _process(spans_list):
    return {"spans": spans_list, "import_s": 0.25, "cpu_s": 3.0, "wall_s": 4.0}


def test_layer_metrics_from_a_stack_training():
    s = [
        span("cli.main", 0.0, 20.0),
        span("genetic.run_ga", 0.0, 4.0, 0, generations=2, evaluations=150, requests=300),
        span("learners.logistic_regression.fit", 1.0, 2.0, 1),
        span("stacking.train_stack", 5.0, 15.0, 0),
        span("stacking.build_level1_dataset", 5.0, 10.0, 3),
        span("learners.knn.fit", 5.0, 6.0, 4),
        span("learners.knn.predict", 6.0, 7.0, 4),
        span("learners.knn.predict", 6.0, 6.5, 6),  # predict -> predict_proba
        span("learners.logistic_regression.fit", 10.0, 11.0, 3, role="meta"),
        span("learners.knn.fit", 11.0, 13.0, 3, role="refit"),
        span("learners.svm.fit", 13.0, 14.0, 3, role="refit", error=1),
        span("persist.save_artifact", 15.0, 15.5, 0, bytes=1234),
    ]
    m = spans.layer_metrics([_process(s)])
    assert set(m) == set(spans.layer_metric_names())
    assert m["genetic.run_ga_s"] == pytest.approx(4.0)
    assert m["genetic.self_s"] == pytest.approx(3.0)
    assert m["genetic.cache_hit_ratio"] == pytest.approx(0.5)
    assert m["genetic.s_per_eval"] == pytest.approx(4.0 / 150)
    assert m["learners.knn.predict_calls"] == 1  # the nested call is not counted
    assert m["learners.knn.predict_s"] == pytest.approx(1.0)
    assert m["learners.knn.fit_calls"] == 2
    assert m["learners.knn.fit_s"] == pytest.approx(3.0)
    assert m["learners.svm.errors"] == 1
    assert m["stacking.level1_s"] == pytest.approx(5.0)
    assert m["stacking.level1_fits"] == 1
    assert m["stacking.meta_fit_s"] == pytest.approx(1.0)
    assert m["stacking.refit_s"] == pytest.approx(3.0)
    assert m["persist.artifact_bytes"] == 1234
    assert m["cli.self_s"] == pytest.approx(20.0 - 4.0 - 10.0 - 0.5)
    assert m["process.import_s"] == 0.25


def test_layer_metrics_sum_over_processes():
    s = [span("dataset.load_csv", 0.0, 0.5, rows=768)]
    m = spans.layer_metrics([_process(s), _process(s)])
    assert m["dataset.rows_loaded"] == 1536
    assert m["dataset.load_csv_s"] == pytest.approx(1.0)
    assert m["process.cpu_s"] == pytest.approx(6.0)
