import json

import pytest

import inputs
import run


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        cols = inputs.write_ga_wide_table(d / "wide.csv", 7, 50, 3)
        inputs.write_score_table(d / "score.csv", 7, 40)
        inputs.write_json(d / "wide.json",
                          inputs.ga_wide_config(run.ROOT, "wide.csv", cols))
    for f in ("wide.csv", "score.csv", "wide.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_another_seed_gives_other_inputs(tmp_path):
    inputs.write_ga_wide_table(tmp_path / "s1.csv", 1, 50, 3)
    inputs.write_ga_wide_table(tmp_path / "s2.csv", 2, 50, 3)
    assert (tmp_path / "s1.csv").read_bytes() != (tmp_path / "s2.csv").read_bytes()


def test_ga_wide_table_loads_under_its_config(tmp_path):
    from stackga.config import config_from_dict
    from stackga.dataset import load_csv

    cols = inputs.write_ga_wide_table(tmp_path / "wide.csv", 3, 60, 5)
    cfg = config_from_dict(inputs.ga_wide_config(run.ROOT, str(tmp_path / "wide.csv"), cols))
    ds = load_csv(cfg.dataset.path, cfg.dataset.schema(), cfg.dataset.has_header)
    assert ds.n_samples == 60
    assert ds.n_features == 8 + 5
    assert ds.schema.predictor_names[8:] == tuple(inputs.noise_names(5))
    # the shipped GA block is kept as is
    shipped = json.loads((run.ROOT / inputs.HOLDOUT_CONFIG).read_text())
    assert inputs.ga_wide_config(run.ROOT, "x", cols)["ga"] == shipped["ga"]


@pytest.mark.parametrize("n, expected_pct", [(100, 90), (50, 80), (11, 9), (20, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected_pct):
    samples = [float(i) for i in range(n)][::-1]
    pct, value = run.tail_percentile(samples)
    assert pct == expected_pct
    # distinct samples: exactly ten lie beyond, so no higher percentile qualifies
    assert sum(s > value for s in samples) == 10


def test_tail_percentile_needs_more_than_ten_samples():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([]) is None
