import pytest
from hypothesis import HealthCheck, settings

from stackga.dataset import (
    apply_clip,
    apply_imputation,
    nonzero_medians,
    outlier_fences,
    shuffle_split,
    write_csv,
)
from stackga.synth import make_pima_like

from support import make_separable_clouds

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def pima_like():
    return make_pima_like()


@pytest.fixture(scope="session")
def pima_csv(pima_like, tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "pima_like.csv"
    write_csv(pima_like, path, header=True)
    return path


@pytest.fixture(scope="session")
def pima_split_clean(pima_like):
    """(train, test) split cleaned with train-side statistics."""
    tr, te = shuffle_split(pima_like, 0.7, seed=11)
    medians = nonzero_medians(tr)
    tr, _ = apply_imputation(tr, medians)
    te, _ = apply_imputation(te, medians)
    fences = outlier_fences(tr, 1.5)
    tr, _ = apply_clip(tr, fences)
    te, _ = apply_clip(te, fences)
    return tr, te


@pytest.fixture(scope="session")
def clouds():
    return make_separable_clouds(500, 500, mean=3.0, sigma=0.5, seed=5)


@pytest.fixture(scope="session")
def small_clouds():
    return make_separable_clouds(120, 120, mean=3.0, sigma=0.5, seed=9)
