import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stackga import genetic
from stackga.config import load_config
from stackga.dataset import Dataset, Schema
from stackga.errors import ConfigError
from stackga.genetic import (
    GaConfig,
    apply_two_point,
    crossover_double_point,
    evolve,
    history_to_csv,
    init_population,
    mask_to_names,
    migrate,
    mutate_bit_inversion,
    rank_scale,
    reinsert_fitness_based,
    roulette_select,
    run_ga,
)
from stackga.learners import LearnerSpec, linear
from stackga.learners.naive_bayes import GaussianNB
from stackga.pipeline import ga_mask, ga_wrapper_spec, holdout_partitions
from stackga.rng import child_rng, derive_seed

from support import batched, fitness, make_single_informative

ONEMAX_CFG = dict(n_bits=30, nind=20, subpop=5, maxgen=100, migr=0.2, insr=0.95, miggen=20)


def onemax(bits):
    return bits.sum() / bits.size


class TestConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            GaConfig(n_bits=8, migr=0.0)
        with pytest.raises(ConfigError):
            GaConfig(n_bits=8, insr=1.5)
        with pytest.raises(ConfigError):
            GaConfig(n_bits=8, nind=1)
        with pytest.raises(ConfigError):
            GaConfig(n_bits=8, selective_pressure=2.5)
        with pytest.raises(ConfigError, match="stall_generations"):
            GaConfig(n_bits=8, stall_generations=0)
        with pytest.raises(ConfigError):
            GaConfig(n_bits=0)

    def test_default_mutation_rate_is_one_over_length(self):
        assert GaConfig(n_bits=25).effective_mutation_rate == pytest.approx(1 / 25)


class TestInitPopulation:
    def test_table_shape(self):
        pops = init_population(GaConfig(n_bits=8, nind=20, subpop=5, seed=1))
        assert len(pops) == 5
        assert all(p.shape == (20, 8) for p in pops)
        assert all(p.sum(axis=1).min() >= 1 for p in pops)

    def test_seed_reproducible(self):
        a = init_population(GaConfig(n_bits=10, seed=4))
        b = init_population(GaConfig(n_bits=10, seed=4))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_length_one_repairs_to_one(self):
        pops = init_population(GaConfig(n_bits=1, seed=0))
        for p in pops:
            assert (p == 1).all()


class TestRankScale:
    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_closed_form(self, n):
        f = np.arange(n, dtype=float)  # already sorted ascending, no ties
        sp = 1.7
        w = rank_scale(f, sp)
        expected = [2 - sp + 2 * (sp - 1) * r / (n - 1) for r in range(n)]
        np.testing.assert_allclose(w, expected)
        assert w.sum() == pytest.approx(n)

    def test_two_individuals_max_pressure(self):
        np.testing.assert_allclose(rank_scale([0.1, 0.9], 2.0), [0.0, 2.0])

    def test_pressure_one_is_uniform(self):
        np.testing.assert_allclose(rank_scale([5, 1, 3], 1.0), [1, 1, 1])

    def test_ties_share_block_mean(self):
        w = rank_scale([1.0, 1.0, 2.0], 2.0)
        np.testing.assert_allclose(w, [0.5, 0.5, 2.0])

    def test_singleton(self):
        np.testing.assert_allclose(rank_scale([3.0], 1.5), [1.0])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=30))
    def test_sums_to_n(self, f):
        w = rank_scale(f, 2.0)
        assert w.sum() == pytest.approx(len(f))
        assert (w >= -1e-12).all()


class TestRoulette:
    def test_all_weight_on_one_index(self):
        rng = child_rng(0, "r")
        picks = roulette_select([0.0, 2.0], 50, rng)
        assert (picks == 1).all()

    def test_zero_count(self):
        assert roulette_select([1.0], 0, child_rng(0)).size == 0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            roulette_select([0.0, 0.0], 3, child_rng(0))

    def test_uniform_frequencies(self):
        rng = child_rng(1, "freq")
        picks = roulette_select([1.0, 1.0], 100_000, rng)
        assert abs((picks == 0).mean() - 0.5) < 0.01

    def test_weighted_frequencies(self):
        rng = child_rng(2, "freq")
        picks = roulette_select([1.0, 3.0], 100_000, rng)
        assert abs((picks == 1).mean() - 0.75) < 0.01


class TestCrossover:
    def test_hand_case(self):
        a = np.ones(6, dtype=np.uint8)
        b = np.zeros(6, dtype=np.uint8)
        o1, o2 = apply_two_point(a, b, 2, 4)
        assert o1.tolist() == [1, 1, 0, 0, 1, 1]
        assert o2.tolist() == [0, 0, 1, 1, 0, 0]

    def test_equal_parents_fixed_point(self):
        a = np.array([1, 0, 1, 1], dtype=np.uint8)
        o1, o2 = crossover_double_point(a, a.copy(), child_rng(0))
        np.testing.assert_array_equal(o1, a)
        np.testing.assert_array_equal(o2, a)

    def test_full_swap_at_boundary_cuts(self):
        a = np.array([1, 1, 0], dtype=np.uint8)
        b = np.array([0, 1, 1], dtype=np.uint8)
        o1, o2 = apply_two_point(a, b, 0, 3)
        np.testing.assert_array_equal(o1, b)
        np.testing.assert_array_equal(o2, a)

    def test_short_parents_returned_unchanged(self):
        a = np.array([1], dtype=np.uint8)
        b = np.array([0], dtype=np.uint8)
        o1, o2 = crossover_double_point(a, b, child_rng(0))
        assert o1.tolist() == [1] and o2.tolist() == [0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crossover_double_point(np.ones(3, np.uint8), np.ones(4, np.uint8), child_rng(0))

    def test_exhaustive_locus_property_length_six(self):
        rng = child_rng(3, "locus")
        a = rng.integers(0, 2, 6).astype(np.uint8)
        b = rng.integers(0, 2, 6).astype(np.uint8)
        for p, q in itertools.combinations(range(7), 2):
            o1, o2 = apply_two_point(a, b, p, q)
            for i in range(6):
                if p <= i < q:
                    assert o1[i] == b[i] and o2[i] == a[i]
                else:
                    assert o1[i] == a[i] and o2[i] == b[i]


class TestMutation:
    def test_rate_zero_identity(self):
        ch = np.array([1, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(mutate_bit_inversion(ch, 0.0, child_rng(0)), ch)

    def test_rate_one_complement(self):
        ch = np.array([1, 0, 1, 0], dtype=np.uint8)
        out = mutate_bit_inversion(ch, 1.0, child_rng(0))
        np.testing.assert_array_equal(out, [0, 1, 0, 1])

    def test_all_zero_repair_sets_one_bit(self):
        ch = np.array([1, 1, 1], dtype=np.uint8)
        out = mutate_bit_inversion(ch, 1.0, child_rng(5))
        assert out.sum() == 1

    def test_expected_flip_count(self):
        rng = child_rng(6, "flips")
        ch = np.ones(1000, dtype=np.uint8)
        total = sum(
            int((mutate_bit_inversion(ch, 0.1, rng) != ch).sum()) for _ in range(200)
        )
        # Binomial(200*1000, 0.1): mean 20000, sigma ~134
        assert abs(total - 20000) < 5 * 134 + 1


class TestReinsertion:
    def test_nineteen_of_twenty_replaced(self):
        parents = np.arange(20)[:, None].astype(np.uint8) % 2
        parent_fit = np.linspace(0, 1, 20)
        offspring = np.ones((20, 1), dtype=np.uint8)
        offspring_fit = np.linspace(2, 3, 20)
        pop, fit = reinsert_fitness_based(parents, parent_fit, offspring, offspring_fit, 0.95)
        assert (fit >= 2.0).sum() == 19  # 19 offspring inserted
        assert parent_fit.max() in fit  # best parent survives

    def test_insr_zero_keeps_parents(self):
        parents = np.zeros((5, 3), dtype=np.uint8)
        pf = np.arange(5.0)
        off = np.ones((5, 3), dtype=np.uint8)
        of = np.arange(5.0) + 10
        pop, fit = reinsert_fitness_based(parents, pf, off, of, 0.0)
        np.testing.assert_array_equal(fit, pf)

    def test_insr_one_full_replacement_when_fitter(self):
        parents = np.zeros((4, 2), dtype=np.uint8)
        pf = np.zeros(4)
        off = np.ones((4, 2), dtype=np.uint8)
        of = np.ones(4)
        pop, fit = reinsert_fitness_based(parents, pf, off, of, 1.0)
        assert (pop == 1).all() and (fit == 1).all()

    def test_population_size_preserved(self):
        parents = np.zeros((7, 2), dtype=np.uint8)
        off = np.ones((7, 2), dtype=np.uint8)
        pop, fit = reinsert_fitness_based(parents, np.zeros(7), off, np.ones(7), 0.5)
        assert pop.shape == (7, 2) and fit.shape == (7,)


class TestMigration:
    def test_four_migrants_with_table_values(self):
        rng = child_rng(7, "mig")
        pops = [rng.integers(0, 2, (20, 6)).astype(np.uint8) for _ in range(5)]
        fits = [rng.random(20) for _ in range(5)]
        new_pops, new_fits = migrate(pops, fits, 0.2)
        assert all(p.shape == (20, 6) for p in new_pops)
        for s in range(5):
            src = (s - 1) % 5
            top4 = np.sort(fits[src])[-4:]
            for f in top4:
                assert f in new_fits[s]

    def test_single_subpopulation_noop(self):
        pops = [np.ones((4, 3), dtype=np.uint8)]
        fits = [np.arange(4.0)]
        new_pops, new_fits = migrate(pops, fits, 0.5)
        np.testing.assert_array_equal(new_pops[0], pops[0])

    def test_converged_subpopulations_unchanged_contents(self):
        # every individual identical: swapping copies around changes nothing
        pop = np.tile([1, 0, 1], (4, 1)).astype(np.uint8)
        fit = np.full(4, 0.6)
        new_pops, new_fits = migrate([pop.copy(), pop.copy()], [fit.copy(), fit.copy()], 0.4)
        for p, f in zip(new_pops, new_fits):
            np.testing.assert_array_equal(p, pop)
            np.testing.assert_allclose(f, fit)


class TestEvolve:
    def test_onemax_reaches_optimum(self):
        cfg = GaConfig(seed=0, **ONEMAX_CFG)
        run = evolve(cfg, batched(onemax))
        assert run.best_fitness == 1.0
        assert run.best_chromosome.sum() == 30

    def test_constant_fitness_constant_history(self):
        cfg = GaConfig(n_bits=10, nind=10, subpop=2, maxgen=40, seed=3)
        run = evolve(cfg, batched(lambda bits: 0.5))
        bests = {b for gen in run.history for b, _ in gen}
        assert bests == {0.5}
        assert len(run.history) <= 40

    def test_evaluations_count_distinct_masks(self):
        cfg = GaConfig(n_bits=12, nind=10, subpop=2, maxgen=30, seed=9)
        requested = []

        def counted(bits):
            requested.append(bits.tobytes())
            return onemax(bits)

        run = evolve(cfg, batched(counted))
        assert run.evaluations == len(requested) == len(set(requested))
        # every generation requests nind masks per subpopulation, so most are cache hits
        assert run.evaluations < cfg.nind * cfg.subpop * (1 + len(run.history))

    def test_per_subpop_best_monotone(self):
        cfg = GaConfig(seed=5, **ONEMAX_CFG)
        run = evolve(cfg, batched(onemax))
        hist = np.array(run.history)[:, :, 0]
        assert (np.diff(hist, axis=0) >= 0).all()

    def test_final_population_shape(self):
        cfg = GaConfig(n_bits=6, nind=8, subpop=3, maxgen=10, seed=2)
        run = evolve(cfg, batched(onemax))
        assert run.final_population.shape == (24, 6)

    def test_tie_break_prefers_fewer_bits(self):
        cfg = GaConfig(n_bits=6, nind=10, subpop=2, maxgen=15, seed=4)
        run = evolve(cfg, batched(lambda bits: 1.0))  # every mask ties
        assert run.best_chromosome.sum() == 1


class TestWrapperFitness:
    def test_full_mask_equals_full_cv(self, pima_split_clean):
        tr, _ = pima_split_clean
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        full = fitness(np.ones(8, dtype=np.uint8), tr, wrapper, cv_k=3, seed=2)
        assert 0.5 < full <= 1.0

    def test_informative_feature_beats_noise(self):
        ds = make_single_informative(n=300, n_features=4, seed=1)
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        good = fitness(np.array([1, 0, 0, 0], np.uint8), ds, wrapper, cv_k=3, seed=2)
        bad = fitness(np.array([0, 1, 0, 0], np.uint8), ds, wrapper, cv_k=3, seed=2)
        assert good > bad + 0.2

    def test_empty_mask_rejected(self, pima_split_clean):
        tr, _ = pima_split_clean
        with pytest.raises(ValueError):
            fitness(np.zeros(8, np.uint8), tr, LearnerSpec("knn", {}, 0))
        folds = genetic.wrapper_folds(tr, genetic.wrapper_plan(tr, 3, 0))
        with pytest.raises(ValueError, match="every mask must select at least one column"):
            genetic.mask_accuracies(folds, LearnerSpec("logistic_regression", {}, 0),
                                    np.vstack([np.eye(8), np.zeros((1, 8))]))

    @pytest.mark.parametrize("algorithm", ["logistic_regression", "gaussian_nb"])
    def test_a_non_finite_cell_fails_before_any_fit(self, algorithm, recwarn):
        """The error names the cell's column in the table, not in a mask's
        columns, and no fold fit runs on it to warn about overflow."""
        ds = make_single_informative(n=40, n_features=4, seed=3)
        X = ds.features.copy()
        X[7, 3] = np.inf
        ds = Dataset(X, ds.labels, ds.schema)
        config = GaConfig(n_bits=4, nind=4, subpop=2, maxgen=2, seed=1)
        with pytest.raises(ValueError, match=r"non-finite input: row \d+, column 3 is inf"):
            run_ga(config, ds, LearnerSpec(algorithm, {}, 0), cv_k=3)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_deterministic(self, pima_split_clean):
        tr, _ = pima_split_clean
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        mask = np.array([1, 1, 0, 0, 0, 1, 0, 1], np.uint8)
        a = fitness(mask, tr, wrapper, cv_k=3, seed=7)
        b = fitness(mask, tr, wrapper, cv_k=3, seed=7)
        assert a == b


class TestRunGa:
    def test_mask_length_must_match(self, pima_split_clean):
        tr, _ = pima_split_clean
        cfg = GaConfig(n_bits=5, maxgen=2, seed=0)
        with pytest.raises(ConfigError):
            run_ga(cfg, tr, LearnerSpec("logistic_regression", {}, 0))

    def test_finds_informative_subset(self):
        ds = make_single_informative(n=240, n_features=5, seed=3)
        cfg = GaConfig(n_bits=5, nind=10, subpop=2, maxgen=20, miggen=5,
                       stall_generations=8, seed=1)
        run = run_ga(cfg, ds, LearnerSpec("logistic_regression", {}, 5), cv_k=3)
        assert run.best_chromosome[0] == 1
        assert run.best_fitness > 0.8

    def test_each_evaluation_fits_the_wrapper_once_per_fold(self, pima_split_clean,
                                                           monkeypatch):
        """The mask table fits every mask on every fold once per run; batches
        a generation at a time, and a wrapper that does not stack, fit each
        evaluated mask once per fold."""
        tr, _ = pima_split_clean
        systems, fits = [], []
        newton = linear.newton
        monkeypatch.setattr(linear, "newton", lambda Z, *rest: (
            systems.append(len(Z)), newton(Z, *rest))[1])
        gaussian_fit = GaussianNB.fit
        monkeypatch.setattr(GaussianNB, "fit", lambda self, *args, **kwargs: (
            fits.append(self), gaussian_fit(self, *args, **kwargs))[1])
        cfg = GaConfig(n_bits=8, nind=6, subpop=2, maxgen=3, stall_generations=3, seed=2)
        run = run_ga(cfg, tr, LearnerSpec("logistic_regression", {}, 5), cv_k=3)
        assert sum(systems) == (2**8 - 1) * 3 and fits == []
        assert run.table.shape == (2**8 - 1,) and run.evaluations < 2**8 - 1

        systems.clear()
        wide = make_single_informative(n=120, n_features=genetic.TABLE_BITS + 2, seed=4)
        run = run_ga(replace(cfg, n_bits=wide.n_features), wide,
                     LearnerSpec("logistic_regression", {}, 5), cv_k=3)
        assert sum(systems) == 3 * run.evaluations and fits == [] and run.table is None

        systems.clear()
        run = run_ga(cfg, tr, LearnerSpec("gaussian_nb", {}, 5), cv_k=3)
        assert len(fits) == 3 * run.evaluations and systems == [] and run.table is None

    def test_table_best_breaks_ties_as_the_ga_does(self):
        masks = genetic.all_masks(3)
        assert masks[0].tolist() == [1, 0, 0] and masks[5].tolist() == [0, 1, 1]
        assert (genetic._table_index(masks) == np.arange(7)).all()
        table = np.array([0.5, 0.5, 0.9, 0.7, 0.9, 0.9, 0.9])  # masks 3, 5, 6 and 7 tie
        best, ties = genetic.table_best(table, 3)
        assert best.tolist() == [0, 1, 1] and ties == 4  # two bits, then the smaller pattern

    def test_the_table_and_per_generation_batches_give_the_same_run(self):
        """On the shipped holdout fit part, the run that reads the filled mask
        table equals one that fits each generation's new masks as it goes;
        the table's best mask under `_better`, one of 3 tied, is the GA's."""
        cfg = load_config("configs/pima_holdout.json")
        fit_ds, _ = holdout_partitions(cfg)
        table_run = ga_mask(cfg, fit_ds, ("holdout",))
        config = replace(cfg.ga_run_config, n_bits=fit_ds.n_features,
                         seed=derive_seed(cfg.master_seed, "ga", "holdout"))
        folds = genetic.wrapper_folds(fit_ds, genetic.wrapper_plan(fit_ds, cfg.ga.cv_folds,
                                                                   config.seed))
        wrapper = ga_wrapper_spec(cfg)
        batched_run = evolve(config, lambda masks: genetic.mask_accuracies(folds, wrapper, masks))
        assert table_run.table is not None and batched_run.table is None
        for field in ("best_chromosome", "final_population"):
            got, want = getattr(table_run, field), getattr(batched_run, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert table_run.best_fitness == batched_run.best_fitness
        assert table_run.history == batched_run.history
        assert table_run.evaluations == batched_run.evaluations
        best, ties = genetic.table_best(table_run.table, fit_ds.n_features)
        assert (best == table_run.best_chromosome).all() and ties == 3

    def test_a_fold_without_both_classes_fails_as_train_does(self):
        X = np.arange(12.0).reshape(6, 2)
        ds = Dataset(X, np.array([0, 0, 0, 0, 0, 1]), Schema(("a", "b", "y"), 2))
        wrapper = LearnerSpec("logistic_regression", {}, 5)
        cfg = GaConfig(n_bits=2, nind=4, subpop=1, maxgen=2, seed=0)
        with pytest.raises(ValueError, match="^logistic_regression requires both classes"):
            run_ga(cfg, ds, wrapper, cv_k=2)

    def test_history_csv_layout(self):
        cfg = GaConfig(n_bits=6, nind=6, subpop=2, maxgen=5, stall_generations=50, seed=0)
        run = evolve(cfg, batched(onemax))
        lines = history_to_csv(run).strip().splitlines()
        assert lines[0] == "generation,subpop,best,mean"
        assert len(lines) == 1 + 2 * len(run.history)

    def test_mask_names(self, pima_like):
        names = mask_to_names(np.array([0, 1, 0, 0, 0, 1, 0, 0], np.uint8), pima_like)
        assert names == ["glucose", "bmi"]
