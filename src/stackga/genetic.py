"""Island-model genetic algorithm over binary feature masks.

Chromosomes are fixed-length 0/1 vectors (one bit per candidate feature).
Operators: linear-ranking selection weights, roulette-wheel sampling,
double-point crossover, bit-inversion mutation, fitness-based reinsertion,
and ring migration between subpopulations every `miggen` generations.
All-zero masks are repaired by setting one random bit, so the fitness domain
stays total.

For feature selection the fitness of a mask is the wrapper learner's mean
k-fold accuracy on the masked columns, evaluated on one fixed fold plan per
run and memoized by bit pattern.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, FoldPlan, make_folds, select_features
from .errors import ConfigError
from .learners import LearnerSpec, predict, train
from .rng import child_rng, derive_seed

Chromosome = np.ndarray  # 1-d uint8 vector of 0/1 genes


@dataclass(frozen=True)
class GaConfig:
    """Run parameters. `nvar` and `preci` are carried for config fidelity with
    the classic parameter block but are inert in mask mode: the chromosome
    length is `n_bits` (one gene per candidate feature) and genes are plain
    bits, not fixed-point encodings."""

    n_bits: int
    nind: int = 20
    maxgen: int = 100
    migr: float = 0.2
    insr: float = 0.95
    subpop: int = 5
    miggen: int = 20
    mutation_rate: float = None  # default 1/n_bits
    crossover_rate: float = 0.9
    selective_pressure: float = 2.0
    stall_generations: int = 25
    seed: int = 0
    nvar: int = 9
    preci: int = 20

    def __post_init__(self):
        if self.n_bits < 1:
            raise ConfigError("n_bits must be at least 1")
        if self.nind < 2:
            raise ConfigError("nind must be at least 2")
        if self.maxgen < 1:
            raise ConfigError("maxgen must be at least 1")
        if not 0 < self.migr <= 1:
            raise ConfigError("migr must lie in (0, 1]")
        if not 0 < self.insr <= 1:
            raise ConfigError("insr must lie in (0, 1]")
        if self.subpop < 1:
            raise ConfigError("subpop must be at least 1")
        if self.miggen < 1:
            raise ConfigError("miggen must be at least 1")
        if not 1 <= self.selective_pressure <= 2:
            raise ConfigError("selective_pressure must lie in [1, 2]")
        rate = self.effective_mutation_rate
        if not 0 <= rate <= 1:
            raise ConfigError("mutation_rate must lie in [0, 1]")
        if not 0 <= self.crossover_rate <= 1:
            raise ConfigError("crossover_rate must lie in [0, 1]")

    @property
    def effective_mutation_rate(self) -> float:
        return 1.0 / self.n_bits if self.mutation_rate is None else self.mutation_rate


@dataclass(frozen=True)
class GaRun:
    """Outcome of one GA run.

    `history[g][s]` is the (best, mean) population fitness of subpopulation s
    after generation g. `evaluations` counts underlying fitness-function
    calls (cache misses when memoization is on). `final_population` stacks
    every individual alive at termination, for selection-frequency reports.
    """

    best_chromosome: Chromosome
    best_fitness: float
    history: tuple
    evaluations: int
    final_population: np.ndarray


def repair_all_zero(bits: Chromosome, rng) -> Chromosome:
    """Set one uniformly chosen bit if the mask is all zeros."""
    if not bits.any():
        bits = bits.copy()
        bits[rng.integers(bits.size)] = 1
    return bits


def init_population(config: GaConfig) -> list:
    """`subpop` groups of `nind` chromosomes with i.i.d. uniform bits."""
    rng = child_rng(config.seed, "ga-init")
    groups = []
    for _ in range(config.subpop):
        pop = rng.integers(0, 2, size=(config.nind, config.n_bits)).astype(np.uint8)
        for i in range(config.nind):
            pop[i] = repair_all_zero(pop[i], rng)
        groups.append(pop)
    return groups


def rank_scale(fitnesses, selective_pressure: float) -> np.ndarray:
    """Linear-ranking selection weights, aligned to the input order.

    The individual ranked r (1 = worst) gets
    2 - sp + 2*(sp - 1)*(r - 1)/(N - 1); ties share the mean weight of their
    block, so the result is invariant to the stable ordering of equals.
    Weights sum to N.
    """
    f = np.asarray(fitnesses, dtype=np.float64)
    if f.size == 0:
        raise ValueError("rank_scale needs at least one fitness value")
    if not 1 <= selective_pressure <= 2:
        raise ValueError("selective_pressure must lie in [1, 2]")
    n = f.size
    if n == 1:
        return np.array([1.0])
    order = np.argsort(f, kind="stable")
    sp = selective_pressure
    by_rank = 2 - sp + 2 * (sp - 1) * np.arange(n) / (n - 1)
    sorted_f = f[order]
    block_starts = np.flatnonzero(np.diff(sorted_f) != 0) + 1
    weights_sorted = by_rank.copy()
    for lo, hi in zip(np.append(0, block_starts), np.append(block_starts, n)):
        weights_sorted[lo:hi] = by_rank[lo:hi].mean()
    weights = np.empty(n)
    weights[order] = weights_sorted
    return weights


def roulette_select(weights, count: int, rng) -> np.ndarray:
    """Sample `count` indices with replacement, proportional to weight."""
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("selection weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("selection weights must not all be zero")
    cum = np.cumsum(w / total)
    picks = np.searchsorted(cum, rng.random(count), side="right")
    return np.minimum(picks, w.size - 1)


def apply_two_point(a: Chromosome, b: Chromosome, p: int, q: int) -> tuple:
    """Swap the [p, q) segment between two equal-length parents."""
    o1 = np.concatenate([a[:p], b[p:q], a[q:]])
    o2 = np.concatenate([b[:p], a[p:q], b[q:]])
    return o1.astype(np.uint8), o2.astype(np.uint8)


def crossover_double_point(a: Chromosome, b: Chromosome, rng) -> tuple:
    """Two offspring from two uniformly chosen cut points p < q in [0, len]."""
    if a.size != b.size:
        raise ValueError("parents must have equal length")
    if a.size < 2:
        return a.copy(), b.copy()
    p, q = sorted(rng.choice(a.size + 1, size=2, replace=False))
    return apply_two_point(a, b, int(p), int(q))


def mutate_bit_inversion(ch: Chromosome, rate: float, rng) -> Chromosome:
    """Flip each bit independently with probability `rate`; repair all-zero."""
    if not 0 <= rate <= 1:
        raise ValueError("mutation rate must lie in [0, 1]")
    flips = rng.random(ch.size) < rate
    out = (ch.astype(np.uint8) ^ flips.astype(np.uint8))
    return repair_all_zero(out, rng)


def reinsert_fitness_based(parents, parent_fit, offspring, offspring_fit,
                           insr: float) -> tuple:
    """Replace the floor(insr*N) least-fit parents with the fittest offspring.

    Returns (population, fitnesses). With insr < 1 the best parent always
    survives, which makes the per-subpopulation best monotone across
    generations.
    """
    parents = np.asarray(parents)
    offspring = np.asarray(offspring)
    parent_fit = np.asarray(parent_fit, dtype=np.float64)
    offspring_fit = np.asarray(offspring_fit, dtype=np.float64)
    n = parents.shape[0]
    n_ins = min(int(math.floor(insr * n)), offspring.shape[0])
    pop = parents.copy()
    fit = parent_fit.copy()
    if n_ins == 0:
        return pop, fit
    best_off = np.argsort(-offspring_fit, kind="stable")[:n_ins]
    worst_par = np.argsort(parent_fit, kind="stable")[:n_ins]
    pop[worst_par] = offspring[best_off]
    fit[worst_par] = offspring_fit[best_off]
    return pop, fit


def migrate(populations, fitnesses, migr: float) -> tuple:
    """Ring migration: each subpopulation copies its top ceil(migr*N)
    individuals onto the next subpopulation's worst. Sizes are preserved and
    all migrants are taken from the pre-migration state."""
    if len(populations) < 2:
        return [p.copy() for p in populations], [f.copy() for f in fitnesses]
    n_mig = int(math.ceil(migr * populations[0].shape[0]))
    migrants = []
    for pop, fit in zip(populations, fitnesses):
        top = np.argsort(-fit, kind="stable")[:n_mig]
        migrants.append((pop[top].copy(), fit[top].copy()))
    new_pops, new_fits = [], []
    for s, (pop, fit) in enumerate(zip(populations, fitnesses)):
        pop, fit = pop.copy(), fit.copy()
        src_pop, src_fit = migrants[(s - 1) % len(populations)]
        worst = np.argsort(fit, kind="stable")[:n_mig]
        pop[worst] = src_pop
        fit[worst] = src_fit
        new_pops.append(pop)
        new_fits.append(fit)
    return new_pops, new_fits


def _better(candidate: tuple, incumbent: tuple) -> bool:
    """Best-chromosome ordering: higher fitness, then fewer set bits, then
    lexicographically smaller bit pattern."""
    f_c, bits_c = candidate
    f_i, bits_i = incumbent
    if f_c != f_i:
        return f_c > f_i
    pc, pi = int(bits_c.sum()), int(bits_i.sum())
    if pc != pi:
        return pc < pi
    return tuple(bits_c) < tuple(bits_i)


def evolve(config: GaConfig, fitness_fn, memoize: bool = True) -> GaRun:
    """Run the island-model GA against an arbitrary mask fitness function.

    `fitness_fn(bits) -> float` must be deterministic; it is memoized by bit
    pattern unless `memoize` is off (the cache never touches the RNG streams,
    so toggling it cannot change the outcome).
    """
    evaluations = 0
    cache = {}

    def evaluate(bits: Chromosome) -> float:
        nonlocal evaluations
        if not memoize:
            evaluations += 1
            return float(fitness_fn(bits))
        key = bits.tobytes()
        if key not in cache:
            evaluations += 1
            cache[key] = float(fitness_fn(bits))
        return cache[key]

    pops = init_population(config)
    fits = [np.array([evaluate(ch) for ch in pop]) for pop in pops]
    rngs = [child_rng(config.seed, "ga-subpop", s) for s in range(config.subpop)]
    rate = config.effective_mutation_rate

    best = None
    for pop, fit in zip(pops, fits):
        for ch, f in zip(pop, fit):
            cand = (f, ch.copy())
            if best is None or _better(cand, best):
                best = cand

    history = []
    stall = 0
    last_best = best[0]
    for gen in range(1, config.maxgen + 1):
        for s in range(config.subpop):
            rng = rngs[s]
            weights = rank_scale(fits[s], config.selective_pressure)
            parent_idx = roulette_select(weights, config.nind, rng)
            offspring = []
            for i in range(0, config.nind - 1, 2):
                a, b = pops[s][parent_idx[i]], pops[s][parent_idx[i + 1]]
                if rng.random() < config.crossover_rate:
                    o1, o2 = crossover_double_point(a, b, rng)
                else:
                    o1, o2 = a.copy(), b.copy()
                offspring.extend([o1, o2])
            if config.nind % 2:
                offspring.append(pops[s][parent_idx[-1]].copy())
            offspring = [mutate_bit_inversion(o, rate, rng) for o in offspring]
            off_fit = np.array([evaluate(o) for o in offspring])
            pops[s], fits[s] = reinsert_fitness_based(
                pops[s], fits[s], np.array(offspring), off_fit, config.insr
            )
            for ch, f in zip(offspring, off_fit):
                cand = (f, ch.copy())
                if _better(cand, best):
                    best = cand
        if config.subpop >= 2 and gen % config.miggen == 0:
            pops, fits = migrate(pops, fits, config.migr)
        history.append(tuple((float(f.max()), float(f.mean())) for f in fits))
        if best[0] > last_best:
            stall = 0
            last_best = best[0]
        else:
            stall += 1
        if stall >= config.stall_generations:
            break

    return GaRun(
        best_chromosome=best[1],
        best_fitness=best[0],
        history=tuple(history),
        evaluations=evaluations,
        final_population=np.vstack(pops),
    )


def wrapper_cv_accuracy(ds: Dataset, wrapper: LearnerSpec, plan: FoldPlan) -> float:
    """Mean held-fold accuracy of `wrapper` over a fixed fold plan."""
    correct = 0
    for fold in range(plan.k):
        fit_part = ds.take(plan.train_indices(fold))
        held = ds.take(plan.test_indices(fold))
        model = train(wrapper, fit_part)
        correct += int((predict(model, held.features) == held.labels).sum())
    return correct / ds.n_samples


def _mask_fitness(bits: Chromosome, ds: Dataset, wrapper: LearnerSpec,
                  plan: FoldPlan) -> float:
    return wrapper_cv_accuracy(select_features(ds, np.flatnonzero(bits)), wrapper, plan)


def wrapper_plan(ds: Dataset, cv_k: int, seed: int) -> FoldPlan:
    """The stratified fold plan that wrapper fitness is scored on."""
    return make_folds(ds, cv_k, stratified=True, seed=derive_seed(seed, "wrapper-cv"))


def fitness(ch: Chromosome, ds: Dataset, wrapper: LearnerSpec, cv_k: int = 5,
            seed: int = 0) -> float:
    """Wrapper CV accuracy of the masked feature subset."""
    bits = np.asarray(ch).astype(np.uint8)
    if not bits.any():
        raise ValueError("fitness needs at least one selected feature")
    if bits.size != ds.n_features:
        raise ValueError(f"mask length {bits.size} != {ds.n_features} features")
    return _mask_fitness(bits, ds, wrapper, wrapper_plan(ds, cv_k, seed))


def run_ga(config: GaConfig, ds: Dataset, wrapper: LearnerSpec,
           cv_k: int = 5, memoize: bool = True) -> GaRun:
    """Feature-mask search: fitness is the wrapper's CV accuracy on one fold
    plan fixed for the whole run, memoized by mask."""
    if config.n_bits != ds.n_features:
        raise ConfigError(
            f"GA n_bits={config.n_bits} but the dataset has {ds.n_features} features"
        )
    plan = wrapper_plan(ds, cv_k, config.seed)
    return evolve(config, lambda bits: _mask_fitness(bits, ds, wrapper, plan), memoize=memoize)


def mask_to_names(bits: Chromosome, ds_or_names) -> list:
    """Selected predictor names for a mask."""
    names = ds_or_names.schema.predictor_names if isinstance(ds_or_names, Dataset) else ds_or_names
    return [names[i] for i in np.flatnonzero(np.asarray(bits))]


def history_to_csv(run: GaRun) -> str:
    lines = ["generation,subpop,best,mean"]
    for g, per_subpop in enumerate(run.history, start=1):
        for s, (best, mean) in enumerate(per_subpop):
            lines.append(f"{g},{s},{best!r},{mean!r}")
    return "\n".join(lines) + "\n"
