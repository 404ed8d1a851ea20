"""Island-model genetic algorithm over binary feature masks.

Chromosomes are fixed-length 0/1 vectors (one bit per candidate feature).
Operators: linear-ranking selection weights, roulette-wheel sampling,
double-point crossover, bit-inversion mutation, fitness-based reinsertion,
and ring migration between subpopulations every `miggen` generations.
All-zero masks are repaired by setting one random bit, so the fitness domain
stays total.

For feature selection the fitness of a mask is the wrapper learner's mean
k-fold accuracy on the masked columns, evaluated on one fixed fold plan per
run and memoized by bit pattern. `evolve` asks for fitness in batches (the
initial population, then each generation's offspring), and a logistic
regression wrapper fits a batch as stacked Newton systems; over at most
`TABLE_BITS` features the run scores every mask once up front instead.
"""

import math
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .dataset import Dataset, FoldPlan, make_folds
from .errors import ConfigError
from .learners import ALGORITHMS, LearnerSpec, check_finite, check_labels, stack_labels
from .records import Count, Fraction, check_fields
from .rng import child_rng, derive_seed

#: the most features over which `run_ga` scores all 2**d - 1 masks before the
#: search. On the shipped holdout fit part (538 rows, 5 folds, shipped GA
#: settings, N(0, 1) columns added past 8) the search evaluates 228, 370, 574,
#: 789 and 906 masks at d = 8 to 12; pinned to one CPU of a 2-CPU x86 host
#: (best of 3) the table run took 0.23, 0.44, 1.05, 2.07 and 4.67 s against
#: 0.38, 0.49, 0.87, 1.37 and 1.54 s for per-generation batches
TABLE_BITS = 9
#: the most cells (masks x fit rows x selected columns) one stacked fit holds
STACK_CELLS = 2**16

Chromosome = np.ndarray  # 1-d uint8 vector of 0/1 genes


@dataclass(frozen=True)
class GaConfig:
    """Run parameters, each checked against its annotation when built. The
    chromosome length is `n_bits`, one plain bit per candidate feature."""

    n_bits: Count
    nind: Annotated[int, ("minimum", 2)] = 20
    maxgen: Count = 100
    migr: Annotated[float, ("exclusiveMinimum", 0), ("maximum", 1)] = 0.2
    insr: Annotated[float, ("exclusiveMinimum", 0), ("maximum", 1)] = 0.95
    subpop: Count = 5
    miggen: Count = 20
    mutation_rate: Fraction | None = None  # default 1/n_bits
    crossover_rate: Fraction = 0.9
    selective_pressure: Annotated[float, ("minimum", 1), ("maximum", 2)] = 2.0
    stall_generations: Count = 25
    seed: int = 0

    def __post_init__(self):
        check_fields(self)

    @property
    def effective_mutation_rate(self) -> float:
        return 1.0 / self.n_bits if self.mutation_rate is None else self.mutation_rate


@dataclass(frozen=True)
class GaRun:
    """Outcome of one GA run.

    `history[g][s]` is the (best, mean) population fitness of subpopulation s
    after generation g. `evaluations` counts the distinct masks the search
    asked the fitness of (the memo cache's misses), whether they were fitted
    then or looked up in a table filled before it. `final_population` stacks
    every individual alive at termination, for selection-frequency reports.
    `table`, when the run filled one, holds the fitness of every non-empty
    mask, mask i + 1 at index i (bit 0 of a mask is its first gene).
    """

    best_chromosome: Chromosome
    best_fitness: float
    history: tuple
    evaluations: int
    final_population: np.ndarray
    table: np.ndarray = None


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


def evolve(config: GaConfig, fitness_fn) -> GaRun:
    """Run the island-model GA against an arbitrary mask fitness function.

    `fitness_fn(masks)` takes a (m, n_bits) uint8 array of distinct masks
    and returns their m fitness values in order; it must be deterministic.
    It is called once for the initial population and then once per
    generation for every subpopulation's offspring, each time with the masks
    not asked for before, in the order they were first requested, and never
    with none. Its answers are memoized by bit pattern. A subpopulation's
    offspring depend only on its own population, fitness and RNG, so making
    them all before scoring them moves no draw, and the cache never touches
    the RNG streams.
    """
    cache = {}

    def evaluate(groups) -> list:
        """Each group of chromosomes' fitness array, new masks scored in one call."""
        new = {}
        for group in groups:
            for ch in group:
                key = ch.tobytes()
                if key not in cache:
                    new.setdefault(key, ch)
        if new:
            cache.update(zip(new, map(float, fitness_fn(np.array(list(new.values()))))))
        return [np.array([cache[ch.tobytes()] for ch in group]) for group in groups]

    pops = init_population(config)
    fits = evaluate(pops)
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
        offspring = [[] for _ in range(config.subpop)]
        for s, children in enumerate(offspring):
            rng = rngs[s]
            weights = rank_scale(fits[s], config.selective_pressure)
            parent_idx = roulette_select(weights, config.nind, rng)
            for i in range(0, config.nind - 1, 2):
                a, b = pops[s][parent_idx[i]], pops[s][parent_idx[i + 1]]
                if rng.random() < config.crossover_rate:
                    o1, o2 = crossover_double_point(a, b, rng)
                else:
                    o1, o2 = a.copy(), b.copy()
                children.extend([o1, o2])
            if config.nind % 2:
                children.append(pops[s][parent_idx[-1]].copy())
            children[:] = [mutate_bit_inversion(o, rate, rng) for o in children]
        for s, off_fit in enumerate(evaluate(offspring)):
            pops[s], fits[s] = reinsert_fitness_based(
                pops[s], fits[s], np.array(offspring[s]), off_fit, config.insr
            )
            for ch, f in zip(offspring[s], off_fit):
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
        evaluations=len(cache),
        final_population=np.vstack(pops),
    )


def wrapper_folds(ds: Dataset, plan: FoldPlan) -> list:
    """(fit part, held part) of every fold of `plan`, each taken once."""
    return [(ds.take(plan.train_indices(fold)), ds.take(plan.test_indices(fold)))
            for fold in range(plan.k)]


def mask_accuracies(folds, wrapper: LearnerSpec, masks) -> list:
    """Mean held-fold accuracy of `wrapper` on the columns of each 0/1 mask
    in `masks` (m, n_features), none of them empty, over folds from
    `wrapper_folds`: for each mask, what `train` and `predict` on each
    fold's masked columns give.

    Every fold's labels and held part are checked (`check_labels`,
    `check_finite`) before any fit. Then `stack_labels` fits the masks of
    each popcount on C-ordered stacks of their columns, at most
    `STACK_CELLS` cells a stack: the layout of a table masked first.
    """
    masks = np.asarray(masks, dtype=bool)
    if not masks.any(axis=1).all():
        raise ValueError("every mask must select at least one column")
    for fit_part, held in folds:
        check_labels(wrapper.algorithm, fit_part.labels)
        check_finite(wrapper.algorithm, held.features)
    correct = np.zeros(len(masks), dtype=np.int64)
    sizes = masks.sum(axis=1)
    for fit_part, held in folds:
        for k in np.unique(sizes):
            rows = np.flatnonzero(sizes == k)
            columns = np.nonzero(masks[rows])[1].reshape(rows.size, k)
            per_stack = max(1, STACK_CELLS // (fit_part.n_samples * int(k)))
            for lo in range(0, rows.size, per_stack):
                cols = columns[lo:lo + per_stack]
                labels = stack_labels(
                    wrapper, fit_part.features[:, cols].transpose(1, 0, 2).copy(),
                    fit_part.labels, held.features[:, cols].transpose(1, 0, 2).copy())
                correct[rows[lo:lo + per_stack]] += (labels == held.labels).sum(axis=1)
    total = sum(held.n_samples for _, held in folds)
    return [int(c) / total for c in correct]


def all_masks(n_bits: int) -> np.ndarray:
    """Every non-empty mask over `n_bits` genes, mask i + 1 in row i (bit 0
    of a mask is its first gene)."""
    return ((np.arange(1, 2**n_bits)[:, None] >> np.arange(n_bits)) & 1).astype(np.uint8)


def _table_index(masks) -> np.ndarray:
    """Each mask's row in `all_masks`."""
    return (np.asarray(masks, dtype=np.int64) << np.arange(masks.shape[1])).sum(axis=1) - 1


def table_best(table: np.ndarray, n_bits: int) -> tuple:
    """(the best mask of a filled `table` under `_better`, how many masks tie
    at its fitness)."""
    top = np.flatnonzero(table == table.max())
    masks = all_masks(n_bits)[top]
    best = masks[0]
    for bits in masks[1:]:
        if _better((table.max(), bits), (table.max(), best)):
            best = bits
    return best, top.size


def wrapper_plan(ds: Dataset, cv_k: int, seed: int) -> FoldPlan:
    """The stratified fold plan that wrapper fitness is scored on."""
    return make_folds(ds, cv_k, stratified=True, seed=derive_seed(seed, "wrapper-cv"))


def run_ga(config: GaConfig, ds: Dataset, wrapper: LearnerSpec, cv_k: int = 5) -> GaRun:
    """Feature-mask search: fitness is the wrapper's CV accuracy on one fold
    plan fixed for the whole run, memoized by mask. With a wrapper that fits
    stacks and at most `TABLE_BITS` features, every mask is scored in one
    `mask_accuracies` call before the search, which then looks its masks up;
    otherwise each of the search's batches is one call. The search asks for
    the same masks in the same order either way, so it returns the same run,
    the filled `table` aside."""
    if config.n_bits != ds.n_features:
        raise ConfigError(
            f"GA n_bits={config.n_bits} but the dataset has {ds.n_features} features"
        )
    folds = wrapper_folds(ds, wrapper_plan(ds, cv_k, config.seed))
    if config.n_bits <= TABLE_BITS and hasattr(ALGORITHMS[wrapper.algorithm][0], "stack_labels"):
        table = np.array(mask_accuracies(folds, wrapper, all_masks(config.n_bits)))
        return replace(evolve(config, lambda masks: table[_table_index(masks)]), table=table)
    return evolve(config, lambda masks: mask_accuracies(folds, wrapper, masks))


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
