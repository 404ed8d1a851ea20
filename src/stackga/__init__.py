"""Stacked-generalization ensemble toolkit with GA wrapper feature selection.

Submodules: dataset (loading/cleaning/splitting), metrics (confusion/ROC),
learners (the base classifiers), stacking (two-level ensembles), genetic
(island-model GA over feature masks), config (experiment settings), pipeline
(experiment orchestration), report (rendering), records (dataclasses to and
from JSON), cli (command-line front end).
"""

__version__ = "0.1.0"

from .dataset import Dataset, FoldPlan, PIMA_SCHEMA, Schema  # noqa: F401
from .learners import LearnerSpec, TrainedModel, predict, predict_proba, train  # noqa: F401
from .stacking import StackModel, StackSpec, predict_stack, train_stack  # noqa: F401
from .genetic import Chromosome, GaConfig, GaRun, run_ga  # noqa: F401
