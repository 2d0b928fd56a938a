"""Evolutionary training of product-unit neural network classifiers."""

from .data import preprocess_file, stratified_holdout
from .evolution import (
    EaParams,
    EvalCounter,
    Individual,
    MutationState,
    evolve_generation,
    initialize_population,
    run_evolution,
    structural_mutation,
)
from .experiment import make_config, run_experiment, summarize
from .network import (
    class_probabilities,
    count_connections,
    cross_entropy_error,
    evaluate_outputs,
    random_network,
    serialize_network,
)
from .twostage import expected_evaluations, run_two_stage

__version__ = "0.1.0"
