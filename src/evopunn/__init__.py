"""Evolutionary training of product-unit neural network classifiers.

The package resolves its public names on first use (PEP 562): `import
evopunn` loads no submodule, and the first use of a name such as
`evopunn.run_two_stage` or `evopunn.network` imports the submodule that
defines it. So a process that only prepares data (`from evopunn import data,
datasets`) never loads the training engine.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("cli", "data", "datasets", "draws", "evolution", "experiment", "network",
               "twostage")

_EXPORTS = {
    "data": ("preprocess_file", "stratified_holdout"),
    "evolution": ("EaParams", "EvalCounter", "Individual", "MutationState",
                  "evolve_generation", "initialize_population", "run_evolution",
                  "structural_mutation"),
    "experiment": ("make_config", "run_experiment", "summarize"),
    "network": ("class_probabilities", "count_connections", "cross_entropy_error",
                "evaluate_outputs", "random_network", "serialize_network"),
    "twostage": ("expected_evaluations", "run_two_stage"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOMES, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
