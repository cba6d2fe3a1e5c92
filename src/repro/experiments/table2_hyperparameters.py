"""Table 2 — hyperparameter grid search for the regression network.

The paper's grid covers optimizer (SGD/Adam/Adagrad), loss (MSE/MAE/MAPE),
epochs (200/500/1000), neurons (64/128/256), L2 (0..1e-2) and layers (2..5),
and selects Adam / MAPE / 200 epochs / 256 neurons / 1e-2 / 4 layers.  The
full 1 296-combination grid is expensive; :func:`run` defaults to a reduced
64-combination grid that still spans every axis, and accepts
``full_grid=True`` to evaluate the paper's complete ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.experiments.context import ExperimentContext
from repro.ml.grid_search import GridSearch, GridSearchResult
from repro.ml.network import NetworkConfig

#: The paper's full parameter ranges (Table 2, "Parameter range" column).
PAPER_PARAMETER_RANGES: dict[str, list[Any]] = {
    "optimizer": ["sgd", "adam", "adagrad"],
    "loss": ["mse", "mae", "mape"],
    "epochs": [200, 500, 1000],
    "n_neurons": [64, 128, 256],
    "l2": [0.0, 0.0001, 0.001, 0.01],
    "n_layers": [2, 3, 4, 5],
}

#: The paper's selected values (Table 2, "Selected" column).
PAPER_SELECTED: dict[str, Any] = {
    "optimizer": "adam",
    "loss": "mape",
    "epochs": 200,
    "n_neurons": 256,
    "l2": 0.01,
    "n_layers": 4,
}

#: Reduced grid spanning every axis with two values each (64 combinations).
REDUCED_PARAMETER_RANGES: dict[str, list[Any]] = {
    "optimizer": ["sgd", "adam"],
    "loss": ["mse", "mape"],
    "epochs": [100, 200],
    "n_neurons": [64, 128],
    "l2": [0.0001, 0.01],
    "n_layers": [2, 3],
}


@dataclass
class Table2Result:
    """Grid-search outcome plus the paper's reference values."""

    search_result: GridSearchResult
    selected_parameters: dict[str, Any] = field(default_factory=dict)
    paper_selected: dict[str, Any] = field(default_factory=lambda: dict(PAPER_SELECTED))
    n_combinations: int = 0

    def rows(self) -> list[dict[str, Any]]:
        """Table rows: parameter, searched range, selected value, paper value."""
        grid = self.search_result.results[0]["params"].keys() if self.search_result.results else []
        return [
            {
                "parameter": parameter,
                "selected": self.selected_parameters.get(parameter),
                "paper_selected": self.paper_selected.get(parameter),
            }
            for parameter in grid
        ]


def run(
    context: ExperimentContext | None = None,
    base_memory_mb: int = 256,
    full_grid: bool = False,
    n_splits: int = 3,
    max_samples: int | None = 150,
    seed: int = 0,
) -> Table2Result:
    """Run the hyperparameter grid search on the synthetic training data.

    Parameters
    ----------
    context:
        Shared experiment context (a standard-scale one is built if omitted).
    base_memory_mb:
        Base size whose training matrices the search uses.
    full_grid:
        Evaluate the paper's complete ranges (1 296 combinations) instead of
        the reduced 64-combination grid.
    n_splits:
        Cross-validation folds per combination.
    max_samples:
        Optional cap on the number of training functions used by the search
        (keeps the reduced grid fast); ``None`` uses the full dataset.
    """
    context = context if context is not None else ExperimentContext()
    # The search works on the assembled matrices; it never touches the
    # dense stat arrays directly.
    matrices = context.training_matrices(base_memory_mb)
    features = matrices.features
    ratios = matrices.ratios
    if max_samples is not None and len(features) > max_samples:
        features = features[:max_samples]
        ratios = ratios[:max_samples]

    ranges = PAPER_PARAMETER_RANGES if full_grid else REDUCED_PARAMETER_RANGES
    base_config = NetworkConfig(learning_rate=0.01, batch_size=32, seed=seed)
    search = GridSearch(ranges, base_config=base_config, n_splits=n_splits, seed=seed)
    search_result = search.run(features, ratios)
    result = Table2Result(
        search_result=search_result,
        selected_parameters=search_result.selected_parameters(),
        n_combinations=len(search.combinations()),
    )
    return result
