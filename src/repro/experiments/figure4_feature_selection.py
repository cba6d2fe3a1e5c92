"""Figure 4 — sequential forward feature selection over three rounds.

Round 1 selects from the F0 mean features; round 2 adds the per-second
normalised features and selects again; round 3 adds standard-deviation and
coefficient-of-variation features of the surviving metrics and selects one
last time.  The figure shows the cross-validated MSE as a function of the
number of selected features for each round; the error should drop steeply for
the first handful of features and then flatten.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.feature_selection import SelectionRound, SequentialForwardSelection
from repro.core.features import feature_set_f0, feature_superset
from repro.core.training import build_training_matrices
from repro.experiments.context import ExperimentContext
from repro.ml.linear import LinearRegression
from repro.monitoring.metrics import METRIC_NAMES


@dataclass
class Figure4Result:
    """The three selection rounds and the final feature set."""

    rounds: list[SelectionRound] = field(default_factory=list)
    final_features: list[str] = field(default_factory=list)
    required_metrics: list[str] = field(default_factory=list)

    def curves(self) -> dict[int, list[tuple[int, float]]]:
        """Round index -> (n features, cross-validated MSE) curve."""
        return {index + 1: round_.curve() for index, round_ in enumerate(self.rounds)}


def run(
    context: ExperimentContext | None = None,
    base_memory_mb: int = 256,
    max_features_per_round: int = 12,
    model_alpha: float = 1.0,
    seed: int = 3,
) -> Figure4Result:
    """Reproduce the three feature-selection rounds.

    The selection uses the closed-form ridge regressor as the estimator inside
    the selection loop (the paper uses its neural network; a full NN-in-the-
    loop selection is available by passing a different factory to
    :class:`~repro.core.feature_selection.SequentialForwardSelection`, at a
    substantially higher runtime).
    """
    context = context if context is not None else ExperimentContext()
    table = context.training_table()
    targets = tuple(size for size in context.scale.memory_sizes_mb if size != base_memory_mb)

    # One vectorized extraction of the full feature grammar; every selection
    # round below slices candidate columns out of this superset matrix
    # instead of re-extracting features per round.
    superset = feature_superset()
    matrices = build_training_matrices(
        table,
        base_memory_mb=base_memory_mb,
        target_memory_sizes_mb=targets,
        feature_names=tuple(superset),
    )
    superset_matrix, y = matrices.features, matrices.ratios
    column_of = {name: index for index, name in enumerate(superset)}

    def make_selector() -> SequentialForwardSelection:
        return SequentialForwardSelection(
            model_factory=lambda: LinearRegression(alpha=model_alpha),
            n_splits=3,
            max_features=max_features_per_round,
            seed=seed,
        )

    def run_round(feature_names: list[str]) -> SelectionRound:
        columns = [column_of[name] for name in feature_names]
        return make_selector().run(superset_matrix[:, columns], y, feature_names)

    result = Figure4Result()

    # Round 1: means of every metric (F0).
    f0 = feature_set_f0()
    round1 = run_round(f0)
    result.rounds.append(round1)

    # Round 2: round-1 survivors plus their per-second normalised variants (F2).
    survivors = [name.removesuffix("_mean") for name in round1.selected_features]
    f2 = [f"{metric}_mean" for metric in survivors]
    f2 += [f"{metric}_per_second" for metric in survivors if metric != "execution_time"]
    if "execution_time_mean" not in f2:
        f2.insert(0, "execution_time_mean")
    round2 = run_round(f2)
    result.rounds.append(round2)

    # Round 3: round-2 survivors plus std / cv of the surviving base metrics (F4).
    surviving_metrics = sorted(
        {
            name.removesuffix("_per_second").removesuffix("_mean")
            for name in round2.selected_features
        }
    )
    f4 = list(dict.fromkeys(round2.selected_features))
    for metric in surviving_metrics:
        if metric == "execution_time":
            continue
        f4.append(f"{metric}_std")
        f4.append(f"{metric}_cv")
    round3 = run_round(f4)
    result.rounds.append(round3)

    result.final_features = list(round3.selected_features)
    metrics = set()
    for name in result.final_features:
        for metric in METRIC_NAMES:
            if name.startswith(metric):
                metrics.add(metric)
    metrics.discard("execution_time")
    result.required_metrics = sorted(metrics)
    return result
