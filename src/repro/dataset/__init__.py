"""Dataset generation: the measurement harness and training-dataset builder.

The paper measures 2 000 synthetic functions across six memory sizes (10
minutes at 30 req/s each) with a Go harness driving Vegeta.  This package is
the equivalent for the simulated platform:

- :mod:`repro.dataset.table`      -- the columnar :class:`MeasurementTable`:
  dense ``(n_functions, n_sizes, n_metrics, n_stats)`` stat arrays, the
  canonical dataflow from engine batch columns to training matrices.
- :mod:`repro.dataset.schema`     -- the object API: :class:`FunctionMeasurement`
  (one function measured at several sizes) and :class:`MeasurementDataset`
  (a collection); materializable as a view over the table.
- :mod:`repro.dataset.harness`    -- the measurement harness: deploy, drive
  the open-loop load, discard warm-up, aggregate straight into table rows.
- :mod:`repro.dataset.generation` -- end-to-end training-dataset generation
  from the synthetic function generator.
- :mod:`repro.dataset.io`         -- JSON (optionally gzipped) / CSV / NPZ
  persistence of datasets and tables (contracts in ``docs/FORMATS.md``).
"""

from repro.dataset.generation import DatasetGenerationConfig, TrainingDatasetGenerator
from repro.dataset.harness import HarnessConfig, MeasurementHarness
from repro.dataset.io import (
    load_dataset_csv,
    load_dataset_json,
    load_dataset_npz,
    load_table_npz,
    save_dataset_csv,
    save_dataset_json,
    save_dataset_npz,
    save_table_npz,
)
from repro.dataset.schema import FunctionMeasurement, MeasurementDataset
from repro.dataset.table import MeasurementTable, MeasurementTableBuilder

__all__ = [
    "FunctionMeasurement",
    "MeasurementDataset",
    "MeasurementTable",
    "MeasurementTableBuilder",
    "MeasurementHarness",
    "HarnessConfig",
    "TrainingDatasetGenerator",
    "DatasetGenerationConfig",
    "save_dataset_json",
    "load_dataset_json",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_dataset_npz",
    "load_dataset_npz",
    "save_table_npz",
    "load_table_npz",
]
