"""Persistence of measurement data (JSON for fidelity, CSV for analysis, NPZ for speed).

The paper publishes its 12 000-measurement dataset in a CodeOcean capsule;
these helpers let users export and re-import the simulator-generated
equivalent so that model training can be decoupled from dataset generation.

Three formats, one invariant — loading what was saved reproduces the same
measurement table:

- **JSON** (optionally gzip-compressed): full fidelity including segments and
  metadata, human-inspectable.
- **CSV**: one row per (function, size), for spreadsheets and pandas;
  drops segment composition and dataset metadata.
- **NPZ**: the columnar :class:`~repro.dataset.table.MeasurementTable` arrays
  saved directly via :func:`numpy.savez_compressed` — the fast path for
  paper-scale datasets.

Every format is versioned, and every loader raises
:class:`~repro.errors.DatasetError` (never a bare ``KeyError`` or
``ValueError``) on missing files, missing keys, corrupt payloads or
unsupported versions.  The on-disk contracts are specified field by field in
``docs/FORMATS.md``.
"""

from __future__ import annotations

import csv
import gzip
import json
import zipfile
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.dataset.schema import FunctionMeasurement, MeasurementDataset, summary_from_flat
from repro.dataset.table import MeasurementTable
from repro.monitoring.metrics import METRIC_NAMES

_FORMAT_VERSION = 1
_NPZ_FORMAT_VERSION = 1

#: Keys every whole-table NPZ must carry (documented in ``docs/FORMATS.md``).
TABLE_NPZ_KEYS = (
    "format_version",
    "values",
    "n_invocations",
    "memory_sizes_mb",
    "function_names",
    "applications",
    "metric_names",
    "stat_names",
    "segments_json",
    "description",
    "metadata_json",
)

_GZIP_MAGIC = b"\x1f\x8b"


def _wants_gzip(path: Path, compress: bool | None) -> bool:
    return path.suffix == ".gz" if compress is None else bool(compress)


def save_dataset_json(
    dataset: MeasurementDataset,
    path: str | Path,
    compress: bool | None = None,
    indent: int | None = None,
) -> Path:
    """Serialise a dataset to a JSON file and return the written path.

    Parameters
    ----------
    compress:
        Write gzip-compressed JSON.  ``None`` (default) infers from the path
        suffix (``.gz`` compresses).
    indent:
        Pretty-print indentation.  ``None`` (default) writes compact JSON
        with minimal separators — at paper scale the indented form is several
        times larger and slower to write.
    """
    path = Path(path)
    payload = {
        "format_version": _FORMAT_VERSION,
        "description": dataset.description,
        "metadata": dataset.metadata,
        "measurements": [
            {
                "function_name": measurement.function_name,
                "application": measurement.application,
                "segments": [list(pair) for pair in measurement.segments],
                "summaries": {
                    str(memory_mb): {
                        "n_invocations": summary.n_invocations,
                        "values": summary.as_flat_dict(),
                    }
                    for memory_mb, summary in sorted(measurement.summaries.items())
                },
            }
            for measurement in dataset.measurements
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    separators = (",", ":") if indent is None else None
    if _wants_gzip(path, compress):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, separators=separators)
    else:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, separators=separators)
    return path


def load_dataset_json(path: str | Path) -> MeasurementDataset:
    """Load a dataset previously written by :func:`save_dataset_json`.

    Transparently handles both plain and gzip-compressed files (detected by
    magic bytes, not by suffix).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    try:
        with path.open("rb") as probe:
            compressed = probe.read(2) == _GZIP_MAGIC
        if compressed:
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, gzip.BadGzipFile, EOFError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DatasetError(f"corrupt dataset file {path}: expected a JSON object")
    if payload.get("format_version") != _FORMAT_VERSION:
        raise DatasetError(
            f"unsupported dataset format version {payload.get('format_version')!r}"
        )
    dataset = MeasurementDataset(
        description=payload.get("description", ""), metadata=payload.get("metadata", {})
    )
    try:
        for entry in payload.get("measurements", []):
            measurement = FunctionMeasurement(
                function_name=entry["function_name"],
                application=entry.get("application", "synthetic"),
                segments=tuple((name, float(value)) for name, value in entry.get("segments", [])),
            )
            for memory_str, summary_entry in entry.get("summaries", {}).items():
                summary = summary_from_flat(
                    function_name=entry["function_name"],
                    memory_mb=float(memory_str),
                    flat=summary_entry["values"],
                    n_invocations=int(summary_entry["n_invocations"]),
                )
                measurement.add_summary(int(memory_str), summary)
            dataset.add(measurement)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None
    return dataset


def save_dataset_csv(dataset: MeasurementDataset, path: str | Path) -> Path:
    """Export a dataset to a flat CSV (one row per function and memory size).

    Segment composition and dataset-level metadata are not representable in
    the flat layout and are dropped; statistics round-trip exactly through
    :func:`load_dataset_csv`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames = ["function_name", "application", "memory_mb", "n_invocations"]
    for metric in METRIC_NAMES:
        fieldnames.extend([f"{metric}_mean", f"{metric}_std", f"{metric}_cv"])
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for measurement in dataset.measurements:
            for memory_mb in measurement.memory_sizes:
                summary = measurement.summary_at(memory_mb)
                row: dict[str, object] = {
                    "function_name": measurement.function_name,
                    "application": measurement.application,
                    "memory_mb": memory_mb,
                    "n_invocations": summary.n_invocations,
                }
                row.update(summary.as_flat_dict())
                writer.writerow(row)
    return path


def load_dataset_csv(path: str | Path) -> MeasurementDataset:
    """Load a dataset previously written by :func:`save_dataset_csv`.

    Rows are grouped by function in file order; segments and metadata are
    empty (the CSV layout does not carry them).  A header-only file loads as
    an empty dataset; a file without the expected header is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    dataset = MeasurementDataset()
    measurements: dict[str, FunctionMeasurement] = {}
    required_columns = {"function_name", "application", "memory_mb", "n_invocations"}
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            header = set(reader.fieldnames or ())
            if not required_columns <= header:
                raise DatasetError(
                    f"corrupt dataset file {path}: "
                    f"missing columns {sorted(required_columns - header)}"
                )
            for row in reader:
                name = row["function_name"]
                measurement = measurements.get(name)
                if measurement is None:
                    measurement = FunctionMeasurement(
                        function_name=name, application=row.get("application", "synthetic")
                    )
                    measurements[name] = measurement
                    dataset.add(measurement)
                memory_mb = int(float(row["memory_mb"]))
                flat = {
                    key: float(value)
                    for key, value in row.items()
                    if key not in ("function_name", "application", "memory_mb", "n_invocations")
                }
                summary = summary_from_flat(
                    function_name=name,
                    memory_mb=float(memory_mb),
                    flat=flat,
                    n_invocations=int(row["n_invocations"]),
                )
                measurement.add_summary(memory_mb, summary)
    except DatasetError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None
    return dataset


def save_table_npz(table: MeasurementTable, path: str | Path) -> Path:
    """Save a columnar measurement table as a compressed NPZ archive.

    The fast round-trip: the dense stat arrays are written directly (no
    per-summary flattening), so paper-scale datasets save and load in
    milliseconds.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        np.savez_compressed(
            handle,
            format_version=np.int64(_NPZ_FORMAT_VERSION),
            values=table.values,
            n_invocations=np.asarray(table.n_invocations, dtype=np.int64),
            memory_sizes_mb=np.asarray(table.memory_sizes_mb, dtype=np.int64),
            function_names=np.asarray(table.function_names, dtype=np.str_),
            applications=np.asarray(table.applications, dtype=np.str_),
            metric_names=np.asarray(table.metric_names, dtype=np.str_),
            stat_names=np.asarray(table.stat_names, dtype=np.str_),
            segments_json=np.asarray(json.dumps([list(map(list, s)) for s in table.segments])),
            description=np.asarray(table.description),
            metadata_json=np.asarray(json.dumps(table.metadata)),
        )
    return path


def load_table_npz(path: str | Path) -> MeasurementTable:
    """Load a measurement table previously written by :func:`save_table_npz`."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file {path} does not exist")
    try:
        with np.load(path, allow_pickle=False) as archive:
            missing = [key for key in TABLE_NPZ_KEYS if key not in archive]
            if missing:
                raise DatasetError(f"corrupt dataset file {path}: missing keys {missing}")
            version = int(archive["format_version"])
            if version != _NPZ_FORMAT_VERSION:
                raise DatasetError(f"unsupported dataset format version {version!r}")
            segments = tuple(
                tuple((str(name), float(value)) for name, value in entry)
                for entry in json.loads(str(archive["segments_json"]))
            )
            return MeasurementTable(
                function_names=tuple(str(name) for name in archive["function_names"]),
                applications=tuple(str(app) for app in archive["applications"]),
                segments=segments,
                memory_sizes_mb=tuple(int(size) for size in archive["memory_sizes_mb"]),
                values=np.asarray(archive["values"], dtype=float),
                n_invocations=np.asarray(archive["n_invocations"], dtype=np.int64),
                metric_names=tuple(str(metric) for metric in archive["metric_names"]),
                stat_names=tuple(str(stat) for stat in archive["stat_names"]),
                description=str(archive["description"]),
                metadata=json.loads(str(archive["metadata_json"])),
            )
    except DatasetError:
        raise
    except (zipfile.BadZipFile, OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DatasetError(f"corrupt dataset file {path}: {exc!r}") from None


def save_dataset_npz(dataset: MeasurementDataset | MeasurementTable, path: str | Path) -> Path:
    """Save measurements as NPZ (columnarizing an object-API dataset first)."""
    table = dataset if isinstance(dataset, MeasurementTable) else dataset.to_table()
    return save_table_npz(table, path)


def load_dataset_npz(path: str | Path) -> MeasurementDataset:
    """Load an NPZ archive as an object-API dataset (table view)."""
    return load_table_npz(path).to_dataset()

