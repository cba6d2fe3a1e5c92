"""Regenerate every table and figure of the paper's evaluation.

Thin wrapper around :mod:`repro.experiments.runner`.  Pass ``quick``,
``standard`` (default) or ``paper`` to pick the experiment scale, and
optionally an execution backend (``serial`` or ``vectorized``, the
default)::

    python examples/reproduce_evaluation.py quick
    python examples/reproduce_evaluation.py paper vectorized
"""

from __future__ import annotations

import sys

from repro.experiments.runner import main


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
