"""Setuptools shim for environments without the ``wheel`` package.

``pip install -e .`` on offline machines that lack ``wheel`` falls back to the
legacy ``setup.py develop`` path, which this file enables.  This file is
the project's only packaging metadata source (there is no
``pyproject.toml``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Sizeless: predicting the optimal size of serverless functions "
        "(Middleware 2021) - full reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={
        # Best-effort JIT acceleration for backend="compiled"; the backend
        # falls back to its pure-NumPy kernels when numba is absent.
        "compiled": ["numba"],
    },
)
