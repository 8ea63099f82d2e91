"""Packaging metadata (legacy setup.py on purpose: `pip install -e .`
must work without the `wheel` package, which PEP 660 requires).

The dependency split is the one the import contract enforces
(docs/architecture.md, "Import policy"): numpy is needed to run
anything and scipy by mean-field integration and the fairness
chi-square; sympy only by `repro.check`'s symbolic paths and networkx
only by the overlay builders, each imported on first use.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    extras_require={"check": ["sympy"], "overlay": ["networkx"]},
)
