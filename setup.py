"""Packaging metadata (legacy setup.py on purpose: `pip install -e .`
must work without the `wheel` package, which PEP 660 requires).

The dependency split is the one the import contract enforces
(docs/architecture.md, "Import policy"): numpy is all that running
anything needs; sympy is needed only by `repro check complexity` and
`# param-range:` certificates, and networkx only by the overlay
builders, each imported on first use; scipy only by the tests, as an
oracle.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    extras_require={"check": ["sympy"], "overlay": ["networkx"], "test": ["scipy"]},
)
