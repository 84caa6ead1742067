"""Setuptools entry point.

A ``setup.py`` is kept (rather than PEP-517 only) because the target
environment has no ``wheel`` package and no network access; the legacy
``pip install -e .`` path works without either.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Multi-dimensional Parallel Training of Winograd "
        "Layer on Memory-Centric Architecture' (MICRO 2018)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
