"""The package metadata that ``pip install -e .`` reads from ``pyproject.toml``."""

import tomllib
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def test_pyproject_declares_the_repro_package():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        metadata = tomllib.load(handle)
    project = metadata["project"]
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["requires-python"] == ">=3.11"
    assert project["dependencies"] == ["numpy"]
    setuptools = metadata["tool"]["setuptools"]
    assert setuptools["packages"]["find"]["where"] == ["src"]
    # native.py compiles the C serving, simulation and NoC kernels from the
    # installed source files.
    assert setuptools["package-data"]["repro.service"] == ["kernels.c"]
    assert setuptools["package-data"]["repro.sim"] == ["kernel.c"]
    assert setuptools["package-data"]["repro.noc"] == ["kernel.c"]
