"""The package's name, version, Python floor and dependencies are written
in ``pyproject.toml``, in the in-tree build backend's wheel metadata
(``_repro_build._METADATA``) and, for the version, in ``repro.__version__``:
all three must agree, and declare no runtime dependency."""

from __future__ import annotations

import email
import importlib.util
import pathlib

import pytest

import repro

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

_REPO = pathlib.Path(__file__).resolve().parent.parent


def _wheel_metadata():
    spec = importlib.util.spec_from_file_location("_repro_build", _REPO / "_repro_build.py")
    backend = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(backend)
    return email.message_from_string(backend._METADATA)


def test_pyproject_wheel_metadata_and_version_agree():
    project = tomllib.loads((_REPO / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    metadata = _wheel_metadata()
    assert metadata["Name"] == project["name"]
    assert metadata["Version"] == project["version"] == repro.__version__
    assert metadata["Requires-Python"] == project["requires-python"]
    # The package runs on the standard library alone (tests/test_imports.py).
    assert project["dependencies"] == []
    assert metadata.get_all("Requires-Dist") is None
