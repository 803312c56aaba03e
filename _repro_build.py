"""Minimal in-tree PEP 517/660 build backend (stdlib only).

This repository targets offline, air-gapped environments where the
``wheel`` distribution may be absent and pip cannot download build
dependencies.  The stock setuptools backend of older environments fails
there ("invalid command 'bdist_wheel'"), so we ship a tiny backend that
can produce both a regular wheel (copying ``src/repro``) and a PEP 660
editable wheel (a ``.pth`` pointer at ``src``).  It has no dependencies
beyond the standard library, which makes ``pip install -e .`` work even
inside pip's isolated build environment.
"""

from __future__ import annotations

import base64
import hashlib
import os
import tarfile
import zipfile

_NAME = "repro"
_VERSION = "1.0.0"
_ROOT = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_ROOT, "src")

_METADATA = f"""\
Metadata-Version: 2.1
Name: {_NAME}
Version: {_VERSION}
Summary: Reproduction of 'An Efficient Permissioned Blockchain with Provable Reputation Mechanism' (ICDCS 2021 poster)
Requires-Python: >=3.10
"""

_WHEEL_META = """\
Wheel-Version: 1.0
Generator: repro-inline-backend (1.0.0)
Root-Is-Purelib: true
Tag: py3-none-any
"""


def _record_line(name: str, data: bytes) -> str:
    digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
    return f"{name},sha256={digest.decode()},{len(data)}"


def _write_wheel(path: str, files: dict[str, bytes]) -> None:
    dist_info = f"{_NAME}-{_VERSION}.dist-info"
    files = dict(files)
    files[f"{dist_info}/METADATA"] = _METADATA.encode()
    files[f"{dist_info}/WHEEL"] = _WHEEL_META.encode()
    record_name = f"{dist_info}/RECORD"
    record_lines = [_record_line(name, data) for name, data in files.items()]
    record_lines.append(f"{record_name},,")
    files[record_name] = ("\n".join(record_lines) + "\n").encode()
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in files.items():
            zf.writestr(name, data)


def _package_files() -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    pkg_root = os.path.join(_SRC, _NAME)
    for dirpath, _dirnames, filenames in os.walk(pkg_root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            full = os.path.join(dirpath, filename)
            rel = os.path.relpath(full, _SRC).replace(os.sep, "/")
            with open(full, "rb") as fh:
                out[rel] = fh.read()
    return out


# -- PEP 517 hooks ---------------------------------------------------------


def get_requires_for_build_wheel(config_settings=None):
    return []


def get_requires_for_build_editable(config_settings=None):
    return []


def get_requires_for_build_sdist(config_settings=None):
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None):
    filename = f"{_NAME}-{_VERSION}-py3-none-any.whl"
    _write_wheel(os.path.join(wheel_directory, filename), _package_files())
    return filename


def build_editable(wheel_directory, config_settings=None, metadata_directory=None):
    filename = f"{_NAME}-{_VERSION}-py3-none-any.whl"
    pth = f"__editable__.{_NAME}.pth"
    _write_wheel(
        os.path.join(wheel_directory, filename), {pth: (_SRC + "\n").encode()}
    )
    return filename


def prepare_metadata_for_build_wheel(metadata_directory, config_settings=None):
    dist_info = f"{_NAME}-{_VERSION}.dist-info"
    target = os.path.join(metadata_directory, dist_info)
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "METADATA"), "w") as fh:
        fh.write(_METADATA)
    with open(os.path.join(target, "WHEEL"), "w") as fh:
        fh.write(_WHEEL_META)
    return dist_info


def prepare_metadata_for_build_editable(metadata_directory, config_settings=None):
    return prepare_metadata_for_build_wheel(metadata_directory, config_settings)


def build_sdist(sdist_directory, config_settings=None):
    filename = f"{_NAME}-{_VERSION}.tar.gz"
    base = f"{_NAME}-{_VERSION}"
    with tarfile.open(os.path.join(sdist_directory, filename), "w:gz") as tf:
        for member in ("pyproject.toml", "_repro_build.py", "README.md", "src"):
            full = os.path.join(_ROOT, member)
            if os.path.exists(full):
                tf.add(full, arcname=f"{base}/{member}")
    return filename
