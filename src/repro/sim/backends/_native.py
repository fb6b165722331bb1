"""Build, cache and load the numpy backend's compiled kernels.

A kernel's C source lives in a Python module as a string constant, so it
ships with the package and is covered by every source digest.  It is
compiled once with the system C compiler (:data:`COMPILE_COMMAND`) into
this package's ``__pycache__``, under a name keyed by the sha256 of the
source plus the compile command, written atomically (temp file, then
``os.replace``) so concurrent processes never load a partial object.  A
``.sha256`` sidecar holding the object's own digest is published after
it: an object whose bytes do not match (truncated, overwritten, or never
committed) is rebuilt instead of loaded, because the dynamic loader can
map a truncated object and crash later rather than fail.  Later
processes only verify and load the cached object, with stdlib
:mod:`ctypes` — no Python headers, no third-party build tooling.  The
object is cached even under ``PYTHONDONTWRITEBYTECODE``: compiling it
in every process would cost more than most runs it serves.
Stdlib-only, so the backend registry can probe availability without
importing numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

from ...errors import BackendError

#: The compiler invocation; the object's cache key covers it.
COMPILE_COMMAND = ("cc", "-O2", "-shared", "-fPIC")

CACHE_DIR = Path(__file__).resolve().parent / "__pycache__"


def object_path(name: str, source: str) -> Path:
    """Where the compiled ``source`` is cached."""
    digest = hashlib.sha256()
    digest.update(source.encode())
    digest.update("\0".join(COMPILE_COMMAND).encode())
    return CACHE_DIR / f"{name}-{digest.hexdigest()[:24]}.so"


def _compiler_missing() -> str:
    return (
        f"its compiled kernels need a C compiler ({COMPILE_COMMAND[0]!r} on PATH) "
        "and no cached build exists"
    )


def unavailable_reason(name: str, source: str) -> Optional[str]:
    """None when ``source`` is cached or can be compiled here."""
    if _verified(object_path(name, source)) or shutil.which(COMPILE_COMMAND[0]):
        return None
    return _compiler_missing()


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".sha256")


def _publish(target: Path, data: bytes) -> None:
    """Write ``data`` to ``target`` atomically (temp file, then replace)."""
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}-", suffix=".tmp", dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _verified(path: Path) -> bool:
    """Whether ``path`` holds exactly the bytes its sidecar committed."""
    try:
        expected = _sidecar(path).read_text().strip()
        return hashlib.sha256(path.read_bytes()).hexdigest() == expected
    except OSError:
        return False


def _compile(source: str, target: Path) -> None:
    compiler = shutil.which(COMPILE_COMMAND[0])
    if compiler is None:
        raise BackendError(f"backend 'numpy' is unavailable: {_compiler_missing()}")
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as scratch:
        built = Path(scratch) / target.name
        done = subprocess.run(
            [compiler, *COMPILE_COMMAND[1:], "-o", str(built), "-x", "c", "-"],
            input=source,
            capture_output=True,
            text=True,
            check=False,
        )
        if done.returncode != 0:
            raise BackendError(
                f"compiling the numpy backend's {target.stem} kernel failed:\n"
                f"{done.stderr.strip()}"
            )
        data = built.read_bytes()
    _publish(target, data)
    _publish(_sidecar(target), hashlib.sha256(data).hexdigest().encode())


def load_library(name: str, source: str) -> ctypes.CDLL:
    """Load the compiled ``source``, building it first when needed."""
    path = object_path(name, source)
    if not _verified(path):
        try:
            _compile(source, path)
        except PermissionError:
            # A read-only install: build into a private directory instead.
            path = Path(tempfile.mkdtemp(prefix="repro-kernel-")) / path.name
            _compile(source, path)
    return ctypes.CDLL(str(path))
