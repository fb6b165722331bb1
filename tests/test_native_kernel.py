"""Build, cache and load of the numpy backend's compiled stream-lane kernel.

Each scenario that needs a cold or broken cache runs in a subprocess over a
copy of the package (no ``__pycache__``), so the cache the rest of the
suite shares is never touched; "no compiler" is an empty ``PATH``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro  # noqa: E402
from repro.sim.backends import _native, _stream_kernel  # noqa: E402

PACKAGE = Path(repro.__file__).resolve().parent

#: Runs one small SHIFT simulation on the numpy backend and checks it
#: against the python backend; prints the kernel object's path.
SIMULATE = """
from repro.sim import simulate
from repro.sim.backends import _native, _stream_kernel
from repro.workloads import generate_traces, scaled_workload
traces = generate_traces(scaled_workload("oltp_db2", 16), num_cores=2, blocks_per_core=600)
numpy = simulate(traces, prefetcher="shift", backend="numpy")
python = simulate(traces, prefetcher="shift", backend="python")
assert numpy == python
print(_native.object_path("stream_kernel", _stream_kernel.SOURCE))
"""

#: Reports what the registry says about numpy.
PROBE = """
from repro.errors import BackendError
from repro.sim.backends import available_backends, get_backend
print("available:", ",".join(available_backends()))
try:
    get_backend("numpy")
except BackendError as error:
    print("error:", error)
"""


def _run(code, pythonpath, tmp_path, compiler=False):
    """``code`` in a fresh interpreter; without ``compiler``, PATH is empty."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    if not compiler:
        env["PATH"] = str(tmp_path / "empty-bin")
    env["PYTHONPATH"] = str(pythonpath)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _package_copy(tmp_path):
    """A copy of the ``repro`` package without any cached build."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "repro", ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _cached_object():
    _stream_kernel.load()
    return _native.object_path("stream_kernel", _stream_kernel.SOURCE)


def test_fresh_process_reuses_cached_object_without_compiler(tmp_path):
    cached = _cached_object()
    before = cached.stat()
    out = _run(SIMULATE, PACKAGE.parent, tmp_path)
    assert out.strip() == str(cached)
    after = cached.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_truncated_cached_object_is_rebuilt(tmp_path):
    root = _package_copy(tmp_path)
    cached = _cached_object()
    good = cached.read_bytes()
    broken = root / "repro" / cached.relative_to(PACKAGE)
    broken.parent.mkdir(parents=True)
    broken.write_bytes(good[: len(good) // 3])
    # Committed, then truncated: the sidecar still names the full object.
    sidecar = cached.with_suffix(".sha256")
    shutil.copyfile(sidecar, broken.with_suffix(".sha256"))
    out = _run(SIMULATE, root, tmp_path, compiler=True)
    assert out.strip() == str(broken)
    assert broken.stat().st_size > len(good) // 3


def test_no_compiler_and_no_cache_makes_numpy_unavailable(tmp_path):
    root = _package_copy(tmp_path)
    out = _run(PROBE, root, tmp_path)
    available, error = out.splitlines()
    assert available == "available: python"
    assert error.startswith("error: backend 'numpy' is unavailable")
    assert "C compiler ('cc' on PATH)" in error


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_warning_free(tmp_path):
    done = subprocess.run(
        [*_native.COMPILE_COMMAND, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), "-x", "c", "-"],
        input=_stream_kernel.SOURCE,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
