"""Compile-on-first-use loader for the C fast-engine core.

The repo ships ``_fastcore.c`` as source; there is no build step and no
build-time dependency beyond a C compiler.  On first use the module is
compiled into a per-user cache directory with the source hash in the
filename, so edits to the C file invalidate the artifact automatically
and concurrent processes can only ever race toward the same bytes.

Everything degrades gracefully: no compiler, a failed compile, or a
failed import all yield ``None``, and the fast backend falls back to
the reference engine :class:`repro.sim.engine.Engine` with a warning
(same results, less speed).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_fastcore.c")

_cached_module = None
_load_attempted = False


def _cache_dir() -> str:
    root = os.environ.get("REPRO_FASTCORE_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
            os.path.expanduser("~"), ".cache"
        )
        root = os.path.join(base, "repro-fastcore")
    os.makedirs(root, exist_ok=True)
    return root


def _artifact_path(source: bytes) -> str:
    tag = hashlib.sha256(source).hexdigest()[:16]
    abi = sysconfig.get_config_var("SOABI") or "abi"
    return os.path.join(_cache_dir(), f"_fastcore-{tag}-{abi}.so")


def _compile(source_path: str, out_path: str) -> bool:
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return False
    include = sysconfig.get_paths()["include"]
    # Build into a temp file in the same directory, then rename: the
    # artifact appears atomically, so a concurrent loader never sees a
    # half-written .so.
    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(out_path)
    )
    os.close(fd)
    cmd = [
        cc, "-O2", "-fPIC", "-shared", "-fno-strict-aliasing",
        f"-I{include}", source_path, "-o", tmp,
    ]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            return False
        os.replace(tmp, out_path)
        return True
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False


def load_fastcore():
    """Return the compiled ``_fastcore`` module, or None if unavailable.

    The result (including failure) is cached for the process; set
    ``REPRO_NO_FASTCORE=1`` to skip compilation entirely (the fast
    backend then runs the reference engine).
    """
    global _cached_module, _load_attempted
    if _load_attempted:
        return _cached_module
    _load_attempted = True
    if os.environ.get("REPRO_NO_FASTCORE", "") not in ("", "0"):
        return None
    try:
        with open(_SRC, "rb") as f:
            source = f.read()
        so_path = _artifact_path(source)
        if not os.path.exists(so_path) and not _compile(_SRC, so_path):
            return None
        spec = importlib.util.spec_from_file_location(
            "repro.fastpath._fastcore", so_path
        )
        assert spec is not None and spec.loader is not None
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    except Exception:
        return None
    from ..errors import SimulationError, SoftTimeoutError

    mod._install(SimulationError, SoftTimeoutError)
    # Mirror the soft wall-clock deadline into the C run loop, now and
    # on every future arm/disarm (see sim.engine.set_soft_deadline).
    from ..sim import engine as sim_engine

    mod.set_soft_deadline(sim_engine._SOFT_DEADLINE)
    sim_engine.add_soft_deadline_listener(mod.set_soft_deadline)
    _cached_module = mod
    return mod
