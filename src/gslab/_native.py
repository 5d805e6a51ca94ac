"""The gslab cache directory, and the C sources of the package built into it.

``build`` compiles a C file of the package into a shared library once, with
the compiler CPython was built with, at -O2 and -ffp-contract=off (no fused
multiply-adds, no fast-math: the C must round as Python does).  The library
is written atomically into the cache directory, named by the SHA-256 of the
source, the command and the platform, so an edited source or another
compiler gets a new file and a warm cache costs one hash.  Without a
compiler, with an unwritable cache, or where the compiler fails, ``build``
raises OSError naming the reason.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import sysconfig
import tempfile
from pathlib import Path

_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def cache_dir() -> Path:
    """$GSLAB_CACHE_DIR, else ~/.cache/gslab: solve records and built libraries."""
    env = os.environ.get("GSLAB_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "gslab"


def _compiler() -> list[str]:
    """The C compiler CPython was built with, as an argument list."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path(source: Path) -> tuple[Path, list[str]]:
    """Where ``build`` puts the library of ``source``, and the compiler
    command that builds it (less the output, the source and -lm)."""
    cmd = [*_compiler(), *_FLAGS]
    h = hashlib.sha256(source.read_bytes())
    h.update("\0".join([*cmd, sysconfig.get_platform()]).encode())
    return cache_dir() / f"{source.stem}-{h.hexdigest()}.so", cmd


def build(source: Path) -> Path:
    """The shared library of ``source`` in the cache directory, compiled on
    first use.  OSError where it cannot be built there: no compiler, an
    unwritable cache, or a compiler that fails (its exit status and the
    tail of its stderr) or times out."""
    path, cmd = library_path(source)
    if path.is_file():
        return path
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([*cmd, "-o", tmp, str(source), "-lm"],
                              capture_output=True, timeout=120)
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-20:]
            raise OSError("\n".join([f"the compiler exited with status {done.returncode}",
                                     *tail]))
        os.replace(tmp, path)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"the compiler timed out after {exc.timeout:g} s") from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
