"""The package's C extension module, built on first use and imported from a
per-user cache.

``_native.c`` is one CPython extension module, ``bornsim._native``, with
the bodies of ``streams.trial_uniforms``' SplitMix64 fill, of the first pass
of ``disk.up_indices``, of the rod's count step
``rod.outcomes_from_uniforms``, of ``geometry.random_frame``'s frame from one
draw, and ``dot``, the fma chain of ``geometry._dot``. ``LIBRARY`` is its
one ``Library``, and the only one in the package. Its first ``load()`` in a
process compiles the source with the system ``cc`` (or ``gcc``) against the
interpreter's ``Python.h`` into ``$XDG_CACHE_HOME/bornsim``
(``~/.cache/bornsim``), under a name keyed by a hash of the source, flags,
compiler path, machine and the interpreter's extension suffix; later
processes import the cached file. If that directory is not ours alone to
write, the module is built in a private temporary directory instead.
Without a compiler or the Python headers, or if the build or the import
fails, ``load()`` returns None and every caller runs its Python body (numpy,
or Python floats for the frame and the dot). A call takes its path from
``load()`` alone, whatever its input, so a process is either native or
Python, never half of each; both paths give the same counts, frames and
dots, bit for bit. The callers look ``LIBRARY`` up on every call, so a test
can swap in another one. Nothing is built or loaded at import; the first
dot, draw or count of a process loads the module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import shutil
import sysconfig
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

_BUILD_TIMEOUT_S = 120
_UNLOADED = object()


@dataclass(eq=False)
class Library:
    """One C source file of a CPython extension module, built and imported
    once per process."""

    name: str  # prefix of the file name in the cache
    source: Path
    options: tuple[str, ...]  # the compiler's flags but the include directory
    include: str  # the directory of the interpreter's Python.h
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _lib: object = field(default=_UNLOADED, init=False, repr=False)

    @property
    def cflags(self) -> tuple[str, ...]:
        """Every flag the module is compiled with."""
        return (*self.options, f"-I{self.include}")

    def load(self) -> ModuleType | None:
        """The module, or None. Once the first call has settled which, a
        call takes no lock: ``geometry._dot`` asks on every dot."""
        lib = self._lib
        if lib is _UNLOADED:
            with self._lock:
                if self._lib is _UNLOADED:
                    self._lib = self._open()
                lib = self._lib
        return lib

    def file_name(self, source: bytes, cc: str) -> str:
        """The cached module's name: a hash of what it is built from and for.

        The machine is there for home directories shared between
        architectures, the extension suffix for caches shared between
        interpreters.
        """
        import hashlib

        parts = [source, " ".join(self.cflags).encode(), cc.encode(),
                 os.uname().machine.encode(), sysconfig.get_config_var("EXT_SUFFIX").encode()]
        key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
        return f"{self.name}-{key}.so"

    def _open(self) -> ModuleType | None:
        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None or os.name != "posix":
            return None
        try:
            source = self.source.read_bytes()
            name = self.file_name(source, cc)
            directory = _cache_dir()
            if directory is not None:
                return self._build_and_import(cc, source, directory / name)
            # a loaded module stays mapped after its file is removed
            with tempfile.TemporaryDirectory(prefix="bornsim-") as private:
                return self._build_and_import(cc, source, Path(private) / name)
        except (OSError, ImportError):
            return None

    def _build_and_import(self, cc: str, source: bytes, lib: Path) -> ModuleType | None:
        """The module at ``lib``, compiled from ``source`` first if it is
        missing; None if the compiler fails."""
        if not lib.exists() and not self._build(cc, source, lib):
            return None
        loader = importlib.machinery.ExtensionFileLoader("bornsim._native", str(lib))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(loader.name, lib, loader=loader))
        loader.exec_module(module)
        return module

    def _build(self, cc: str, source: bytes, lib: Path) -> bool:
        """Compiles ``source`` into ``lib``; False if the compiler fails."""
        import subprocess  # imported only to build: a warm cache needs none

        # build under a temporary name, then rename: no reader sees half a file
        fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".tmp")
        os.close(fd)
        try:
            subprocess.run([cc, *self.cflags, "-x", "c", "-", "-o", tmp],
                           input=source, capture_output=True, timeout=_BUILD_TIMEOUT_S,
                           check=True)
            os.replace(tmp, lib)
        except subprocess.SubprocessError:
            return False
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return True


def _cache_dir() -> Path | None:
    """The per-user cache directory, or None if it is not ours alone to write."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(root) / "bornsim"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return None
    # another user could plant a module in a directory they can write
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK):
        return None
    return path


LIBRARY = Library(
    "native", Path(__file__).with_name("_native.c"),
    ("-O3", "-fno-math-errno", "-fno-trapping-math", "-shared", "-fPIC"),
    sysconfig.get_path("include"),
)
