"""The package's C library, built on first use and loaded with ctypes.

``_native.c`` holds four C bodies: the SplitMix64 fill of
``streams.trial_uniforms``, the first pass of ``disk.up_indices``, the
rod's count step ``rod.outcomes_from_uniforms``, and
``geometry.random_frame``'s frame from one draw. ``LIBRARY`` is its one
``Library``, and the only one in the package. Its first ``load()`` in a
process compiles the source with the system ``cc`` (or ``gcc``) into
``$XDG_CACHE_HOME/bornsim`` (``~/.cache/bornsim``), under a name keyed by a
hash of the source, flags, compiler path and machine; later processes load
the cached file. If that directory is not ours alone to write, the library
is built in a private temporary directory instead. Without a compiler, or
if the build or the load fails, ``load()`` returns None and all four
callers run their Python bodies (numpy, or Python floats for the frame). A
call takes its path from ``load()`` alone, whatever its input, so a process
is either native or numpy, never half of each; both paths give the same
counts and frames, bit for bit. The callers look ``LIBRARY`` up on every
call, so a test can swap in another one. Nothing is built or loaded at
import, and ``analytic`` with a fixed frame never draws; a ``random:N``
frame and ``framecheck`` draw frames, and so load the library.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

_BUILD_TIMEOUT_S = 120
_UNLOADED = object()


@dataclass(eq=False)
class Library:
    """One C source file and the functions it exports, built and loaded once
    per process. ``functions`` maps each exported name to its ctypes
    (restype, argtypes); ctypes releases the GIL for every call."""

    name: str  # prefix of the file name in the cache
    source: Path
    cflags: tuple[str, ...]
    functions: dict[str, tuple]
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)
    _lib: object = field(default=_UNLOADED, init=False, repr=False)

    def load(self) -> ctypes.CDLL | None:
        """The library with its functions' types declared, or None."""
        with self._lock:
            if self._lib is _UNLOADED:
                self._lib = self._open()
            return self._lib

    def file_name(self, source: bytes, cc: str) -> str:
        """The cached library's name: a hash of what it is built from.

        The machine is there for home directories shared between architectures.
        """
        import hashlib

        parts = [source, " ".join(self.cflags).encode(), cc.encode(),
                 os.uname().machine.encode()]
        key = hashlib.sha256(b"\0".join(parts)).hexdigest()[:16]
        return f"{self.name}-{key}.so"

    def _open(self) -> ctypes.CDLL | None:
        # imported on first use, not with the module
        import subprocess

        cc = shutil.which("cc") or shutil.which("gcc")
        if cc is None or os.name != "posix":
            return None
        try:
            source = self.source.read_bytes()
            name = self.file_name(source, cc)
            directory = _cache_dir()
            if directory is not None:
                lib = self._build_and_open(cc, source, directory / name)
            else:
                # a loaded library stays mapped after its file is removed
                with tempfile.TemporaryDirectory(prefix="bornsim-") as private:
                    lib = self._build_and_open(cc, source, Path(private) / name)
            for symbol, (restype, argtypes) in self.functions.items():
                function = getattr(lib, symbol)
                function.restype, function.argtypes = restype, argtypes
        except (OSError, AttributeError, subprocess.SubprocessError):
            return None
        return lib

    def _build_and_open(self, cc: str, source: bytes, lib: Path) -> ctypes.CDLL:
        """The library at ``lib``, compiled from ``source`` first if it is missing."""
        import subprocess

        if not lib.exists():
            # build under a temporary name, then rename: no reader sees half a file
            fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".tmp")
            os.close(fd)
            try:
                subprocess.run([cc, *self.cflags, "-x", "c", "-", "-o", tmp], input=source,
                               capture_output=True, timeout=_BUILD_TIMEOUT_S, check=True)
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return ctypes.CDLL(str(lib))


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
    # another user could plant a library in a directory they can write
    if st.st_uid != os.getuid() or st.st_mode & 0o022 or not os.access(path, os.W_OK):
        return None
    return path


_double, _int64, _ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
LIBRARY = Library(
    "native", Path(__file__).with_name("_native.c"),
    ("-O3", "-fno-math-errno", "-fno-trapping-math", "-shared", "-fPIC"),
    {"trial_uniforms": (None, (_ptr, ctypes.c_uint64, ctypes.c_uint64, _int64, _int64)),
     "disk_first_pass": (_int64, (_ptr, _ptr, _int64, _double, _double, _double, _double,
                                  _ptr, _ptr)),
     "disk_trig": (None, (_ptr, _int64, _ptr, _ptr)),
     "rod_count": (None, (_ptr, _ptr, _int64, *(_double,) * 5, _ptr)),
     "random_frame": (ctypes.c_int, (_ptr, _ptr))},
)
