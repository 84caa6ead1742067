"""Effect classification of out-of-package callees.

The collector resolves dotted call targets through the module's import
aliases (``np.zeros`` -> ``numpy.zeros``) and asks this table what the
call does.  Three answers are possible:

* an :class:`IntrinsicSpec` — the call's effects are known (possibly
  "mutates argument 0", "aliases its input", "reads the clock", ...);
* ``None`` — the name is not an intrinsic; the analysis falls back to
  the package registry / method-name tables / unknown.

The tables are deliberately *closed-world over this repo's imports*: the
coverage acceptance test (zero unknown callees in ``winograd/``,
``perf/`` and ``netsim/``) is what keeps them honest — a new stdlib
import in a core package shows up as an ``unknown-call`` atom until it
is classified here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .lattice import CLOCK, ENV, IO, RNG, Effect


@dataclass(frozen=True)
class IntrinsicSpec:
    """What one intrinsic call does.

    ``mutates`` lists positional argument indices whose object is
    mutated; ``alias_of`` names the argument index the *result* may
    alias (``None`` = the result is fresh).
    """

    atoms: Tuple[Effect, ...] = ()
    mutates: Tuple[int, ...] = ()
    alias_of: Optional[int] = None


PURE = IntrinsicSpec()


def _io(name: str) -> IntrinsicSpec:
    return IntrinsicSpec(atoms=((IO, name),))


def _clock(name: str) -> IntrinsicSpec:
    return IntrinsicSpec(atoms=((CLOCK, name),))


def _rng(name: str) -> IntrinsicSpec:
    return IntrinsicSpec(atoms=((RNG, name),))


def _env(name: str) -> IntrinsicSpec:
    return IntrinsicSpec(atoms=((ENV, name),))


_MUT0 = IntrinsicSpec(mutates=(0,))
_ALIAS0 = IntrinsicSpec(alias_of=0)

#: Modules whose every function is effect-free and returns fresh values.
_PURE_MODULES = {
    "math", "cmath", "itertools", "functools", "collections",
    "dataclasses", "enum", "abc", "typing", "fractions", "decimal",
    "numbers", "statistics", "textwrap", "string", "struct", "operator",
    "re", "copy", "hashlib", "ast", "keyword", "token", "tokenize",
    "difflib", "unicodedata", "contextlib", "inspect", "platform",
    "scipy", "argparse",
}

#: Exact-name overrides, consulted before any prefix rule.
_EXACT = {
    # -- containers / heaps ------------------------------------------------
    "heapq.heappush": _MUT0,
    "heapq.heappop": _MUT0,
    "heapq.heapify": _MUT0,
    "heapq.heappushpop": _MUT0,
    "heapq.heapreplace": _MUT0,
    "heapq.merge": PURE,
    "heapq.nlargest": PURE,
    "heapq.nsmallest": PURE,
    "bisect.insort": _MUT0,
    "bisect.insort_left": _MUT0,
    "bisect.insort_right": _MUT0,
    "bisect.bisect": PURE,
    "bisect.bisect_left": PURE,
    "bisect.bisect_right": PURE,
    # -- serialisation: string forms pure, file forms I/O ------------------
    "json.dumps": PURE,
    "json.loads": PURE,
    "json.dump": _io("json.dump"),
    "json.load": _io("json.load"),
    "pickle.dumps": PURE,
    "pickle.loads": PURE,
    "pickle.dump": _io("pickle.dump"),
    "pickle.load": _io("pickle.load"),
    # -- os: environment vs filesystem -------------------------------------
    "os.getenv": _env("os.getenv"),
    "os.putenv": _env("os.putenv"),
    "os.unsetenv": _env("os.unsetenv"),
    "os.urandom": _rng("os.urandom"),
    "os.cpu_count": _env("os.cpu_count"),
    # -- time: sleep is observable, the rest read the clock ----------------
    "time.sleep": _io("time.sleep"),
    # -- randomness --------------------------------------------------------
    "secrets.token_bytes": _rng("secrets.token_bytes"),
    "secrets.token_hex": _rng("secrets.token_hex"),
    "secrets.randbelow": _rng("secrets.randbelow"),
    "uuid.uuid1": _rng("uuid.uuid1"),
    "uuid.uuid4": _rng("uuid.uuid4"),
    # -- pathlib constructor is pure (fs access happens via methods) -------
    "pathlib.Path": PURE,
    "pathlib.PurePath": PURE,
    # -- numpy: in-place entry points --------------------------------------
    "numpy.copyto": _MUT0,
    "numpy.put": _MUT0,
    "numpy.place": _MUT0,
    "numpy.putmask": _MUT0,
    "numpy.fill_diagonal": _MUT0,
    "numpy.ndarray.fill": _MUT0,
    # -- numpy: view-returning (result aliases the input) ------------------
    "numpy.asarray": _ALIAS0,
    "numpy.ascontiguousarray": _ALIAS0,
    "numpy.ravel": _ALIAS0,
    "numpy.reshape": _ALIAS0,
    "numpy.transpose": _ALIAS0,
    "numpy.swapaxes": _ALIAS0,
    "numpy.moveaxis": _ALIAS0,
    "numpy.rollaxis": _ALIAS0,
    "numpy.squeeze": _ALIAS0,
    "numpy.atleast_1d": _ALIAS0,
    "numpy.atleast_2d": _ALIAS0,
    "numpy.atleast_3d": _ALIAS0,
    "numpy.broadcast_to": _ALIAS0,
    "numpy.expand_dims": _ALIAS0,
    "numpy.lib.stride_tricks.as_strided": _ALIAS0,
    "numpy.lib.stride_tricks.sliding_window_view": _ALIAS0,
    # -- numpy: filesystem -------------------------------------------------
    "numpy.load": _io("numpy.load"),
    "numpy.save": _io("numpy.save"),
    "numpy.savez": _io("numpy.savez"),
    "numpy.savez_compressed": _io("numpy.savez_compressed"),
    "numpy.savetxt": _io("numpy.savetxt"),
    "numpy.loadtxt": _io("numpy.loadtxt"),
    "numpy.genfromtxt": _io("numpy.genfromtxt"),
    "numpy.fromfile": _io("numpy.fromfile"),
    "numpy.memmap": _io("numpy.memmap"),
    # -- misc --------------------------------------------------------------
    "warnings.warn": _io("warnings.warn"),
    "datetime.datetime.now": _clock("datetime.datetime.now"),
    "datetime.datetime.utcnow": _clock("datetime.datetime.utcnow"),
    "datetime.date.today": _clock("datetime.date.today"),
    "gc.collect": _io("gc.collect"),
    "platform.uname": _env("platform.uname"),
    "platform.node": _env("platform.node"),
    "socket.gethostname": _env("socket.gethostname"),
}

#: `time.<fn>` wall-clock reads (mirrors DET006's table).
_WALL_CLOCK = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}

#: Whole modules whose calls touch the outside world.
_IO_MODULES = {
    "sys", "io", "logging", "subprocess", "shutil", "tempfile",
    "pprint", "traceback", "glob", "fnmatch", "csv", "sqlite3",
    "socket", "http", "urllib", "webbrowser", "atexit", "signal",
    "multiprocessing", "threading", "importlib", "pkgutil",
    # process pools spawn workers and move pickles over pipes — every
    # entry point is I/O from the analysis's point of view
    "concurrent",
}


def classify_intrinsic(canonical: str) -> Optional[IntrinsicSpec]:
    """Effects of a call to canonical dotted name ``canonical``, or
    ``None`` when the name is not a recognised out-of-package intrinsic.

    ``numpy.random.*`` is deliberately absent: the collector classifies
    RNG entry points itself because seededness depends on the call's
    arguments, not just its name.
    """
    spec = _EXACT.get(canonical)
    if spec is not None:
        return spec
    head, _, rest = canonical.partition(".")
    if head in _PURE_MODULES:
        return PURE
    if head == "numpy":
        # Everything not special-cased above returns a fresh array/scalar.
        return PURE
    if head == "os":
        if rest.startswith("environ"):
            return _env(canonical)
        if rest.startswith("path."):
            return _io(canonical)
        return _io(canonical)
    if head == "time":
        return _clock(canonical) if rest in _WALL_CLOCK else _clock(canonical)
    if head == "datetime":
        return PURE
    if head == "random":
        # Name-only fallback; the collector pre-empts this for the
        # global-state entry points with a contextual RNG atom.
        return _rng(canonical)
    if head in _IO_MODULES:
        return _io(canonical)
    if head == "pathlib":
        return PURE
    return None


# ---------------------------------------------------------------------------
# method-name tables (attribute calls whose receiver type is unknown)
# ---------------------------------------------------------------------------

#: Methods that mutate their receiver in place.
MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "popleft",
    "appendleft", "clear", "update", "setdefault", "add", "discard",
    "sort", "reverse", "rotate", "fill", "put", "itemset", "resize",
    "setflags", "write_through", "__setitem__",
    "__delitem__", "extendleft", "apply_defaults",
    # argparse builder methods: they mutate the parser object, which is
    # (almost) always a local — a fresh receiver drops the atom.
    "add_argument", "add_parser", "add_subparsers", "set_defaults",
    "parse_args", "parse_known_args",
}

#: numpy ``Generator`` draws: advance the receiver's RNG state (an
#: argument-threaded generator stays deterministic, so the *effect* is a
#: receiver mutation, not a global RNG atom).
RNG_STATE_METHODS = {
    "integers", "standard_normal", "normal", "uniform", "random",
    "choice", "permutation", "permuted", "exponential", "poisson",
    "binomial", "multinomial", "shuffle", "bytes", "spawn",
}

#: Methods returning a view of their receiver (numpy mostly).
ALIAS_METHODS = {
    "reshape", "transpose", "swapaxes", "ravel", "view", "squeeze",
    "diagonal", "byteswap",
}

#: Filesystem / stream methods.
IO_METHODS = {
    "write", "writelines", "read", "readline", "readlines", "flush",
    "close", "seek", "tell", "fileno", "mkdir", "rmdir", "touch",
    "unlink", "rename", "replace", "write_text", "write_bytes",
    "read_text", "read_bytes", "exists", "is_file", "is_dir", "iterdir",
    "glob", "rglob", "stat", "resolve", "open", "samefile", "absolute",
    "expanduser", "symlink_to", "hardlink_to", "chmod", "communicate",
    "wait", "poll", "terminate", "kill",
    # concurrent.futures executor/future methods (receiver type is a
    # pool handle; submitting work and fetching results crosses a pipe)
    "submit", "shutdown", "result", "add_done_callback",
}

#: Effect-free methods (built-in containers, strings, numpy reductions,
#: hashes, Fractions, dataclass helpers, ...).  Receivers are not
#: mutated and results are fresh.
PURE_METHODS = {
    # dict / set / sequence reads
    "get", "keys", "values", "items", "copy", "index", "count",
    "difference", "union", "intersection", "symmetric_difference",
    "issubset", "issuperset", "isdisjoint", "most_common",
    # strings
    "join", "split", "rsplit", "strip", "lstrip", "rstrip",
    "startswith", "endswith", "format", "format_map", "replace",
    "lower", "upper", "title", "capitalize", "casefold", "ljust",
    "rjust", "center", "zfill", "encode", "decode", "splitlines",
    "partition", "rpartition", "find", "rfind", "rindex", "isdigit",
    "isalpha", "isalnum", "isspace", "isidentifier", "isupper",
    "islower", "removeprefix", "removesuffix", "expandtabs", "translate",
    "maketrans", "hex",
    # numbers
    "bit_length", "bit_count", "as_integer_ratio", "is_integer",
    "conjugate", "limit_denominator", "total_seconds", "isoformat",
    "strftime", "timestamp",
    # numpy (fresh-returning)
    "astype", "tobytes", "tolist", "item", "round", "clip", "cumsum",
    "cumprod", "prod", "dot", "flatten", "repeat", "nonzero", "argsort",
    "argmax", "argmin", "mean", "sum", "std", "var", "min", "max",
    "all", "any", "conj", "trace", "take", "compress", "searchsorted",
    "choose", "ptp",
    # hashlib / buffers / int codecs / dict classmethods / inspect
    "digest", "hexdigest", "getvalue", "from_bytes", "to_bytes",
    "fromkeys", "signature",
    # misc
    "as_posix", "with_suffix", "with_name", "relative_to", "is_absolute",
    "groups", "group", "groupdict", "span", "match", "search",
    "findall", "finditer", "sub", "fullmatch",
}

# ---------------------------------------------------------------------------
# builtins (plain-name calls)
# ---------------------------------------------------------------------------

PURE_BUILTINS = {
    "len", "range", "min", "max", "sum", "abs", "round", "divmod",
    "pow", "sorted", "reversed", "enumerate", "zip", "map", "filter",
    "list", "tuple", "dict", "set", "frozenset", "str", "int", "float",
    "complex", "bool", "bytes", "bytearray", "repr", "format", "hash",
    "isinstance", "issubclass", "getattr", "hasattr", "callable",
    "iter", "chr", "ord", "any", "all", "slice", "memoryview", "object",
    "type", "super", "vars", "dir", "property", "staticmethod",
    "classmethod", "ascii", "bin", "oct", "hex", "anext", "aiter",
    # exception constructors
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "AttributeError", "RuntimeError", "NotImplementedError",
    "StopIteration", "StopAsyncIteration", "AssertionError", "OSError",
    "IOError", "FileNotFoundError", "ZeroDivisionError", "ArithmeticError",
    "OverflowError", "LookupError", "NameError", "UnboundLocalError",
    "RecursionError", "TimeoutError", "SystemExit", "KeyboardInterrupt",
    "Warning", "UserWarning", "DeprecationWarning", "RuntimeWarning",
}

#: builtins that mutate their first argument.
MUTATING_BUILTINS = {"next", "setattr", "delattr"}

#: builtins that touch the outside world.
IO_BUILTINS = {
    "print", "input", "open", "exec", "eval", "compile", "breakpoint",
    "__import__", "help",
}
