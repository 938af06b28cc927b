"""The user-facing frontend surface: ``repro.analyze`` / ``@repro.candidate``.

:func:`analyze` turns a *live* Python function object into a full
discovery run: it pulls the function's source with :mod:`inspect`, walks
its call graph through ``fn.__globals__`` to pick up lowered helper
functions and module-level constants/arrays, lowers everything to MIR
with a synthetic ``__analyze__`` driver that materializes the call
arguments, and runs the :class:`~repro.engine.core.DiscoveryEngine`.  The
returned :class:`~repro.engine.artifacts.DiscoveryResult` carries loop
and suggestion line numbers that point at the *original Python file* —
``inspect.getsourcelines`` gives the extraction offset and the lowering
shifts every AST node by it.

>>> import repro
>>> @repro.candidate
... def matmul(a: list, b: list, c: list, n: int) -> float:
...     for i in range(n):
...         for j in range(n):
...             acc = 0.0
...             for k in range(n):
...                 acc += a[i * n + k] * b[k * n + j]
...             c[i * n + j] = acc
...     return c[0]
>>> result = repro.analyze(
...     matmul, args=([1.0] * 16, [2.0] * 16, [0.0] * 16, 4)
... )  # doctest: +SKIP
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types

from repro.frontend.errors import FrontendError
from repro.frontend.lowering import DriverSpec, MirBuilder

_MISSING = object()


def candidate(fn=None, **defaults):
    """Mark a function as a discovery candidate.

    Purely declarative: it tags the function (``__repro_candidate__``
    holds any keyword defaults, later merged into the analyze config) and
    returns it unchanged, so decorated code keeps running as plain
    Python.  Usable bare (``@repro.candidate``) or with config defaults
    (``@repro.candidate(n_threads=8)``).
    """

    def mark(f):
        f.__repro_candidate__ = dict(defaults)
        return f

    if fn is None:
        return mark
    return mark(fn)


def analyze(fn, args=(), config=None, **overrides):
    """Run the discovery pipeline on a live Python function.

    ``args`` are the values the synthesized driver calls ``fn`` with:
    ints/floats/bools pass by value, flat numeric lists become
    initialized global arrays passed by base address.  ``config`` is an
    optional :class:`~repro.engine.config.DiscoveryConfig` base;
    ``**overrides`` (and any ``@candidate`` defaults) are applied on top.
    Returns a :class:`~repro.engine.artifacts.DiscoveryResult`.
    """
    from repro.engine.config import DiscoveryConfig
    from repro.engine.core import DiscoveryEngine

    if not inspect.isfunction(fn):
        raise TypeError(
            "analyze() needs a plain Python function "
            f"(got {type(fn).__name__})"
        )
    filename = inspect.getsourcefile(fn) or "<python>"
    first_line = inspect.getsourcelines(fn)[1]
    tree, source = _closure_tree(fn, filename)
    module = MirBuilder(
        tree,
        source,
        name=f"analyze:{fn.__name__}",
        filename=filename,
        driver=DriverSpec(entry=fn.__name__, args=tuple(args)),
    ).lower()

    settings = dict(getattr(fn, "__repro_candidate__", None) or {})
    settings.update(overrides)
    settings.update(
        name=f"analyze:{fn.__name__}",
        entry="__analyze__",
        frontend="python",
        source_path=filename,
        source_firstline=first_line,
    )
    base = config if config is not None else DiscoveryConfig()
    engine = DiscoveryEngine(module, base.replace(**settings))
    return engine.run()


# ---------------------------------------------------------------------------
# call-graph closure extraction
# ---------------------------------------------------------------------------


def _parse_function(fn) -> ast.FunctionDef:
    """The function's AST with line numbers shifted to the original file."""
    try:
        lines, first = inspect.getsourcelines(fn)
    except (OSError, TypeError) as exc:
        raise FrontendError(
            f"cannot retrieve source for {fn.__qualname__!r}: {exc} "
            "(analyze() needs file-backed functions)",
        ) from None
    source = textwrap.dedent("".join(lines))
    node = ast.parse(source).body[0]
    if not isinstance(node, ast.FunctionDef):
        raise FrontendError(
            f"{fn.__qualname__!r} is not a plain function definition",
            filename=inspect.getsourcefile(fn) or "<python>",
            line=first,
        )
    ast.increment_lineno(node, first - 1)
    node.decorator_list = []  # @repro.candidate etc. aren't lowered
    return node


def _closure_tree(fn, filename: str):
    """(module AST, source text) covering ``fn`` and what it reaches.

    Walks free names through ``fn.__globals__``: plain functions with
    retrievable source join the lowered set (transitively); int/float/
    bool/flat-list globals become module-level declarations.  Unresolved
    names are left for inference to report with their source position.
    """
    fn_nodes: dict[str, ast.FunctionDef] = {}
    const_globals: dict[str, object] = {}

    def visit(f) -> None:
        node = _parse_function(f)
        fn_nodes[node.name] = node
        namespace = f.__globals__
        for sub in ast.walk(node):
            if not (
                isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            ):
                continue
            name = sub.id
            if name in fn_nodes or name in const_globals:
                continue
            value = namespace.get(name, _MISSING)
            if value is _MISSING:
                continue
            if (
                isinstance(value, types.FunctionType)
                and value.__name__ == name
            ):
                visit(value)
            elif isinstance(value, bool):
                const_globals[name] = int(value)
            elif isinstance(value, (int, float)):
                const_globals[name] = value
            elif (
                isinstance(value, list)
                and value
                and all(isinstance(v, (int, float)) for v in value)
            ):
                const_globals[name] = [
                    int(v) if isinstance(v, bool) else v for v in value
                ]
            # anything else (modules, classes, strings): not lowered; a
            # real use inside the subset fails in inference with position

    visit(fn)

    body: list[ast.stmt] = []
    for name, value in const_globals.items():
        body.append(_global_assign(name, value))
    body.extend(fn_nodes.values())
    tree = ast.Module(body=body, type_ignores=[])
    ast.fix_missing_locations(tree)

    # keep the whole original file as the module source so line-numbered
    # output (reports, markers) indexes it correctly; fall back to the
    # function body alone for exec()-defined code
    try:
        source = inspect.getsource(inspect.getmodule(fn))
    except (OSError, TypeError):
        source = textwrap.dedent(
            "".join(inspect.getsourcelines(fn)[0])
        )
    return tree, source


def _global_assign(name: str, value) -> ast.stmt:
    """``name = <value>`` as an AST statement (uniform lists compressed)."""
    if isinstance(value, list):
        if all(v == value[0] for v in value):
            text = f"{name} = [{value[0]!r}] * {len(value)}"
        else:
            text = f"{name} = {value!r}"
    else:
        text = f"{name} = {value!r}"
    return ast.parse(text).body[0]
