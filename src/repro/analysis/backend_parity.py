"""``backend-parity``: the NumPy backend always has an exact escape hatch.

The vectorized backend is only correct because every closed-form loop can
refuse configurations outside its assumptions (``raise _Unsupported``) and
fall back to the reference Python loops, and because the parity tests pin
byte-identical reports per engine.  Four statically checkable clauses:

* every ``_run_<engine>`` dispatch inside ``NumPyBackend.run`` happens
  under a ``try`` whose handler catches ``_Unsupported``
  (``unguarded-dispatch``);
* ``run`` actually falls back — it calls ``self._python.run(...)``
  (``no-fallback``);
* each ``_run_<engine>`` entry point can *reach* a ``raise _Unsupported``
  through the module's call/instantiation graph — an entry that can never
  bail out has silently dropped its guard rails (``no-bailout``);
* each engine token appears in ``tests/test_backends.py``, so the parity
  suite exercises it (``untested-engine``); an entry serving several
  engines (``_run_stream``: PIF and SHIFT) needs every one of them.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional

from . import Finding, Project, dotted_name, register, walk_with_parents

BACKEND_PATH = ("sim", "backends", "numpy_backend.py")
TESTS_FILE = "test_backends.py"
EXCEPTION_NAME = "_Unsupported"

#: Engine-token aliases: the registry names the no-prefetch engine "none",
#: while its vectorized loop is ``_run_baseline``; ``_run_stream`` serves
#: the stream engines, "pif" and "shift", and each must be pinned.
TOKEN_ALIASES = {"baseline": (("baseline", "none"),), "stream": (("pif",), ("shift",))}


def _catches_unsupported(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except catches _Unsupported too
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        dotted = dotted_name(node)
        if dotted is not None and dotted.split(".")[-1] == EXCEPTION_NAME:
            return True
    return False


def _raises_unsupported(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            dotted = dotted_name(target)
            if dotted is not None and dotted.split(".")[-1] == EXCEPTION_NAME:
                return True
    return False


def _reaches_unsupported(
    entry: ast.AST,
    functions: Dict[str, ast.AST],
    classes: Dict[str, ast.ClassDef],
    methods: Dict[str, List[ast.AST]],
) -> bool:
    """Can ``entry`` reach a ``raise _Unsupported`` through module code?

    Resolution is by simple name: calls to module functions, instantiations
    of module classes (which pull in every method — ``_run_baseline`` bails
    out inside ``_LaneArrays.__init__``), and attribute calls matching any
    module method name.
    """
    seen: List[ast.AST] = []
    pending: List[ast.AST] = [entry]
    while pending:
        fn = pending.pop()
        if any(existing is fn for existing in seen):
            continue
        seen.append(fn)
        if _raises_unsupported(fn):
            return True
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
                if name in functions:
                    pending.append(functions[name])
                if name in classes:
                    pending.extend(
                        member
                        for member in classes[name].body
                        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    )
            elif isinstance(node.func, ast.Attribute):
                pending.extend(methods.get(node.func.attr, []))
    return False


@register(
    "backend-parity",
    "every vectorized entry point is guarded, can bail out, and is parity-tested",
)
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    backend_path = project.package_root.joinpath(*BACKEND_PATH)
    if not backend_path.is_file():
        return [
            Finding(
                project.relpath(backend_path),
                1,
                "backend-parity/missing-anchor",
                "expected sim/backends/numpy_backend.py to exist",
            )
        ]
    source = project.source(backend_path)

    functions: Dict[str, ast.AST] = {}
    classes: Dict[str, ast.ClassDef] = {}
    methods: Dict[str, List[ast.AST]] = {}
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            classes[node.name] = node
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.setdefault(member.name, []).append(member)

    backend_cls = classes.get("NumPyBackend")
    run_fn: Optional[ast.FunctionDef] = None
    if backend_cls is not None:
        run_fn = next(
            (
                member
                for member in backend_cls.body
                if isinstance(member, ast.FunctionDef) and member.name == "run"
            ),
            None,
        )
    if run_fn is None:
        return [
            Finding(
                source.relpath,
                backend_cls.lineno if backend_cls is not None else 1,
                "backend-parity/missing-anchor",
                "no NumPyBackend.run() method to anchor the parity invariants on",
            )
        ]

    # Clause 1+2: dispatches guarded, exact fallback present.
    entry_calls: Dict[str, ast.Call] = {}
    has_fallback = False
    for node, parents in walk_with_parents(run_fn):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        name = dotted.split(".")[-1] if dotted else None
        if dotted is not None and dotted.endswith("._python.run"):
            has_fallback = True
            continue
        if name is None or not name.startswith("_run_"):
            continue
        entry_calls.setdefault(name, node)
        guarded = any(
            isinstance(parent, ast.Try)
            and any(_catches_unsupported(handler) for handler in parent.handlers)
            for parent in parents
        )
        if not guarded:
            findings.append(
                Finding(
                    source.relpath,
                    node.lineno,
                    "backend-parity/unguarded-dispatch",
                    f"{name}() is dispatched outside a try/except {EXCEPTION_NAME}: "
                    "an unsupported configuration would crash instead of falling "
                    "back to the exact Python loops",
                )
            )
    if not has_fallback:
        findings.append(
            Finding(
                source.relpath,
                run_fn.lineno,
                "backend-parity/no-fallback",
                "NumPyBackend.run() never calls self._python.run(...): there is "
                "no exact fallback for unsupported configurations",
            )
        )

    # Clause 3+4 per entry point.
    tests_path = project.tests_root / TESTS_FILE
    tests_text = tests_path.read_text(encoding="utf-8") if tests_path.is_file() else None
    if tests_text is None:
        findings.append(
            Finding(
                project.relpath(tests_path),
                1,
                "backend-parity/missing-anchor",
                f"expected tests/{TESTS_FILE} (the parity suite) to exist",
            )
        )
    for name in sorted(entry_calls):
        entry = functions.get(name)
        entry_line = entry.lineno if entry is not None else entry_calls[name].lineno
        if entry is not None and not _reaches_unsupported(
            entry, functions, classes, methods
        ):
            findings.append(
                Finding(
                    source.relpath,
                    entry_line,
                    "backend-parity/no-bailout",
                    f"{name}() can never raise {EXCEPTION_NAME}: the vectorized "
                    "loop has lost its escape hatch for configurations outside "
                    "its closed form",
                )
            )
        if tests_text is not None:
            token = name[len("_run_") :]
            for accepted in TOKEN_ALIASES.get(token, ((token,),)):
                if not any(
                    re.search(rf"\b{re.escape(alias)}\b", tests_text) for alias in accepted
                ):
                    findings.append(
                        Finding(
                            source.relpath,
                            entry_line,
                            "backend-parity/untested-engine",
                            f"engine token {accepted[0]!r} (from {name}) appears "
                            f"nowhere in tests/{TESTS_FILE}: the parity suite does "
                            "not pin this engine's byte-identical fallback",
                        )
                    )
    return findings
