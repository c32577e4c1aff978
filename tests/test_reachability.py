"""Every public top-level name in ``src/repro`` is reached by the program.

A public ``def`` or ``class`` counts as reached when its name appears as
an ``ast.Name``, an ``ast.Attribute`` attribute or an import alias
somewhere outside its own definition, in ``src/repro`` (package
``__init__.py`` re-exports do not count), ``benchmarks/`` or
``examples/``.  Tests do not count either: a name only tests reach is
dead code with a test, unless it is a reference the tests compare
against, and then it is listed in ``ALLOWED`` with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples")

#: Public names only tests reach, each kept for the reason given.
ALLOWED = {
    "ActivationAnalysis": (
        "Section 4.2's call-aware per-activation analysis, checked by the "
        "forward-replay oracle; the served /analyze is to route through it"
    ),
    "ListTracer": "reference tracer the interpreter tests check both engines with",
    "verify_grammar_invariants": (
        "checks digram uniqueness and rule utility of built grammars in tests"
    ),
    "verify_dictionary": "oracle for the DBB dictionary round trip in tests",
    "decompress_wpp": "reference inverse of compress_wpp for round-trip tests",
    "trace_from_tuples": "builds literal WPPs for the trace and partition tests",
    "unpack_event": "decodes one packed WPP event for the forward-replay oracle",
    "figure12_original_program": (
        "Fig 12's unoptimized program, the currency tests' ground truth"
    ),
    "const": (
        "builder DSL shorthand beside var and binop in repro.ir; the IR and "
        "fact tests build statements with it"
    ),
}


def _sources():
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py" and PACKAGE in path.parents:
                continue
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _mentions(node):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]


def unreached_names():
    """``module:name`` of each public top-level def no other code mentions."""
    defs = []
    reached = set()
    for path, tree in _sources():
        in_package = PACKAGE in path.parents
        for node in tree.body:
            own = node.name if _is_def(node) else None
            if in_package and own and not own.startswith("_"):
                module = path.relative_to(PACKAGE).with_suffix("").as_posix()
                defs.append((module, own))
            # A definition's mentions of its own name (recursion, a
            # classmethod building its class) do not reach it.
            reached.update(name for name in _mentions(node) if name != own)
    return sorted(f"{module}:{name}" for module, name in defs if name not in reached)


def test_every_public_name_is_reached():
    unreached = [key for key in unreached_names() if key.split(":")[1] not in ALLOWED]
    assert not unreached, (
        "public names in src/repro that no module, benchmark or example "
        "reaches (delete them, or list a test oracle in ALLOWED):\n  "
        + "\n  ".join(unreached)
    )


def test_allow_list_names_exist_and_are_otherwise_unreached():
    unreached = {key.split(":")[1] for key in unreached_names()}
    stale = sorted(set(ALLOWED) - unreached)
    assert not stale, f"ALLOWED names that are reached or gone: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
