"""The RA TCB stays inside a subset of Python with no runtime
metaprogramming, checked on the source.

The paper writes its TCB in Low*, a subset of F* with no runtime
metaprogramming, so that it can be verified and translated to C
(Protzenko et al., "Verified Low-Level Programming Embedded in F*", ICFP
2017). The TCB modules here (``kernel``, ``crypto``, ``signing``,
``boot``) keep the part of that discipline that can be read off their
syntax trees:

* no call to a builtin that reads or writes names at run time
  (``setattr``, ``getattr``, ``delattr``, ``vars``, ``globals``) or that
  builds code (``eval``, ``exec``, ``compile``, ``__import__``);
* no ``global`` statement;
* no ``namedtuple`` and no ``dataclass`` (nor the ``dataclasses`` module),
  which make a class's methods from strings of source at run time: a
  dataclass ``exec``s the ``__init__``, ``__eq__`` and ``__hash__`` it
  generates. The TCB's records are written out in source instead, on
  ``crypto.Frozen``;
* no class but ``Frozen`` defines a record method (``__eq__``,
  ``__hash__``, ``__setattr__``, ``__delattr__``, ``__reduce__``), so the
  records' equality, hashing, immutability and pickling have one copy.
  A record with state that is not a field overrides ``_values``, as
  ``crypto.VerifyKey`` does; ``crypto.SignKey``'s redacting ``__repr__``
  is not one of these;
* no ``cached_property``: a TCB record is complete when it is built, as a
  Low* value is, so none grows an attribute on first use.
  ``crypto.SignKey`` and ``crypto.VerifyKey`` build their mode's state in
  ``__init__``;
* no host file I/O: no ``open``, ``os.open``, ``os.stat``, ``os.fstat``,
  ``json.load`` or ``json.loads``, and no ``stat`` module. A Low* program
  does no host I/O; the device's files are read on the host by
  ``wire.read_regular`` and parsed in ``attestsim.provision``, hex included
  (``wire.parse_hex32``), and the TCB takes the parsed values. Nor does
  the TCB log: ``logging`` is on no module's import list, and the daemon
  logs the boot phases from the booted device (``prover.build_runtime``).
  Only the
  bodies of ``boot.write_anchor_file`` and ``crypto.write_keystore`` are
  exempt, because the benchmark (``perfbench/run.py``) imports those two
  writers by these names;
* imports only at module level, and only the names on the module's pinned
  list (``IMPORTS``), so that no call loads a module and a new dependency
  shows in review. ``crypto.ct_equal``'s numpy is the one import made in a
  function body (``LAZY_IMPORT_EXEMPT``). ``crypto``'s module-level call
  ``hashlib.__get_builtin_constructor("sha256")`` loads CPython's builtin
  hash module (``_sha256``, or ``_sha2`` from 3.12) when ``crypto`` is
  imported, as an import statement would. It needs no entry of its own:
  the module belongs to ``hashlib``, which is on the list;
* ``crypto`` owns SHA-256: of all the modules of ``attestsim``, TCB or
  not, it alone imports ``hashlib``, so every hash is its one builtin
  implementation.

Each rule is also shown to catch a line that breaks it, so the walk is
not vacuous.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import attestsim

TCB = ("kernel", "crypto", "signing", "boot")
BANNED_CALLS = {"setattr", "getattr", "delattr", "vars", "globals",
                "eval", "exec", "compile", "__import__"}
# class builders that generate source, the module one comes from, and the
# decorator that builds an attribute on first use
BANNED_NAMES = {"namedtuple", "dataclass", "dataclasses", "cached_property"}
# the methods only the one record base defines
RECORD_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__",
                  "__reduce__"}
# host file I/O, as spelled in source: ``stat`` is the module
FILE_IO = {"open", "stat", "os.open", "os.stat", "os.fstat", "json.load",
           "json.loads"}
# the writers perfbench imports from the TCB modules by name
FILE_IO_EXEMPT = {"boot": {"write_anchor_file"}, "crypto": {"write_keystore"}}
# each TCB module's imports, as ``module.name`` (a leading dot for a
# relative import)
IMPORTS = {
    "kernel": {"__future__.annotations", "collections.deque", "enum.Enum",
               "typing.Any", "typing.Callable", "typing.Generator",
               "typing.Optional", ".crypto.Frozen"},
    "crypto": {"__future__.annotations", "hashlib", "os", "enum.Enum",
               "cryptography.exceptions.InvalidSignature",
               "cryptography.hazmat.primitives.asymmetric.ed25519.Ed25519PrivateKey",
               "cryptography.hazmat.primitives.asymmetric.ed25519.Ed25519PublicKey"},
    "signing": {"__future__.annotations", "struct",
                "typing.Generator", "typing.Iterable", "typing.Optional",
                ".crypto.CHAL_LEN", ".crypto.SignKey", ".crypto.attest_token",
                ".crypto.sha256", ".kernel.BOOT_BADGE", ".kernel.ProcessApi",
                ".kernel.Recv"},
    "boot": {"__future__.annotations", "json", "typing.Callable", ".crypto.Frozen", ".crypto.SignKey",
             ".crypto.measure_binary", ".crypto.sha256", ".kernel.Call",
             ".kernel.Kernel", ".kernel.ProcessApi", ".kernel.RegionRequest",
             ".kernel.Rights", ".kernel.SELF_CODE_REGION", ".signing.FIRST_BADGE",
             ".signing.WORDS", ".signing.SpState", ".signing.signing_program"},
}
# (function, module) for an import a function body may make: ``ct_equal``
# loads numpy when first called, so the prover daemon, which never
# compares, does not load it; this goes when ``ct_equal`` wraps
# ``hmac.compare_digest`` (ROADMAP item 3)
LAZY_IMPORT_EXEMPT = {"crypto": {("ct_equal", "numpy")}}
# the imports the other ``test_walk_catches`` snippets make, so that each
# is caught by its own rule
SNIPPET_IMPORTS = frozenset({"collections", "collections.namedtuple",
                             "functools.cached_property", "stat"})


def spellings(node: ast.AST) -> list[str]:
    """How ``node`` names something: a name, ``name.attr``, an imported
    module or name, or ``module.name`` for each name a from-import binds."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    if isinstance(node, ast.alias):
        return [node.name]
    if isinstance(node, ast.ImportFrom):
        return [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
    return []


def imported(node: ast.AST) -> list[str]:
    """What an import statement binds, as ``module`` or ``module.name``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        module = "." * node.level + (node.module or "")
        return [f"{module}.{a.name}" for a in node.names]
    return []


def violations(source: str, exempt: frozenset[str] = frozenset(),
               allowed: frozenset[str] | None = None,
               lazy: frozenset[tuple[str, str]] = frozenset()) -> list[str]:
    """Each place in ``source`` that leaves the subset, as ``line: what``.
    The bodies of the functions named in ``exempt`` may do file I/O; with
    ``allowed``, only the imports it names may be made, and each
    ``(function, module)`` of ``lazy`` may be imported in that body."""
    tree = ast.parse(source)
    found = [f"{node.lineno}: {name}" for node in file_io_nodes(tree, exempt)
             for name in spellings(node) if name in FILE_IO]
    top = {id(node) for node in tree.body}
    excused = {(id(inner), name) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               for inner in ast.walk(node) for name in imported(inner)
               if (node.name, name) in lazy}
    for node in ast.walk(tree):
        for name in imported(node):
            if (id(node), name) in excused:
                continue
            if id(node) not in top:
                found.append(f"{node.lineno}: lazy import {name}")
            elif allowed is not None and name not in allowed:
                found.append(f"{node.lineno}: import {name} not on the list")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in BANNED_CALLS):
            found.append(f"{node.lineno}: call to {node.func.id}")
        elif isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.ClassDef) and node.name != "Frozen":
            # a method defined with def, or bound by assignment
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{item.lineno}: {node.name}.{name}"
                          for name in names if name in RECORD_METHODS]
        else:
            # a name, an attribute, an imported name or the module imported from
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.module if isinstance(node, ast.ImportFrom)
                    else None)
            if name in BANNED_NAMES:
                found.append(f"{node.lineno}: {name}")
    return found


def file_io_nodes(tree: ast.AST, exempt: frozenset[str]) -> list[ast.AST]:
    """Every node of ``tree`` outside the bodies of the ``exempt`` functions."""
    skip = {id(inner) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in exempt
            for inner in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in skip]


@pytest.mark.parametrize("module", TCB)
def test_tcb_module_stays_in_subset(module):
    path = Path(attestsim.__file__).with_name(f"{module}.py")
    exempt = frozenset(FILE_IO_EXEMPT.get(module, ()))
    assert violations(path.read_text(encoding="utf-8"), exempt,
                      frozenset(IMPORTS[module]),
                      frozenset(LAZY_IMPORT_EXEMPT.get(module, ()))) == []


def test_only_crypto_imports_hashlib():
    """Every module of the package, not only the TCB, hashes through
    ``crypto``."""
    package = Path(attestsim.__file__).parent
    importers = sorted(
        path.stem for path in package.glob("*.py")
        if any(name.split(".")[0] == "hashlib"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               for name in imported(node)))
    assert importers == ["crypto"]


def test_lazy_import_exemption_covers_only_its_function_and_module():
    source = "def {}(a, b):\n    import {}\n    return a == b"
    lazy = frozenset({("ct_equal", "numpy")})
    assert violations(source.format("ct_equal", "numpy"), lazy=lazy) == []
    assert violations(source.format("ct_equal", "json"), lazy=lazy) == [
        "2: lazy import json"]
    assert violations(source.format("handle_request", "numpy"), lazy=lazy) == [
        "2: lazy import numpy"]


def test_file_io_exemption_covers_only_its_function():
    source = "def {}(path):\n    with open(path, 'w') as f:\n        pass"
    exempt = frozenset({"write_keystore"})
    assert violations(source.format("write_keystore"), exempt) == []
    assert violations(source.format("load_keystore"), exempt) == ["2: open"]


@pytest.mark.parametrize("source", [
    "setattr(cls, 'x', 1)",
    "v = getattr(obj, name)",
    "delattr(obj, 'x')",
    "for k, v in vars(cls).items():\n    pass",
    "eval('1')",
    "exec(code)",
    "compile(code, 'f', 'exec')",
    "m = __import__('json')",
    "globals()['x'] = 1",
    "def f():\n    global x\n    x = 1",
    "from collections import namedtuple",
    "import collections\nT = collections.namedtuple('T', 'a')",
    "from functools import cached_property",
    "class Key(Frozen):\n    def __eq__(self, other):\n        return True",
    "class Key:\n    __hash__ = None",
    "with open(path, 'rb') as f:\n    raw = f.read()",
    "fd = os.open(path, os.O_RDONLY)",
    "st = os.stat(path)",
    "st = os.fstat(fd)",
    "raw = json.load(f)",
    "raw = json.loads(text)",
    "import stat",
    "def handle_request(api):\n    import json",
    "import socket",
], ids=["setattr", "getattr", "delattr", "vars", "eval", "exec", "compile",
        "import", "globals", "global", "namedtuple-import",
        "namedtuple-attribute", "cached_property", "record-method",
        "record-method-assigned", "open", "os.open", "os.stat", "os.fstat",
        "json.load", "json.loads", "stat-module", "lazy-import",
        "import-not-on-the-list"])
def test_walk_catches(source):
    assert violations(source, allowed=SNIPPET_IMPORTS)


@pytest.mark.parametrize("source,found", [
    ("from dataclasses import dataclass\n\n"
     "@dataclass(frozen=True)\nclass C:\n    x: int",
     ["1: dataclasses", "1: dataclass", "3: dataclass"]),
    ("import dataclasses\n\n"
     "@dataclasses.dataclass(frozen=True)\nclass C:\n    x: int",
     ["1: dataclasses", "3: dataclass", "3: dataclasses"]),
], ids=["from-import-and-decorator", "module-attribute"])
def test_walk_catches_each_dataclass_spelling(source, found):
    """The import, the decorator and ``dataclasses.dataclass`` are each
    caught, in both spellings."""
    assert sorted(violations(source)) == sorted(found)
