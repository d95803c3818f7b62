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
  generates. The TCB's records are written out in source instead
  (``kernel.Frozen`` and ``crypto.VerifyKey``).

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
# class builders that generate source, and the module one comes from
CLASS_BUILDERS = {"namedtuple", "dataclass", "dataclasses"}


def violations(source: str) -> list[str]:
    """Each place in ``source`` that leaves the subset, as ``line: what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in BANNED_CALLS):
            found.append(f"{node.lineno}: call to {node.func.id}")
        elif isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        else:
            # a name, an attribute, an imported name or the module imported from
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else node.module if isinstance(node, ast.ImportFrom)
                    else None)
            if name in CLASS_BUILDERS:
                found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("module", TCB)
def test_tcb_module_stays_in_subset(module):
    path = Path(attestsim.__file__).with_name(f"{module}.py")
    assert violations(path.read_text(encoding="utf-8")) == []


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
], ids=["setattr", "getattr", "delattr", "vars", "eval", "exec", "compile",
        "import", "globals", "global", "namedtuple-import",
        "namedtuple-attribute"])
def test_walk_catches(source):
    assert violations(source)


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
