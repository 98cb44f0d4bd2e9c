#!/usr/bin/env python
"""Generate docs/reference.md from the package's docstrings.

Usage::

    python scripts/gen_api_docs.py [output]

Walks every public module of :mod:`repro`, collects module docstrings and
the signatures + first docstring paragraph of public classes/functions,
and emits a single markdown reference.  Deliberately dependency-free (no
sphinx); re-run after API changes and commit the output.  The output is
deterministic, so CI regenerates it and fails on any difference from the
committed file.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
import sys

import repro

SKIP_MODULES = {"repro.experiments.cli", "repro.experiments.__main__"}


def iter_modules():
    yield "repro", repro
    for info in sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."), key=lambda i: i.name
    ):
        if info.name in SKIP_MODULES or info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        yield info.name, importlib.import_module(info.name)


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return ""
    paragraphs = inspect.cleandoc(doc).split("\n\n")
    return paragraphs[0].replace("\n", " ")


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


#: A function's ``repr``, whose address changes from run to run.
_FUNCTION_REPR = re.compile(r"<function (\S+) at 0x[0-9a-f]+>")


def render_value(obj) -> str:
    """``repr`` of a data value, with the functions inside it shown by
    qualified name so the output is the same on every run."""
    return _FUNCTION_REPR.sub(r"\1", repr(obj))


def document_module(name: str, module) -> list[str]:
    lines = [f"## `{name}`", ""]
    head = first_paragraph(module.__doc__)
    if head:
        lines += [head, ""]
    exported = getattr(module, "__all__", None)
    if not exported:
        return lines
    for symbol in exported:
        obj = getattr(module, symbol, None)
        if obj is None:
            continue
        # document each symbol where it is defined, not where re-exported
        defined_in = getattr(obj, "__module__", name)
        if inspect.ismodule(obj) or (defined_in != name and name != "repro"):
            continue
        if inspect.isclass(obj):
            lines.append(f"### class `{symbol}{signature_of(obj)}`")
            lines += ["", first_paragraph(obj.__doc__), ""]
            for mname, meth in sorted(vars(obj).items()):
                if mname.startswith("_") or not callable(meth):
                    continue
                doc = first_paragraph(getattr(meth, "__doc__", ""))
                lines.append(f"- `{symbol}.{mname}{signature_of(meth)}` — {doc}")
            lines.append("")
        elif callable(obj):
            lines.append(f"### `{symbol}{signature_of(obj)}`")
            lines += ["", first_paragraph(obj.__doc__), ""]
        else:
            lines.append(f"### data `{symbol}` = `{render_value(obj)}`")
            lines.append("")
    return lines


def main(out_path: str = "docs/reference.md") -> None:
    lines = [
        "# API reference",
        "",
        "_Generated by `python scripts/gen_api_docs.py`; do not edit by hand._",
        "",
    ]
    for name, module in iter_modules():
        lines += document_module(name, module)
    text = "\n".join(lines).rstrip() + "\n"
    with open(out_path, "w") as fh:
        fh.write(text)
    print(f"wrote {out_path} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main(*sys.argv[1:2])
