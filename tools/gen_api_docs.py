#!/usr/bin/env python3
"""Generate docs/api.md from the package's docstrings.

Walks every module under :mod:`repro`, collects public classes and
functions (honouring ``__all__`` where defined), and writes a compact
markdown reference: one section per module with each item's signature and
first docstring paragraph.  Pure stdlib — no Sphinx required — so the
reference can be regenerated offline:

    python tools/gen_api_docs.py [--check]

``--check`` exits non-zero if docs/api.md is stale (used as a test).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "docs" / "api.md"


def iter_modules():
    """Yield every module name under repro, sorted."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n", 1)[0].replace("\n", " ").strip()
    return para


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def public_members(module):
    """Public classes/functions defined in (or re-exported by) the module."""
    if hasattr(module, "__all__"):
        names = list(module.__all__)
    else:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name, None)
        # unwrap: a decorated function (e.g. functools.lru_cache) is still
        # a function of the API.
        if obj is None or not (inspect.isclass(obj)
                               or inspect.isfunction(inspect.unwrap(obj))):
            continue
        defined_in = getattr(obj, "__module__", "")
        if not defined_in.startswith("repro"):
            continue
        # Skip re-exports in package __init__s unless this *is* the
        # defining module (keeps each item documented exactly once).
        if defined_in != module.__name__:
            continue
        out.append((name, obj))
    return sorted(out)


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py` — do not edit by hand.",
        "Each entry shows the signature and the first docstring paragraph;",
        "see the source docstrings for full Args/Returns/Raises detail.",
        "",
    ]
    for name in iter_modules():
        module = importlib.import_module(name)
        members = public_members(module)
        mod_doc = first_paragraph(module)
        if not members and not mod_doc:
            continue
        lines.append(f"## `{name}`")
        lines.append("")
        if mod_doc:
            lines.append(mod_doc)
            lines.append("")
        for member_name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            sig = "" if inspect.isclass(obj) else signature_of(obj)
            lines.append(f"### `{kind} {member_name}{sig}`")
            lines.append("")
            para = first_paragraph(obj)
            if para:
                lines.append(para)
                lines.append("")
            if inspect.isclass(obj):
                methods = [
                    (n, m) for n, m in inspect.getmembers(obj, inspect.isfunction)
                    if not n.startswith("_") and m.__qualname__.startswith(obj.__name__)
                ]
                for mname, method in sorted(methods):
                    mpara = first_paragraph(method)
                    lines.append(
                        f"- `{mname}{signature_of(method)}` — {mpara}"
                    )
                if methods:
                    lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify docs/api.md is up to date")
    args = parser.parse_args()
    content = render()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_text() != content:
            print("docs/api.md is stale; run: python tools/gen_api_docs.py",
                  file=sys.stderr)
            return 1
        print("docs/api.md is up to date")
        return 0
    OUTPUT.write_text(content)
    print(f"wrote {OUTPUT} ({len(content.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
