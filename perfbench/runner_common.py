"""Paths and package import shared by the benchmark's scripts."""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "strandhopf"
OUT = Path(__file__).resolve().parent / "out"


def import_package():
    """Import strandhopf from this checkout's sources; the modules come
    back as attributes of one namespace."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from strandhopf import (cli, graphs, hopf, io, iso, models, rewrite,
                            series)
    return types.SimpleNamespace(cli=cli, graphs=graphs, hopf=hopf, io=io,
                                 iso=iso, models=models, rewrite=rewrite,
                                 series=series)


def git_revision(root):
    """Commit id read from ``root/.git`` without running git, or
    "unknown" where the checkout is not a git repository."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
