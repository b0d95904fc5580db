"""Versioned prompt templates and their substitution helper."""

from __future__ import annotations

import functools
import re
from pathlib import Path
from typing import Dict

from .errors import UnrecognizedTemplateError

TEMPLATE_STRATEGY_GEN = "strategy-gen"
TEMPLATE_REFLECTION = "reflection"
TEMPLATE_NODE_DECISION = "node-decision"
TEMPLATE_JUDGE = "judge"
TEMPLATE_PSA_CONFLICT = "psa-conflict"
TEMPLATE_OBSERVER_SUMMARY = "observer-summary"

_TEMPLATE_DIR = Path(__file__).parent / "prompts"
_HEADER_RE = re.compile(r"^\[template:([a-z-]+) v(\d+)\]")
_TOKEN_RE = re.compile(r"\{\{([A-Z_]+)\}\}")


@functools.lru_cache(maxsize=None)
def template_text(name: str) -> str:
    """The text of version 1 of template ``name``, the only version."""
    path = _TEMPLATE_DIR / f"{name.replace('-', '_')}_v1.txt"
    if not path.is_file():
        raise UnrecognizedTemplateError(f"no template {name} v1")
    return path.read_text(encoding="utf-8")


def render_template(name: str, substitutions: Dict[str, str]) -> str:
    """Fill every {{TOKEN}} in the template; unfilled tokens are an error."""
    text = template_text(name)

    def repl(match: re.Match) -> str:
        token = match.group(1)
        if token not in substitutions:
            raise ValueError(f"template {name}: no value for {{{{{token}}}}}")
        return str(substitutions[token])

    return _TOKEN_RE.sub(repl, text)


def template_header(text: str) -> str:
    """Template name declared by a prompt, or empty string."""
    m = _HEADER_RE.match(text)
    return m.group(1) if m else ""
