"""Inline suppression comments.

A finding can be silenced at its line, for a whole function, or for a
whole file:

- ``# repro: allow[DET001]`` on the flagged line suppresses that code
  there; several codes may be listed: ``allow[DET001,RNG002]``.
- ``# repro: allow[*]`` suppresses every code on the line.
- ``# repro: allow-fn[DET001]`` on a function's ``def`` line (or any
  of its decorator lines) suppresses the code through the whole
  function body; ``allow-fn[*]`` silences the function entirely.
- ``# repro: allow-file[RNG002]`` (conventionally near the top of the
  file) suppresses the code file-wide; ``allow-file[*]`` silences the
  whole file.

Suppressions are matched against the *reported* line of a diagnostic,
which for multi-line statements is the line the statement starts on.
For decorated functions the decorator lines and the ``def`` line form
one alias group: an ``allow[...]`` on any of them covers diagnostics
reported at any other (a checker may anchor its finding at the
decorator while the natural place to write the escape is the ``def``
line, or vice versa).

The scan is textual, so a marker is recognised even inside a string
literal — do not spell the marker in test data you want linted.  The
function-scope and alias features additionally need the parsed tree;
when the runner has one it passes it to :meth:`Suppressions.scan`,
otherwise the source is parsed on the spot (and unparseable files
simply get no function-aware behaviour — the per-line and per-file
markers still work).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic

_MARKER = re.compile(r"#\s*repro:\s*(allow|allow-file|allow-fn)\[([^\]]+)\]")


def _function_groups(
        tree: ast.AST) -> List[Tuple[Set[int], int, int]]:
    """(alias lines, span start, span end) per function definition.

    The alias lines are the decorator lines plus the ``def`` line; the
    span covers the whole definition including decorators.
    """
    groups: List[Tuple[Set[int], int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        alias_lines = {d.lineno for d in node.decorator_list}
        alias_lines.add(node.lineno)
        end = getattr(node, "end_lineno", None) or node.lineno
        groups.append((alias_lines, min(alias_lines), end))
    return groups


class Suppressions:
    """The suppression markers of one source file."""

    def __init__(self) -> None:
        self.file_codes: Set[str] = set()
        self.line_codes: Dict[int, Set[str]] = {}
        #: (start line, end line, codes) function-scope suppressions.
        self.span_codes: List[Tuple[int, int, Set[str]]] = []

    @classmethod
    def scan(cls, source: str,
             tree: Optional[ast.AST] = None) -> "Suppressions":
        result = cls()
        fn_markers: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            for kind, codes in _MARKER.findall(line):
                names = {code.strip() for code in codes.split(",")
                         if code.strip()}
                if kind == "allow-file":
                    result.file_codes.update(names)
                elif kind == "allow-fn":
                    fn_markers.setdefault(lineno, set()).update(names)
                else:
                    result.line_codes.setdefault(lineno, set()).update(names)

        if tree is None:
            try:
                tree = ast.parse(source)
            except (SyntaxError, ValueError):
                tree = None
        if tree is not None:
            groups = _function_groups(tree)
            result._alias_decorator_lines(groups)
            result._attach_fn_markers(groups, fn_markers)
        elif fn_markers:
            # No tree to resolve spans against: degrade to line scope
            # so the marker at least covers its own line.
            for lineno, names in fn_markers.items():
                result.line_codes.setdefault(lineno, set()).update(names)
        return result

    def _alias_decorator_lines(
            self, groups: List[Tuple[Set[int], int, int]]) -> None:
        """``allow[...]`` on a decorator or ``def`` line covers both."""
        for alias_lines, _start, _end in groups:
            union: Set[str] = set()
            for line in alias_lines:
                union.update(self.line_codes.get(line, ()))
            if union:
                for line in alias_lines:
                    self.line_codes.setdefault(line, set()).update(union)

    def _attach_fn_markers(
            self, groups: List[Tuple[Set[int], int, int]],
            fn_markers: Dict[int, Set[str]]) -> None:
        """Resolve each ``allow-fn`` marker to its function's span.

        The marker belongs to the *innermost* function whose span
        contains it; markers outside any function degrade to line
        scope.
        """
        for lineno, names in sorted(fn_markers.items()):
            best: Optional[Tuple[Set[int], int, int]] = None
            for group in groups:
                alias_lines, start, end = group
                if lineno in alias_lines or start <= lineno <= end:
                    if best is None or (start, -end) > (best[1], -best[2]):
                        best = group
            if best is None:
                self.line_codes.setdefault(lineno, set()).update(names)
            else:
                self.span_codes.append((best[1], best[2], set(names)))

    def is_suppressed(self, diagnostic: Diagnostic) -> bool:
        if "*" in self.file_codes or diagnostic.code in self.file_codes:
            return True
        at_line = self.line_codes.get(diagnostic.line)
        if at_line is not None and (
                "*" in at_line or diagnostic.code in at_line):
            return True
        for start, end, codes in self.span_codes:
            if (start <= diagnostic.line <= end
                    and ("*" in codes or diagnostic.code in codes)):
                return True
        return False
