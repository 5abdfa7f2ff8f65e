"""Determinism pack: keep the bit-identical-replay guarantees provable.

Every correctness story in this repo (scalar-vs-batched oracles, inert-plan
identity, thread-count invariance) rests on runs being bit-identical given
a seed. These rules ban the constructs that silently break that:

  unordered-container  std::unordered_{map,set,...} in src/: iteration
                       order is hash-seed- and libc++-dependent, and any
                       float accumulated in such an order diverges across
                       toolchains. src/ is currently clean; stays that way.
  pointer-key-order    std::map/std::set keyed on a pointer type: the
                       traversal order is the allocator's address order,
                       different every run under ASLR.
  par-stl              std::reduce / std::execution::par: unordered
                       reduction trees, nondeterministic for floats by
                       specification.
  par-float-accum      `x += ...` / `stats.add(...)` inside a parallel_for
                       body on state declared outside the body: the commit
                       order depends on thread scheduling, so float
                       accumulation diverges run-to-run even under a lock.
                       Stage per-index results into disjoint slots and fold
                       serially after the join, or document the ordered
                       reduction with an `ordered-reduction: ...` comment.
"""

from __future__ import annotations

import re

from ..config import Config
from ..findings import Finding
from ..source import SourceFile

RULES = {
    "unordered-container": (
        "std::unordered_* in src/: hash-order iteration breaks "
        "bit-identical replay; use std::map/std::set or a sorted vector"),
    "pointer-key-order": (
        "std::map/std::set keyed on a pointer: address order is "
        "nondeterministic under ASLR; key on a stable id instead"),
    "par-stl": (
        "std::reduce/std::execution::par reduce in a nondeterministic "
        "order; use a serial fold or an ordered tree"),
    "par-float-accum": (
        "accumulation inside a parallel_for body on state declared outside "
        "it: commit order is scheduler-dependent; stage per-index results "
        "and fold after the join (or add `ordered-reduction: ...`)"),
}

UNORDERED = re.compile(
    r"\bstd::(unordered_(?:multi)?(?:map|set))\b")
# First template argument ends in `*` (cv/spacing tolerated).
POINTER_KEY = re.compile(
    r"\bstd::((?:multi)?(?:map|set))\s*<\s*(?:[\w:]+\s*)+\*\s*[,>]")
PAR_STL = re.compile(r"\bstd::(reduce|execution::par(?:_unseq)?)\b")
PARALLEL_CALL = re.compile(r"\bparallel_for\s*\(")
ACCUM = re.compile(
    r"(?P<recv>[A-Za-z_]\w*(?:(?:\.|->)\w+|\[[^]]*\])*)\s*"
    r"(?:\+=|-=|\*=|/=|\.\s*(?:add|record)\s*\()")


def call_span(code: str, open_paren: int) -> int:
    """Offset one past the `)` matching the `(` at open_paren."""
    depth = 0
    for pos in range(open_paren, len(code)):
        if code[pos] == "(":
            depth += 1
        elif code[pos] == ")":
            depth -= 1
            if depth == 0:
                return pos + 1
    return len(code)


def scan(sf: SourceFile, cfg: Config):
    findings: list[Finding] = []
    suppressed = 0
    in_scope = cfg.in_scope(sf.rel, cfg.determinism_scope)
    if not in_scope:
        return findings, {"suppressed": 0}

    def report(line: int, rule: str, key: str, message: str) -> None:
        nonlocal suppressed
        if sf.allowed(line, rule):
            suppressed += 1
        else:
            findings.append(Finding(sf.rel, line, rule, key, message))

    for match in UNORDERED.finditer(sf.code):
        report(sf.line_of(match.start()), "unordered-container",
               f"std::{match.group(1)}", RULES["unordered-container"])
    for match in POINTER_KEY.finditer(sf.code):
        report(sf.line_of(match.start()), "pointer-key-order",
               f"std::{match.group(1)}<T*>", RULES["pointer-key-order"])
    for match in PAR_STL.finditer(sf.code):
        report(sf.line_of(match.start()), "par-stl",
               f"std::{match.group(1)}", RULES["par-stl"])

    for match in PARALLEL_CALL.finditer(sf.code):
        body_start = match.end() - 1
        body_end = call_span(sf.code, body_start)
        body = sf.code[body_start:body_end]
        for acc in ACCUM.finditer(body):
            recv = acc.group("recv")
            base = re.match(r"[A-Za-z_]\w*", recv).group(0)
            # State declared inside the body is thread-private: a
            # `<type> base` declaration within the span exempts it.
            if re.search(r"[\w>&\*]\s+" + re.escape(base) + r"\s*[={;,)]",
                         body[:acc.start()]):
                continue
            line = sf.line_of(body_start + acc.start())
            if sf.tag_nearby(line, "ordered-reduction:"):
                continue
            report(line, "par-float-accum", f"accum:{recv}",
                   f"`{recv}` accumulated inside a parallel_for body but "
                   "declared outside it: commit order is scheduler-"
                   "dependent; stage per-index results into disjoint slots "
                   "and fold after the join (or justify with "
                   "`ordered-reduction: ...`)")
    return findings, {"suppressed": suppressed}
