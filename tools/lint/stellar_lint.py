#!/usr/bin/env python3
"""stellar-lint: determinism & layering static checks for the Stellar tree.

The simulator's core contract is bit-for-bit determinism: the same binary,
seed, and inputs must produce byte-identical traces, snapshots, and JSON
dumps on every run and every platform (docs/STATIC_ANALYSIS.md). Most
violations of that contract are *textually* recognizable — a wall-clock
read, an iteration over an unordered container feeding an emitter, a
platform-dependent float format — so this linter catches them in CI before
they become flaky-test archaeology.

Rules (each individually suppressible with `// stellar-lint: allow(<rule>)`
on the offending line or the line above):

  wall-clock            No wall-clock / libc-randomness calls outside the
                        whitelist (bench timing helpers, the seeded Rng).
                        time(), clock(), gettimeofday, std::chrono::*_clock,
                        rand(), random_device, srand.
  unordered-iter        No iteration over std::unordered_{map,set} members
                        inside deterministic emitters (to_json / snapshot /
                        audit / digest / ...) or loop bodies that schedule
                        or send — unordered iteration order is
                        implementation-defined and seed-dependent.
  std-function-hot-path No std::function in the simulation hot path
                        (src/sim, net/link, net/fabric): it heap-allocates
                        per capture and double-indirects per call. Use
                        InlineFunction (sim/inline_action.h).
  float-format          No float formatting ("%f/%e/%g", setprecision) in
                        src/ emitters: float text is locale/libc-dependent.
                        Serialize scaled integers (ps, ppm, bytes) instead.
  shard-shared          No mutable file-scope or static-storage state in the
                        shard-homed modules (src/sim, src/net, src/core):
                        run-level sharding (core/run_shard.h) runs whole
                        simulations on concurrent workers, so a mutable
                        static is a data race *and* a determinism leak
                        between runs.
                        const/constexpr and thread_local (shard-private by
                        construction) are exempt.
  layering              #includes must follow the declared module DAG below
                        (e.g. src/sim must not include src/net).
  owned-events          No Simulator::schedule_at/after call in src/ (a
                        receiver named sim, sim_ or ...simulator()): a
                        one-shot there outlives the object that scheduled
                        it. Hold an OwnedEvents or a Simulator::Timer that
                        dies with its owner.

Usage:
  tools/lint/stellar_lint.py [--root DIR] [paths...]   # lint tree (default)
  tools/lint/stellar_lint.py --self-test               # run fixture tests

Exit status: 0 clean, 1 findings, 2 usage/internal error.

Dependency-free by design (stdlib only): it must run in a bare container
and finish in seconds (< ~5 s over the full tree).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Module layering DAG: src/<module> -> set of src/<modules> it may include.
# Mirrors the architecture in DESIGN.md: common at the bottom, sim above it,
# device/network layers above that, core/fault/check orchestrating on top.
# Editing this table is an architecture decision — see docs/STATIC_ANALYSIS.md.
# --------------------------------------------------------------------------
LAYERING: dict[str, set[str]] = {
    "common": set(),
    # check is both the low-level CHECK macro (check.h -> common) and the
    # cross-layer invariant auditors (auditors.* walk every subsystem).
    "check": {"common", "core", "memory", "net", "rnic", "sim", "virt"},
    # sim -> net is the hybrid fidelity driver (sim/hybrid.* maps fluid
    # flows onto real ClosFabric links); the core engine (simulator.*,
    # fluid.*) stays net-free via the stellar_hybrid target.
    "sim": {"common", "check", "net"},
    "obs": {"common", "check", "sim"},
    "memory": {"common", "check"},
    "pcie": {"common", "check", "memory", "obs"},
    "net": {"common", "check", "sim", "obs"},
    "rnic": {"common", "check", "memory", "net", "obs", "pcie", "sim"},
    "virt": {"common", "check", "memory", "obs", "pcie", "rnic", "sim"},
    "collective": {"common", "check", "net", "obs", "rnic", "sim"},
    "workload": {"common", "check", "net", "sim"},
    "core": {"collective", "common", "check", "net", "obs", "pcie", "rnic",
             "sim", "virt", "workload", "memory"},
    "fault": {"common", "check", "net", "obs", "rnic", "sim", "virt",
              "memory", "pcie"},
}

# Files allowed to read wall clocks / libc randomness: the bench timing
# helpers (host-side wall time never feeds simulation state) and the seeded
# deterministic Rng implementation itself.
WALL_CLOCK_WHITELIST = {
    "bench/bench_util.h",
    "src/common/rng.h",
}

# std::function ban applies to the scheduling/delivery hot path only.
HOT_PATH_PREFIXES = ("src/sim/",)
HOT_PATH_FILES_RE = re.compile(r"^src/net/(link|fabric)\.(h|cc)$")

# Emitter context: function names whose output must be byte-deterministic.
EMITTER_RE = re.compile(
    r"to_json|to_table|to_string|write_json|save_state|save\b|snapshot"
    r"|fields|digest|serialize|dump|summar|fingerprint|emit|audit"
)

SUPPRESS_RE = re.compile(r"//\s*stellar-lint:\s*allow\(([a-z0-9-]+)\)")

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "std::chrono clock read"),
    (re.compile(r"(?<![\w.>:])(?:std::)?time\s*\(\s*(?:nullptr|NULL|0|&)"),
     "time() wall-clock read"),
    (re.compile(r"(?<![\w.>:])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w.>:])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w.>:])(?:std::)?clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"(?<![\w.>:])(?:std::)?s?rand\s*\("), "libc rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
]

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s+(\w+)\s*[;{=]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")
FUNC_DEF_RE = re.compile(
    r"^[^#/]*?(?:[\w:<>,~&*\s]+\s)?([a-zA-Z_]\w*)\s*\([^;]*$"
    r"|^[^#/]*?(?:[\w:<>,~&*\s]+\s)?([a-zA-Z_]\w*)\s*\([^;{]*\)"
    r"(?:\s*const)?(?:\s*\w+\([^)]*\))?\s*\{"
)

FLOAT_FMT_LITERAL_RE = re.compile(r'%[-+ #0-9.*]*[lL]*[efgEFG]')
FLOAT_FMT_STREAM_RE = re.compile(
    r"std::(setprecision|fixed|scientific|hexfloat|defaultfloat)\b")

STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")

# Modules whose state is homed on one simulation run: mutable statics there
# are shared between runs (core/run_shard.h runs them concurrently).
SHARD_SHARED_PREFIXES = ("src/sim/", "src/net/", "src/core/")
SHARD_SHARED_EXEMPT_RE = re.compile(
    r"\b(thread_local|constexpr|constinit)\b|\bstatic_assert\b")
STATIC_KW_RE = re.compile(r"(?:^|[\s;{}(])static(?:\s|$)")
# Lines that cannot be a namespace-scope variable definition.
SHARD_DECL_SKIP_RE = re.compile(
    r"^\s*(?:[}#]|using\b|typedef\b|namespace\b|template\b|extern\b"
    r"|friend\b|class\b|struct\b|enum\b|return\b|public\s*:|private\s*:"
    r"|protected\s*:|case\b|default\s*:|goto\b|if\b|for\b|while\b|do\b"
    r"|switch\b|else\b|break\b|continue\b|delete\b|operator\b)")
NS_VAR_DEF_RE = re.compile(
    r"^(?:inline\s+)?[A-Za-z_][\w:]*(?:\s*[&*]+\s*|\s+)"
    r"[A-Za-z_][\w:]*\s*(?:=|\{|\[|;)")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# A one-shot scheduled on a Simulator itself: `sim.`, `sim_->`,
# `engine_.simulator().` ... followed by schedule_at / schedule_after.
SIM_SCHEDULE_RE = re.compile(
    r"(?:\bsim_?|\bsimulator\(\s*\))\s*(?:\.|->)\s*"
    r"schedule_(?:at|after)\s*\(")


def strip_template_args(s: str) -> str:
    """Blank balanced <...> groups so template commas/parens don't confuse
    the declaration heuristics."""
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s


class NamespaceTracker:
    """Tracks whether the current line sits at namespace/file scope (every
    open brace on the stack belongs to a namespace). Heuristic like
    FunctionTracker: a brace is a namespace brace when the preceding
    non-terminated code text ends with `namespace [name]`."""

    def __init__(self) -> None:
        self.stack: list[bool] = []
        self.buf = ""

    def at_namespace_scope(self) -> bool:
        return all(self.stack)

    def feed(self, line: str) -> None:
        for c in line:
            if c == "{":
                is_ns = re.search(
                    r"\bnamespace(\s+[A-Za-z_][\w:]*)?\s*$", self.buf
                ) is not None
                self.stack.append(is_ns)
                self.buf = ""
            elif c == "}":
                if self.stack:
                    self.stack.pop()
                self.buf = ""
            elif c == ";":
                self.buf = ""
            else:
                self.buf += c


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    path: str      # repo-relative, forward slashes
    raw: list[str]       # original lines (comments intact, for suppressions)
    code: list[str]      # comments and string/char literals blanked out
    literals: list[str]  # comments blanked, string literals KEPT (for %f scan)


def strip_comments(text: str) -> tuple[str, str]:
    """Return (code, literals): code has comments AND string/char literals
    blanked; literals has only comments blanked. Newlines are preserved so
    line numbers survive."""
    code = []
    lit = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                code.append(" ")
                lit.append(" ")
                i += 1
                code.append(" ")
                lit.append(" ")
            elif c == "/" and nxt == "*":
                state = "block_comment"
                code.append(" ")
                lit.append(" ")
                i += 1
                code.append(" ")
                lit.append(" ")
            elif c == '"':
                state = "string"
                code.append(" ")
                lit.append(c)
            elif c == "'":
                state = "char"
                code.append(" ")
                lit.append(c)
            else:
                code.append(c)
                lit.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                code.append(c)
                lit.append(c)
            else:
                code.append(" ")
                lit.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                code.append(" ")
                lit.append(" ")
                i += 1
                code.append(" ")
                lit.append(" ")
            else:
                code.append(c if c == "\n" else " ")
                lit.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                code.append(" ")
                lit.append(c)
                if nxt:
                    code.append(" ")
                    lit.append(nxt)
                    i += 1
            elif c == '"':
                state = "code"
                code.append(" ")
                lit.append(c)
            else:
                code.append(" " if c != "\n" else c)
                lit.append(c)
        elif state == "char":
            if c == "\\":
                code.append(" ")
                lit.append(" ")
                if nxt:
                    code.append(" ")
                    lit.append(" ")
                    i += 1
            elif c == "'":
                state = "code"
                code.append(" ")
                lit.append(c)
            else:
                code.append(" " if c != "\n" else c)
                lit.append(" " if c != "\n" else c)
        i += 1
    return "".join(code), "".join(lit)


def load_file(root: str, rel: str) -> SourceFile:
    with open(os.path.join(root, rel), "r", encoding="utf-8",
              errors="replace") as f:
        text = f.read()
    code, lit = strip_comments(text)
    return SourceFile(path=rel, raw=text.split("\n"), code=code.split("\n"),
                      literals=lit.split("\n"))


def suppressed(sf: SourceFile, lineno: int, rule: str) -> bool:
    """True if line `lineno` (1-based), or the contiguous comment block
    immediately above it, carries an allow(<rule>) suppression."""
    if 1 <= lineno <= len(sf.raw):
        m = SUPPRESS_RE.search(sf.raw[lineno - 1])
        if m and m.group(1) == rule:
            return True
    ln = lineno - 1
    while ln >= 1:
        stripped = sf.raw[ln - 1].strip()
        m = SUPPRESS_RE.search(stripped)
        if m and m.group(1) == rule:
            return True
        # Keep walking up through the attached comment block (and the
        # declaration line the finding is part of, e.g. a wrapped `using`).
        if stripped.startswith("//") or (ln == lineno - 1 and stripped):
            ln -= 1
            continue
        break
    return False


class FunctionTracker:
    """Heuristic tracker for 'which function body is this line inside'.

    Treats `name(...) ... {` at depth 0/1 (namespace/class level) as a
    function definition and tracks brace depth. Good enough for a lint over
    a consistently-formatted tree; not a parser.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.stack: list[tuple[int, str]] = []  # (depth at entry, name)
        self.pending: str | None = None

    def current(self) -> str:
        return self.stack[-1][1] if self.stack else ""

    def feed(self, line: str) -> None:
        # Remember the most recent plausible function name before a '{'.
        for m in re.finditer(r"([a-zA-Z_][\w:]*)\s*\(", line):
            name = m.group(1)
            if name in ("if", "for", "while", "switch", "return", "sizeof",
                        "catch", "static_cast", "reinterpret_cast",
                        "const_cast", "dynamic_cast", "alignof", "decltype"):
                continue
            self.pending = name.split("::")[-1]
        for c in line:
            if c == "{":
                if self.pending is not None:
                    self.stack.append((self.depth, self.pending))
                    self.pending = None
                self.depth += 1
            elif c == "}":
                self.depth -= 1
                if self.stack and self.depth <= self.stack[-1][0]:
                    self.stack.pop()
        if ";" in line:
            self.pending = None


@dataclass
class Linter:
    root: str
    findings: list[Finding] = field(default_factory=list)
    # member name -> declaring module, for unordered members referenced from
    # another module (the cross-layer auditors reach into friends' state).
    unordered_by_module: dict[str, set[str]] = field(default_factory=dict)
    unordered_global: set[str] = field(default_factory=set)

    def report(self, sf: SourceFile, lineno: int, rule: str,
               message: str) -> None:
        if not suppressed(sf, lineno, rule):
            self.findings.append(Finding(sf.path, lineno, rule, message))

    # -- pass 1: collect unordered-container member names ------------------

    def collect_unordered(self, sf: SourceFile) -> None:
        module = module_of(sf.path)
        names = self.unordered_by_module.setdefault(module, set())
        for line in sf.code:
            for m in UNORDERED_DECL_RE.finditer(line):
                names.add(m.group(1))

    # -- pass 2: per-file rules --------------------------------------------

    def lint_file(self, sf: SourceFile) -> None:
        self.rule_wall_clock(sf)
        self.rule_std_function(sf)
        self.rule_float_format(sf)
        self.rule_unordered_iter(sf)
        self.rule_shard_shared(sf)
        self.rule_layering(sf)
        self.rule_owned_events(sf)

    def rule_wall_clock(self, sf: SourceFile) -> None:
        if sf.path in WALL_CLOCK_WHITELIST:
            return
        for i, line in enumerate(sf.code, start=1):
            for pat, what in WALL_CLOCK_PATTERNS:
                if pat.search(line):
                    self.report(
                        sf, i, "wall-clock",
                        f"{what}: nondeterministic input to a deterministic "
                        f"simulation (whitelist: bench/bench_util.h timers, "
                        f"src/common/rng.h)")

    def rule_std_function(self, sf: SourceFile) -> None:
        if not (sf.path.startswith(HOT_PATH_PREFIXES)
                or HOT_PATH_FILES_RE.match(sf.path)):
            return
        for i, line in enumerate(sf.code, start=1):
            if STD_FUNCTION_RE.search(line):
                self.report(
                    sf, i, "std-function-hot-path",
                    "std::function in the simulation hot path heap-allocates "
                    "per capture; use InlineFunction (sim/inline_action.h)")

    def rule_float_format(self, sf: SourceFile) -> None:
        if not sf.path.startswith("src/"):
            return
        tracker = FunctionTracker()
        for i, (lit_line, code_line) in enumerate(
                zip(sf.literals, sf.code), start=1):
            # Human-readable renderers (to_string: CLI/log lines) may format
            # floats; machine-readable emitters must not.
            human = "to_string" in tracker.current()
            if not human and FLOAT_FMT_LITERAL_RE.search(lit_line):
                self.report(
                    sf, i, "float-format",
                    'float printf format ("%f/%e/%g") is locale/libc-'
                    "dependent; serialize scaled integers (ps, ppm, bytes)")
            if not human and FLOAT_FMT_STREAM_RE.search(code_line):
                self.report(
                    sf, i, "float-format",
                    "iostream float formatting is locale-dependent; "
                    "serialize scaled integers (ps, ppm, bytes)")
            tracker.feed(code_line)

    def rule_unordered_iter(self, sf: SourceFile) -> None:
        module = module_of(sf.path)
        local = self.unordered_by_module.get(module, set())
        tracker = FunctionTracker()
        lines = sf.code
        for i, line in enumerate(lines, start=1):
            m = RANGE_FOR_RE.search(line)
            if m is not None:
                expr = m.group(1)
                name = self._unordered_name(expr, local)
                if name is not None:
                    func = tracker.current() or pending_name(tracker)
                    in_emitter = bool(EMITTER_RE.search(func))
                    body = " ".join(lines[i - 1:i + 6])
                    # Collect-then-sort is the sanctioned fix (and what
                    # common/ordered.h does): a sort right after the loop
                    # means the iteration order never escapes.
                    if re.search(r"std::sort\s*\(", body):
                        continue
                    feeds_events = re.search(
                        r"\bschedule\w*\s*\(|\bsend\s*\(", body) is not None
                    if in_emitter or feeds_events:
                        why = (f"inside emitter '{func}'" if in_emitter
                               else "loop body schedules/sends")
                        self.report(
                            sf, i, "unordered-iter",
                            f"iterating unordered container '{name}' {why}: "
                            f"iteration order is implementation-defined; "
                            f"sort keys first (common/ordered.h)")
            # for_each-style callbacks over unordered members count too when
            # the surrounding function is an emitter.
            tracker.feed(line)

    def _unordered_name(self, expr: str,
                        local: set[str]) -> str | None:
        expr = expr.strip()
        if re.search(r"\bsorted", expr):
            return None  # sorted_keys(...)/sorted copy: explicitly ordered
        for name in re.findall(r"[a-zA-Z_]\w*", expr):
            if name in local or name in self.unordered_global:
                return name
        return None

    def rule_shard_shared(self, sf: SourceFile) -> None:
        if not sf.path.startswith(SHARD_SHARED_PREFIXES):
            return
        ns = NamespaceTracker()
        for i, line in enumerate(sf.code, start=1):
            at_ns = ns.at_namespace_scope()
            ns.feed(line)
            if SHARD_SHARED_EXEMPT_RE.search(line):
                continue
            m = STATIC_KW_RE.search(line)
            if m is not None:
                rest = strip_template_args(line[m.end():])
                if re.match(r"\s*(?:inline\s+)?const\b", rest):
                    continue  # static const data: immutable, shareable
                if self._is_data_decl(rest):
                    self.report(
                        sf, i, "shard-shared",
                        "mutable static-storage state in a shard-homed "
                        "module: runs execute on concurrent workers "
                        "(core/run_shard.h), so this is shared across runs; "
                        "home it on the run's object graph, make it "
                        "const/constexpr, or use thread_local")
                continue
            # File/namespace-scope variable definitions without the static
            # keyword (anonymous-namespace globals) share state all the same.
            if not at_ns:
                continue
            s = line.strip()
            if not s or not s.endswith(";") or SHARD_DECL_SKIP_RE.match(s):
                continue
            t = strip_template_args(s)
            if re.match(r"^(?:inline\s+)?const\b", t):
                continue
            if NS_VAR_DEF_RE.match(t) and self._is_data_decl(t):
                self.report(
                    sf, i, "shard-shared",
                    "mutable file-scope state in a shard-homed module: "
                    "runs execute on concurrent workers (core/run_shard.h), "
                    "so this is shared across runs; home it on the run's "
                    "object graph, make it const/constexpr, or use "
                    "thread_local")

    @staticmethod
    def _is_data_decl(decl: str) -> bool:
        """True when a (template-stripped) declaration tail is a variable,
        not a function: no parameter list, or an initializer before any
        `(` (e.g. `Foo x = make();`)."""
        paren = decl.find("(")
        if paren < 0:
            return True
        inits = [p for p in (decl.find("="), decl.find("{")) if p >= 0]
        return bool(inits) and min(inits) < paren

    def rule_layering(self, sf: SourceFile) -> None:
        module = module_of(sf.path)
        if module not in LAYERING:
            return
        allowed = LAYERING[module] | {module}
        # Scan the literals-preserved view: the include path is a string.
        for i, line in enumerate(sf.literals, start=1):
            m = INCLUDE_RE.match(line)
            if m is None:
                continue
            inc = m.group(1)
            top = inc.split("/", 1)[0]
            if top in LAYERING and top not in allowed:
                self.report(
                    sf, i, "layering",
                    f"src/{module} must not include src/{top} "
                    f"(declared DAG in tools/lint/stellar_lint.py)")


    def rule_owned_events(self, sf: SourceFile) -> None:
        if not sf.path.startswith("src/"):
            return
        for i, line in enumerate(sf.code, start=1):
            if SIM_SCHEDULE_RE.search(line):
                self.report(
                    sf, i, "owned-events",
                    "one-shot scheduled on the Simulator outlives its "
                    "owner; schedule it on an OwnedEvents (or arm a "
                    "Simulator::Timer) the owner holds")


def pending_name(tracker: FunctionTracker) -> str:
    return tracker.pending or ""


def module_of(path: str) -> str:
    """src/net/link.h -> net; bench/foo.cc -> bench; tools/... -> tools."""
    parts = path.split("/")
    if parts[0] == "src" and len(parts) > 2:
        return parts[1]
    return parts[0]


def normalize_fixture_path(path: str) -> str:
    """Fixture files live under tests/lint_fixtures/<mirror>/...; lint them
    as if the mirror were the repo root so path-based rules apply."""
    marker = "lint_fixtures/"
    idx = path.find(marker)
    if idx >= 0:
        return path[idx + len(marker):]
    return path


def gather_files(root: str, paths: list[str]) -> list[str]:
    exts = (".h", ".cc", ".hpp", ".cpp")
    rels: list[str] = []
    roots = paths if paths else ["src", "bench"]
    for p in roots:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            rels.append(p.replace(os.sep, "/"))
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for fn in sorted(filenames):
                if fn.endswith(exts):
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


def run_lint(root: str, paths: list[str], fixture_mode: bool = False) -> list[Finding]:
    linter = Linter(root=root)
    # Names unordered at their declaration but iterated from another module
    # (the cross-layer auditors befriend subsystem internals).
    linter.unordered_global = {"rx_"}
    rels = gather_files(root, paths)
    files: list[SourceFile] = []
    for rel in rels:
        sf = load_file(root, rel)
        if fixture_mode:
            sf.path = normalize_fixture_path(sf.path)
        files.append(sf)
    for sf in files:
        linter.collect_unordered(sf)
    for sf in files:
        linter.lint_file(sf)
    return linter.findings


# --------------------------------------------------------------------------
# Self test: every fixture under tests/lint_fixtures declares its expected
# findings with `// expect: <rule>` on the offending line (or none for the
# clean/suppressed fixtures). The test asserts exact match per file.
# --------------------------------------------------------------------------

def self_test(repo_root: str) -> int:
    fdir = os.path.join(repo_root, "tests", "lint_fixtures")
    if not os.path.isdir(fdir):
        print(f"stellar-lint: fixture directory missing: {fdir}",
              file=sys.stderr)
        return 2
    failures = 0
    cases = 0
    findings = run_lint(fdir, [], fixture_mode=True)
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.path, []).append(f)

    for dirpath, _dn, filenames in os.walk(fdir):
        for fn in sorted(filenames):
            if not fn.endswith((".h", ".cc")):
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, fdir).replace(os.sep, "/")
            rel = normalize_fixture_path(rel)
            with open(full, encoding="utf-8") as fh:
                lines = fh.read().split("\n")
            expected: list[tuple[int, str]] = []
            for i, line in enumerate(lines, start=1):
                for m in re.finditer(r"//\s*expect:\s*([a-z0-9-]+)", line):
                    expected.append((i, m.group(1)))
            got = sorted((f.line, f.rule) for f in by_file.get(rel, []))
            want = sorted(expected)
            cases += 1
            if got != want:
                failures += 1
                print(f"FAIL {rel}: expected {want}, got {got}",
                      file=sys.stderr)
                for f in by_file.get(rel, []):
                    print(f"  {f}", file=sys.stderr)
    print(f"stellar-lint self-test: {cases - failures}/{cases} fixtures ok")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(prog="stellar-lint", add_help=True)
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up from this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture self-tests and exit")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs relative to root (default: src bench)")
    args = ap.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(here))

    if args.self_test:
        return self_test(root)

    findings = run_lint(root, args.paths)
    for f in findings:
        print(f)
    if findings:
        print(f"stellar-lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("stellar-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
