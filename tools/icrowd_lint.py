#!/usr/bin/env python3
"""iCrowd project linter: invariants clang-tidy cannot express.

Rules (see DESIGN.md "Static-analysis layer"):

  rng-source      All randomness flows through src/common/random.*. Any use of
                  std::rand/srand, std::random_device, or direct construction
                  or naming of std::mt19937/std::mt19937_64 outside those two
                  files breaks seed-reproducibility and is an error. No waiver.

  unordered-iter  In the online hot paths (src/assign, src/estimation) a
                  range-for over a std::unordered_map/std::unordered_set whose
                  body appends to a container or accumulates with a compound
                  assignment is iteration-order-sensitive: hash order is not
                  part of the determinism contract, and float accumulation is
                  not associative. Such loops need an explicit waiver comment
                  on the loop line or the line above:
                      // lint: unordered-ok(<reason>)

  include-guard   Headers use #ifndef/#define guards named
                  ICROWD_<RELATIVE_PATH>_H_ (path from the repo root with a
                  leading "src/" stripped, upper-cased, separators -> "_").

  cc-include      #include of a .cc/.cpp file is never correct here; it hides
                  ODR violations and breaks the per-target build graph.

  clock-source    std::chrono::system_clock reads wall time, which varies run
                  to run and breaks the deterministic-export contract (see
                  DESIGN.md "Observability"). Durations come from
                  steady_clock via Stopwatch or the obs layer; system_clock
                  is allowed only in src/obs/ and src/common/stopwatch.h, or
                  with an explicit waiver on the use line or the line above:
                      // lint: clock-ok(<reason>)
                  Exception to the exception: the runtime-introspection
                  stack (heartbeat/flight-recorder/statusz under src/obs/)
                  is monotonic-only — stall ages and flight timestamps are
                  duration arithmetic, and a wall-clock step (NTP, suspend)
                  would fake or mask a /healthz stall. Its
                  steady_clock use is blessed outright; system_clock there
                  is flagged unconditionally and clock-ok waivers do not
                  apply (DESIGN.md §14).

  bench-main      Files under bench/ must not define their own main(): the
                  shared harness (bench/bench_harness.cc) owns main() so
                  every bench binary accepts the common flags and emits a
                  BENCH_<name>.json artifact. Define the body with
                  ICROWD_BENCH("<name>") instead (see DESIGN.md §10). The
                  harness itself carries the file-level waiver:
                      // lint: bench-main-ok(<reason>)

  api-include     Files under examples/ are integrations of the stable
                  public surface (DESIGN.md §11): the only project header
                  they may include is "icrowd_api.h". A quoted include of
                  anything else reaches into src/ internals, which carry no
                  stability promise. No waiver — widen the umbrella instead.
                  The umbrella itself is checked too: src/icrowd_api.h must
                  keep exporting every header of the v2 host surface
                  (host/campaign_manager.h and friends) — dropping one
                  would silently shrink the public API.

  guarded-field   A class that directly owns a mutex (icrowd::Mutex or
                  std::mutex member) holds state that mutex exists to
                  protect: every mutable data member must carry
                  ICROWD_GUARDED_BY/ICROWD_PT_GUARDED_BY, be inherently
                  safe (const, std::atomic, or a synchronization primitive
                  itself), or carry a waiver on its line or the line above:
                      // lint: guarded-ok(<reason>)
                  This is the GCC-side fallback for Clang's -Wthread-safety
                  (DESIGN.md §13): the annotation the waiver-free path
                  forces you to write is exactly what the Clang gate checks.

  lock-order      tools/lock_order.txt ranks every named mutex in the tree,
                  outermost first. Acquiring a lock while a lower-ranked
                  (inner) one is held in the same lexical scope inverts the
                  hierarchy and is a deadlock seed; a nested acquisition of
                  a lock the file does not rank is flagged too (rank it or
                  waive it). Waiver on the inner acquisition's line or the
                  line above:
                      // lint: lock-order-ok(<reason>)
                  The rule is inert when tools/lock_order.txt is absent.

  bare-mutex      Outside src/common/, code uses the capability-annotated
                  wrappers (icrowd::Mutex, MutexLock, CondVar from
                  common/thread_annotations.h), never std::mutex,
                  std::condition_variable, std::lock_guard,
                  std::unique_lock, or std::scoped_lock directly — raw
                  primitives are invisible to Clang's capability analysis
                  and to the two rules above. Waiver:
                      // lint: bare-mutex-ok(<reason>)

  bare-socket     Outside src/obs/http/, code never opens raw sockets —
                  no <sys/socket.h>/<netinet/*>/<arpa/inet.h> includes, no
                  socket(AF_...) calls. The scrape server and its loopback
                  test client are the project's entire network surface;
                  anything else speaking TCP would dodge the bind-address
                  and request-bounding policy reviewed there (DESIGN.md
                  §15). Waiver:
                      // lint: bare-socket-ok(<reason>)

Waiver budget (the ratchet): tools/lint_waivers.txt records how many
`// lint: <rule>-ok(...)` comments of each kind the tree may carry.
--check-budget (what the lint_tree ctest runs) fails when any count grows
past its recorded line — new waivers need a conscious budget bump, while
shrinkage is reported so the budget can be lowered. --update-budget
rewrites the file with the current counts.

Exit status: 0 when clean, 1 when any violation is found, 2 on usage error.
Run directly or via `cmake --build build --target lint`.
"""

import argparse
import re
import sys
from pathlib import Path

# Directories scanned for each rule, relative to the repo root.
SOURCE_DIRS = ("src", "tests", "bench", "examples", "tools")
HOT_PATH_DIRS = ("src/assign", "src/estimation")
RNG_ALLOWED = {"src/common/random.h", "src/common/random.cc"}
CLOCK_ALLOWED_PREFIXES = ("src/obs/",)
CLOCK_ALLOWED_FILES = {"src/common/stopwatch.h"}
# The runtime-introspection stack lives under src/obs/ but is carved OUT of
# the allowlist above: it must measure with monotonic clocks only (steady
# reads are blessed; the rule only matches system_clock), and no clock-ok
# waiver can override that — a wall step would corrupt stall detection.
CLOCK_MONOTONIC_ONLY_PREFIXES = (
    "src/obs/heartbeat",
    "src/obs/flight_recorder",
    "src/obs/statusz",
)

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

RNG_PATTERN = re.compile(
    r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937(?:_64)?\b"
)
CC_INCLUDE_PATTERN = re.compile(r'#\s*include\s+"[^"]+\.(?:cc|cpp)"')
GUARD_IFNDEF_PATTERN = re.compile(r"^#\s*ifndef\s+(\w+)\s*$", re.MULTILINE)
UNORDERED_DECL_PATTERN = re.compile(
    r"\bunordered_(?:map|set)\s*<[^;{}()]*>\s+(\w+)\s*(?:;|=|\{)"
)
RANGE_FOR_PATTERN = re.compile(r"\bfor\s*\(([^;)]*?)\s*:\s*([^)]+)\)")
WAIVER_PATTERN = re.compile(r"//\s*lint:\s*unordered-ok\([^)]+\)")
CLOCK_PATTERN = re.compile(r"\bsystem_clock\b")
CLOCK_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*clock-ok\([^)]+\)")
MAIN_DEF_PATTERN = re.compile(r"^\s*int\s+main\s*\(", re.MULTILINE)
# File-scope waiver (the rule is per-file: only the harness owns a main).
BENCH_MAIN_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*bench-main-ok\([^)]*\)")
# The single project header examples/ may include.
API_UMBRELLA = "icrowd_api.h"
# Headers the umbrella must keep exporting (the v2 host surface): the
# api-include rule fails when src/icrowd_api.h stops including one.
API_REQUIRED_EXPORTS = (
    "host/campaign_handle.h",
    "host/campaign_manager.h",
    "host/host_config.h",
)
QUOTED_INCLUDE_PATTERN = re.compile(r'#\s*include\s+"([^"]+)"')
# Appends to an output container or accumulates state in place; on an
# unordered range these make the result depend on hash iteration order.
ORDER_SENSITIVE_BODY_PATTERN = re.compile(
    r"\.\s*(?:push_back|emplace_back|emplace|insert|append)\s*\(|[-+*/]="
)

# ---- locking-discipline rules (guarded-field, lock-order, bare-mutex) ----

# Directory whose files may name the raw primitives (it defines the
# wrappers everything else must use).
BARE_MUTEX_ALLOWED_PREFIX = "src/common/"
BARE_MUTEX_PATTERN = re.compile(
    r"\bstd::(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock)\b"
)
BARE_MUTEX_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*bare-mutex-ok\([^)]*\)")

# The one directory allowed to speak raw sockets: the observability scrape
# server and its loopback test client (DESIGN.md §15).
BARE_SOCKET_ALLOWED_PREFIX = "src/obs/http/"
BARE_SOCKET_PATTERN = re.compile(
    r"#\s*include\s+<(?:sys/socket\.h|netinet/[^>]+|arpa/inet\.h)>"
    r"|\bsocket\s*\(\s*AF_"
)
BARE_SOCKET_WAIVER_PATTERN = re.compile(
    r"//\s*lint:\s*bare-socket-ok\([^)]*\)"
)

# A member statement whose declared type IS a mutex marks the class as a
# lock owner (std::unique_lock<std::mutex> members do not: angle brackets
# are blanked before this runs).
MUTEX_MEMBER_PATTERN = re.compile(
    r"^\s*(?:mutable\s+)?(?:icrowd::)?(?:Mutex|std::mutex)\s+\w+\s*$"
)
# Member types that need no ICROWD_GUARDED_BY: synchronization primitives
# and atomics synchronize themselves; const members never mutate.
GUARDED_EXEMPT_TYPE_PATTERN = re.compile(
    r"\bstd::atomic\b|\b(?:icrowd::)?(?:Mutex|CondVar)\b"
    r"|\bstd::(?:mutex|condition_variable(?:_any)?)\b|\bconst\b"
)
GUARDED_ANNOTATION_PATTERN = re.compile(
    r"\bICROWD_(?:PT_)?GUARDED_BY\s*\("
)
GUARDED_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*guarded-ok\([^)]*\)")
# Statements that are never instance state.
NON_MEMBER_KEYWORD_PATTERN = re.compile(
    r"^\s*(?:public|private|protected)\s*:|"
    r"\b(?:using|typedef|friend|static|enum|template|operator|"
    r"class|struct|union)\b"
)
ICROWD_MACRO_CALL_PATTERN = re.compile(r"\bICROWD_\w+\s*(?:\([^()]*\))?")

LOCK_ORDER_FILE = "tools/lock_order.txt"
# An acquisition: a scoped-guard declaration naming the lock expression.
# The expression may contain calls one paren-level deep
# (`shards_.front()->shard_mu_`); commas (multi-lock std::scoped_lock)
# stay unmatched — bare-mutex bans scoped_lock outside src/common anyway.
ACQUISITION_PATTERN = re.compile(
    r"\b(?:MutexLock|std::lock_guard\s*<[^<>]*>|std::unique_lock\s*<[^<>]*>|"
    r"std::scoped_lock(?:\s*<[^<>]*>)?)\s+(\w+)\s*[({]\s*"
    r"((?:[^,;(){}]|\([^()]*\))+?)\s*[)}]"
)
# A qualified method definition — used to attribute unqualified lock names
# in a .cc file to their owning class.
QUALIFIED_DEF_PATTERN = re.compile(r"\b(\w+)::~?\w+\s*\(")
LOCK_ORDER_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*lock-order-ok\([^)]*\)")

LINT_WAIVERS_FILE = "tools/lint_waivers.txt"
# Any waiver comment, whatever the rule: the ratchet counts them all.
ANY_WAIVER_PATTERN = re.compile(r"//\s*lint:\s*([A-Za-z][\w-]*?)-ok\s*\(")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text, keep_strings=False):
    """Blanks out comments and (unless keep_strings) string/char literals,
    preserving line structure, so token patterns never match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    j += 1
                    break
                j += 1
            if keep_strings:
                out.append(text[i:j])
            else:
                out.append(quote + " " * (j - i - 2)
                           + (text[j - 1] if j - 1 > i else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def check_rng(rel, text, stripped):
    del text
    if rel.replace("\\", "/") in RNG_ALLOWED:
        return []
    violations = []
    for m in RNG_PATTERN.finditer(stripped):
        violations.append(
            Violation(
                rel,
                line_of(stripped, m.start()),
                "rng-source",
                f"'{m.group(0)}' outside src/common/random.*; route all "
                "randomness through icrowd::Rng to keep runs seed-"
                "reproducible",
            )
        )
    return violations


def check_cc_include(rel, text, stripped):
    del stripped
    no_comments = strip_comments_and_strings(text, keep_strings=True)
    return [
        Violation(
            rel,
            line_of(no_comments, m.start()),
            "cc-include",
            "#include of a .cc/.cpp file; include the header and link the "
            "object instead",
        )
        for m in CC_INCLUDE_PATTERN.finditer(no_comments)
    ]


def expected_guard(rel):
    p = rel.replace("\\", "/")
    if p.startswith("src/"):
        p = p[len("src/"):]
    stem = re.sub(r"\.(h|hpp)$", "", p)
    return "ICROWD_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guard(rel, text, stripped):
    if Path(rel).suffix not in (".h", ".hpp"):
        return []
    want = expected_guard(rel)
    m = GUARD_IFNDEF_PATTERN.search(stripped)
    if not m:
        return [
            Violation(rel, 1, "include-guard",
                      f"missing include guard; expected #ifndef {want}")
        ]
    got = m.group(1)
    if got != want:
        return [
            Violation(rel, line_of(stripped, m.start()), "include-guard",
                      f"guard is {got}; expected {want}")
        ]
    define = re.search(r"^#\s*define\s+(\w+)", stripped[m.end():], re.MULTILINE)
    if not define or define.group(1) != want:
        return [
            Violation(rel, line_of(stripped, m.start()), "include-guard",
                      f"#define after #ifndef must define {want}")
        ]
    del text
    return []


def check_clock_source(rel, text, stripped):
    p = rel.replace("\\", "/")
    # Monotonic-only introspection files are checked BEFORE the obs
    # allowlist: system_clock is banned there outright, waivers included.
    monotonic_only = any(
        p.startswith(pre) for pre in CLOCK_MONOTONIC_ONLY_PREFIXES)
    if not monotonic_only and (
            p in CLOCK_ALLOWED_FILES or
            any(p.startswith(pre) for pre in CLOCK_ALLOWED_PREFIXES)):
        return []
    lines = text.splitlines()
    violations = []
    for m in CLOCK_PATTERN.finditer(stripped):
        line = line_of(stripped, m.start())
        context = "\n".join(lines[max(0, line - 2):line])
        if not monotonic_only and CLOCK_WAIVER_PATTERN.search(context):
            continue
        if monotonic_only:
            message = (
                "system_clock in the monotonic-only introspection stack "
                "(heartbeat/flight-recorder/statusz); stall ages "
                "and flight timestamps must survive wall-clock steps — use "
                "steady_clock (no clock-ok waiver applies here)"
            )
        else:
            message = (
                "system_clock outside src/obs/ and src/common/stopwatch.h; "
                "wall time varies run to run — use Stopwatch/steady_clock, "
                "or add '// lint: clock-ok(<reason>)' if wall time is the "
                "point"
            )
        violations.append(Violation(rel, line, "clock-source", message))
    return violations


def check_bench_main(rel, text, stripped):
    p = rel.replace("\\", "/")
    if not p.startswith("bench/") or Path(rel).suffix not in (".cc", ".cpp"):
        return []
    if BENCH_MAIN_WAIVER_PATTERN.search(text):
        return []
    violations = []
    for m in MAIN_DEF_PATTERN.finditer(stripped):
        violations.append(
            Violation(
                rel, line_of(stripped, m.start()), "bench-main",
                "bench binary defines its own main(); use "
                'ICROWD_BENCH("<name>") so the shared harness supplies '
                "main() and the BENCH_<name>.json artifact, or add "
                "'// lint: bench-main-ok(<reason>)'",
            )
        )
    return violations


def check_api_include(rel, text, stripped):
    del stripped
    p = rel.replace("\\", "/")
    if p == "src/" + API_UMBRELLA:
        no_comments = strip_comments_and_strings(text, keep_strings=True)
        included = {m.group(1)
                    for m in QUOTED_INCLUDE_PATTERN.finditer(no_comments)}
        return [
            Violation(
                rel, 1, "api-include",
                f'umbrella no longer exports "{header}"; the v2 host '
                "surface is part of the stable public API and every "
                "export in API_REQUIRED_EXPORTS must stay included",
            )
            for header in API_REQUIRED_EXPORTS if header not in included
        ]
    if not p.startswith("examples/"):
        return []
    no_comments = strip_comments_and_strings(text, keep_strings=True)
    violations = []
    for m in QUOTED_INCLUDE_PATTERN.finditer(no_comments):
        target = m.group(1)
        if target == API_UMBRELLA:
            continue
        violations.append(
            Violation(
                rel, line_of(no_comments, m.start()), "api-include",
                f'example includes internal header "{target}"; examples '
                f'may include only "{API_UMBRELLA}" — internals carry no '
                "stability promise (widen the umbrella instead of reaching "
                "past it)",
            )
        )
    return violations


def unordered_names(stripped_texts):
    """Names declared as std::unordered_{map,set} in any given text."""
    names = set()
    for stripped in stripped_texts:
        for m in UNORDERED_DECL_PATTERN.finditer(stripped):
            names.add(m.group(1))
    return names


def loop_body_span(stripped, open_pos):
    """Span of the loop body starting after the for(...) at `open_pos`
    (position just past the closing paren): a braced block or a single
    statement up to ';'."""
    n = len(stripped)
    i = open_pos
    while i < n and stripped[i] in " \t\n":
        i += 1
    if i < n and stripped[i] == "{":
        depth = 0
        j = i
        while j < n:
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    return (i, j + 1)
            j += 1
        return (i, n)
    j = stripped.find(";", i)
    return (i, n if j == -1 else j + 1)


def check_unordered_iter(rel, text, stripped, sibling_stripped):
    p = rel.replace("\\", "/")
    if not any(p.startswith(d + "/") for d in HOT_PATH_DIRS):
        return []
    names = unordered_names([stripped] + sibling_stripped)
    lines = text.splitlines()
    violations = []
    for m in RANGE_FOR_PATTERN.finditer(stripped):
        range_expr = m.group(2).strip()
        base = re.sub(r"^[&*\s]+|\(\)$", "", range_expr)
        base_name = base.split(".")[-1].split("->")[-1].strip()
        is_unordered = "unordered" in range_expr or base_name in names
        if not is_unordered:
            continue
        end_paren = m.end()
        body_start, body_end = loop_body_span(stripped, end_paren)
        body = stripped[body_start:body_end]
        if not ORDER_SENSITIVE_BODY_PATTERN.search(body):
            continue
        line = line_of(stripped, m.start())
        context = "\n".join(lines[max(0, line - 2):line])
        if WAIVER_PATTERN.search(context):
            continue
        violations.append(
            Violation(
                rel, line, "unordered-iter",
                f"order-sensitive accumulation while iterating unordered "
                f"container '{range_expr}' in a hot path; iterate a sorted "
                "copy, or add '// lint: unordered-ok(<reason>)' if provably "
                "order-insensitive",
            )
        )
    return violations


# ---- guarded-field -------------------------------------------------------


def blank_angle_brackets(s):
    """Blanks template-argument lists (to a fixpoint, so nesting works) so
    commas/equals/parens inside them never confuse declaration parsing."""
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", lambda m: " " * len(m.group(0)), s)
    return s


def iter_class_bodies(stripped):
    """Yields (class_name, body_start, body_end) for every class/struct
    definition (nested ones included; each is analyzed on its own)."""
    for m in re.finditer(r"\b(?:class|struct)\b", stripped):
        if re.search(r"\benum\s+$", stripped[max(0, m.start() - 8):m.start()]):
            continue
        i, n = m.end(), len(stripped)
        paren_depth = 0
        while i < n:
            c = stripped[i]
            if c == "(":
                paren_depth += 1
            elif c == ")":
                paren_depth -= 1
            elif paren_depth == 0 and c in "{;":
                break
            i += 1
        if i >= n or stripped[i] == ";":
            continue  # forward declaration or pointer/param use
        head = ICROWD_MACRO_CALL_PATTERN.sub(" ", stripped[m.end():i])
        head = re.split(r"(?<!:):(?!:)", head, 1)[0]  # drop base-class list
        names = re.findall(r"[A-Za-z_]\w*", re.sub(r"\bfinal\b", "", head))
        if not names:
            continue  # anonymous struct
        depth, j = 0, i
        while j < n:
            if stripped[j] == "{":
                depth += 1
            elif stripped[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield names[-1], i + 1, j


def split_member_statements(body):
    """Splits a class body into top-level statements, yielding
    (offset, statement_text) with nested brace contents blanked (inline
    function bodies and nested classes contribute no members here)."""
    blanked = []
    depth = 0
    for c in body:
        if c == "{":
            depth += 1
            blanked.append("{")
        elif c == "}":
            depth -= 1
            blanked.append("}")
        elif depth > 0 and c != "\n":
            blanked.append(" ")
        else:
            blanked.append(c)
    blanked = "".join(blanked)
    statements = []
    start, i, n = 0, 0, len(blanked)
    paren_depth = 0
    while i < n:
        c = blanked[i]
        if c == "(":
            paren_depth += 1
        elif c == ")":
            paren_depth = max(0, paren_depth - 1)
        elif c == ";" and paren_depth == 0:
            statements.append((start, blanked[start:i]))
            start = i + 1
        elif c == "}" and paren_depth == 0:
            # End of an inline body unless a ';' follows (brace-init /
            # nested type + declarator) — then the ';' ends the statement.
            # Braces inside parentheses (`options = {}` defaults) end
            # nothing.
            j = i + 1
            while j < n and blanked[j] in " \t\n":
                j += 1
            if j >= n or blanked[j] != ";":
                statements.append((start, blanked[start:i + 1]))
                start = i + 1
        i += 1
    if blanked[start:].strip():
        statements.append((start, blanked[start:]))
    return statements


ACCESS_LABEL_PATTERN = re.compile(r"^\s*(?:public|private|protected)\s*:\s*")


def strip_access_labels(s):
    """Removes leading access-specifier labels ('private:' etc.), which
    share a statement with the declaration that follows them."""
    prev = None
    while prev != s:
        prev = s
        s = ACCESS_LABEL_PATTERN.sub("", s)
    return s


def is_function_statement(stmt):
    """A top-level class statement declares a function iff an
    identifier-adjacent '(' appears before any '='. ICROWD_* attribute
    macros are erased first so their parens never count."""
    s = ICROWD_MACRO_CALL_PATTERN.sub(" ", stmt)
    s = blank_angle_brackets(s)
    call = re.search(r"[A-Za-z_0-9]\s*\(", s)
    if not call:
        return False
    eq = s.find("=")
    return eq == -1 or call.start() < eq


def member_name_of(stmt):
    s = ICROWD_MACRO_CALL_PATTERN.sub(" ", stmt)
    s = blank_angle_brackets(s)
    s = re.split(r"[={]", s, 1)[0]
    names = re.findall(r"[A-Za-z_]\w*", s)
    return names[-1] if names else "<member>"


def has_waiver(lines, line, pattern):
    """True when `pattern` matches on 1-based `line` or the line above
    (checked against the original text, where comments survive)."""
    context = "\n".join(lines[max(0, line - 2):line])
    return bool(pattern.search(context))


def check_guarded_field(rel, text, stripped):
    lines = text.splitlines()
    violations = []
    for class_name, body_start, body_end in iter_class_bodies(stripped):
        body = stripped[body_start:body_end]
        # Access labels are a prefix of the statement they share; dropping
        # them shifts the offset forward so line numbers stay exact.
        statements = []
        for offset, raw_stmt in split_member_statements(body):
            content = strip_access_labels(raw_stmt)
            statements.append((offset + len(raw_stmt) - len(content),
                               content))
        owns_mutex = any(
            MUTEX_MEMBER_PATTERN.match(blank_angle_brackets(
                ICROWD_MACRO_CALL_PATTERN.sub(" ", stmt)).strip())
            for _, stmt in statements
        )
        if not owns_mutex:
            continue
        for offset, stmt in statements:
            s = stmt.strip()
            if not s or "{" in s:
                # Inline definitions and brace-init members: brace-init is
                # re-checked below via the '='-free declarator split.
                s = s.split("{", 1)[0].strip()
                if not s:
                    continue
            if NON_MEMBER_KEYWORD_PATTERN.search(s):
                continue
            if is_function_statement(s):
                continue
            if GUARDED_ANNOTATION_PATTERN.search(s):
                continue
            no_macros = ICROWD_MACRO_CALL_PATTERN.sub(" ", s)
            if MUTEX_MEMBER_PATTERN.match(
                    blank_angle_brackets(no_macros).strip()):
                continue
            # Checked before angle-blanking: std::atomic nested inside a
            # container's template arguments still exempts the member.
            if GUARDED_EXEMPT_TYPE_PATTERN.search(no_macros):
                continue
            line = line_of(stripped, body_start + offset
                           + len(stmt) - len(stmt.lstrip()))
            if has_waiver(lines, line, GUARDED_WAIVER_PATTERN):
                continue
            violations.append(
                Violation(
                    rel, line, "guarded-field",
                    f"'{class_name}' owns a mutex but member "
                    f"'{member_name_of(s)}' is neither ICROWD_GUARDED_BY an "
                    "owned lock nor inherently safe (const/atomic/"
                    "primitive); annotate it or add "
                    "'// lint: guarded-ok(<reason>)'",
                )
            )
    return violations


# ---- lock-order ----------------------------------------------------------


def load_lock_order(root):
    """Parses tools/lock_order.txt into an ordered list of (class, member)
    pairs, outermost lock first. Returns None when the file is absent —
    the rule is then inert."""
    path = root / LOCK_ORDER_FILE
    if not path.is_file():
        return None
    order = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        if "::" not in entry:
            continue
        owner, _, member = entry.rpartition("::")
        order.append((owner, member))
    return order


def enclosing_scope_end(stripped, pos):
    """End of the innermost brace scope containing `pos` (exclusive), or
    len(stripped) at file scope — the span in which a scoped lock
    acquired at `pos` is still held."""
    depth = 0
    i, n = pos, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            depth += 1
        elif c == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return n


def enclosing_class_of(stripped, pos, class_spans):
    for name, start, end in reversed(class_spans):
        if start <= pos < end:
            return name
    qualifier = None
    for m in QUALIFIED_DEF_PATTERN.finditer(stripped, 0, pos):
        qualifier = m.group(1)
    return qualifier


def resolve_lock_rank(lock_expr, enclosing_class, order):
    """Index of `lock_expr` in the hierarchy, or None when it cannot be
    attributed to exactly one entry. The expression's last path component
    is the member name; an ambiguous member falls back to the enclosing
    class for disambiguation."""
    member = re.split(r"->|\.|::", lock_expr)[-1].strip()
    candidates = [i for i, (_, mem) in enumerate(order) if mem == member]
    if len(candidates) == 1:
        return candidates[0]
    if enclosing_class:
        owned = [i for i in candidates if order[i][0] == enclosing_class]
        if len(owned) == 1:
            return owned[0]
    return None


def check_lock_order(rel, text, stripped, order):
    if order is None:
        return []
    lines = text.splitlines()
    class_spans = list(iter_class_bodies(stripped))
    acquisitions = [
        (m.start(), m.end(), m.group(1), m.group(2).strip())
        for m in ACQUISITION_PATTERN.finditer(stripped)
    ]
    violations = []
    reported = set()
    for a_start, a_end, a_var, a_expr in acquisitions:
        scope_end = enclosing_scope_end(stripped, a_end)
        unlock = re.compile(r"\b" + re.escape(a_var)
                            + r"\s*\.\s*[Uu]nlock\s*\(")
        for b_start, b_end, _, b_expr in acquisitions:
            if b_start <= a_start or b_start >= scope_end:
                continue
            if unlock.search(stripped, a_end, b_start):
                continue  # outer lock released before the inner acquisition
            line = line_of(stripped, b_start)
            if line in reported:
                continue
            if has_waiver(lines, line, LOCK_ORDER_WAIVER_PATTERN):
                continue
            a_class = enclosing_class_of(stripped, a_start, class_spans)
            b_class = enclosing_class_of(stripped, b_start, class_spans)
            a_rank = resolve_lock_rank(a_expr, a_class, order)
            b_rank = resolve_lock_rank(b_expr, b_class, order)
            if a_rank is None or b_rank is None:
                which = a_expr if a_rank is None else b_expr
                violations.append(
                    Violation(
                        rel, line, "lock-order",
                        f"nested acquisition involves '{which}', which "
                        f"{LOCK_ORDER_FILE} does not rank; add it to the "
                        "hierarchy or waive with "
                        "'// lint: lock-order-ok(<reason>)'",
                    )
                )
                reported.add(line)
            elif a_rank >= b_rank:
                a_name = "::".join(order[a_rank])
                b_name = "::".join(order[b_rank])
                violations.append(
                    Violation(
                        rel, line, "lock-order",
                        f"acquires '{b_name}' (level {b_rank + 1}) while "
                        f"holding '{a_name}' (level {a_rank + 1}); "
                        f"{LOCK_ORDER_FILE} orders outer locks before "
                        "inner — invert the nesting or waive with "
                        "'// lint: lock-order-ok(<reason>)'",
                    )
                )
                reported.add(line)
    return violations


# ---- bare-mutex ----------------------------------------------------------


def check_bare_mutex(rel, text, stripped):
    p = rel.replace("\\", "/")
    if p.startswith(BARE_MUTEX_ALLOWED_PREFIX):
        return []
    lines = text.splitlines()
    violations = []
    for m in BARE_MUTEX_PATTERN.finditer(stripped):
        line = line_of(stripped, m.start())
        if has_waiver(lines, line, BARE_MUTEX_WAIVER_PATTERN):
            continue
        violations.append(
            Violation(
                rel, line, "bare-mutex",
                f"'{m.group(0)}' outside src/common/; use the capability-"
                "annotated wrappers (icrowd::Mutex, MutexLock, CondVar "
                "from common/thread_annotations.h) so Clang's analysis "
                "and the locking lint can see the lock, or add "
                "'// lint: bare-mutex-ok(<reason>)'",
            )
        )
    return violations


# ---- bare-socket ---------------------------------------------------------


def check_bare_socket(rel, text, stripped):
    p = rel.replace("\\", "/")
    if p.startswith(BARE_SOCKET_ALLOWED_PREFIX):
        return []
    lines = text.splitlines()
    violations = []
    for m in BARE_SOCKET_PATTERN.finditer(stripped):
        line = line_of(stripped, m.start())
        if has_waiver(lines, line, BARE_SOCKET_WAIVER_PATTERN):
            continue
        violations.append(
            Violation(
                rel, line, "bare-socket",
                f"'{m.group(0).strip()}' outside src/obs/http/; the scrape "
                "server owns the project's entire network surface — route "
                "through obs::ObsServer/obs::HttpGet so the bind-address "
                "and request-bounding policy applies, or add "
                "'// lint: bare-socket-ok(<reason>)'",
            )
        )
    return violations


def lint_file(root, path):
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(text)
    sibling_stripped = []
    if path.suffix in (".cc", ".cpp"):
        header = path.with_suffix(".h")
        if header.exists():
            sibling_stripped.append(
                strip_comments_and_strings(
                    header.read_text(encoding="utf-8", errors="replace")
                )
            )
    violations = []
    violations += check_rng(rel, text, stripped)
    violations += check_cc_include(rel, text, stripped)
    violations += check_clock_source(rel, text, stripped)
    violations += check_include_guard(rel, text, stripped)
    violations += check_bench_main(rel, text, stripped)
    violations += check_api_include(rel, text, stripped)
    violations += check_unordered_iter(rel, text, stripped, sibling_stripped)
    violations += check_guarded_field(rel, text, stripped)
    violations += check_lock_order(rel, text, stripped, load_lock_order(root))
    violations += check_bare_mutex(rel, text, stripped)
    violations += check_bare_socket(rel, text, stripped)
    return violations


def collect_files(root):
    files = []
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


# ------------------------- waiver budget (ratchet) ------------------------


def count_waivers(files):
    """Counts every `// lint: <rule>-ok(...)` comment per rule name."""
    counts = {}
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for m in ANY_WAIVER_PATTERN.finditer(text):
            counts[m.group(1)] = counts.get(m.group(1), 0) + 1
    return counts


def load_waiver_budget(root):
    """Parses tools/lint_waivers.txt into {rule: allowed_count}, or None
    when the file is absent (then --check-budget fails on ANY waiver: the
    budget must be generated first with --update-budget)."""
    path = root / LINT_WAIVERS_FILE
    if not path.is_file():
        return None
    budget = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        entry = raw.split("#", 1)[0].strip()
        if not entry:
            continue
        parts = entry.split()
        if len(parts) != 2 or not parts[1].isdigit():
            print(f"{LINT_WAIVERS_FILE}: malformed line ignored: {raw!r}",
                  file=sys.stderr)
            continue
        budget[parts[0]] = int(parts[1])
    return budget


def format_waiver_budget(counts):
    lines = [
        "# iCrowd lint waiver budget — the ratchet for",
        "# `// lint: <rule>-ok(<reason>)` comments (DESIGN.md §13).",
        "#",
        "# `icrowd_lint.py --check-budget` (run by the lint_tree ctest)",
        "# fails when the tree carries MORE waivers of a kind than its line",
        "# here allows: every new waiver needs a conscious bump of this",
        "# file in the same change. When waivers are removed, regenerate",
        "# with `icrowd_lint.py --update-budget` so the ratchet tightens.",
    ]
    for rule in sorted(counts):
        if counts[rule] > 0:
            lines.append(f"{rule} {counts[rule]}")
    return "\n".join(lines) + "\n"


def check_waiver_budget(root, files):
    """Returns (errors, notes): budget overruns vs. shrinkage reports."""
    counts = count_waivers(files)
    budget = load_waiver_budget(root)
    if budget is None:
        if not counts:
            return [], []
        return [
            f"{LINT_WAIVERS_FILE} is missing but the tree carries "
            f"{sum(counts.values())} waiver(s); generate it with "
            "--update-budget"
        ], []
    errors, notes = [], []
    for rule in sorted(set(counts) | set(budget)):
        have = counts.get(rule, 0)
        allowed = budget.get(rule, 0)
        if have > allowed:
            errors.append(
                f"waiver budget exceeded: {have} '// lint: {rule}-ok(...)' "
                f"waiver(s) in the tree, budget allows {allowed} "
                f"({LINT_WAIVERS_FILE}); remove one or consciously raise "
                "the budget with --update-budget"
            )
        elif have < allowed:
            notes.append(
                f"waiver budget slack: {rule} uses {have} of {allowed} — "
                "tighten the ratchet with --update-budget"
            )
    return errors, notes


# --------------------------- self test ------------------------------------

SELF_TEST_CASES = [
    # (name, rel_path, source, sibling_header_source_or_None, expected_rules)
    (
        "rand outside common/random",
        "src/sim/bad.cc",
        "int f() { return std::rand(); }\n",
        None,
        {"rng-source"},
    ),
    (
        "raw mt19937 construction",
        "src/assign/bad.cc",
        "#include <random>\nstd::mt19937 g(42);\n",
        None,
        {"rng-source"},
    ),
    (
        "random_device",
        "tests/bad_test.cc",
        "std::random_device rd;\n",
        None,
        {"rng-source"},
    ),
    (
        "rng mention in comment is fine",
        "src/sim/ok.cc",
        "// std::rand is banned here\nint f() { return 1; }\n",
        None,
        set(),
    ),
    (
        "mt19937 allowed in common/random.h",
        "src/common/random.h",
        "#ifndef ICROWD_COMMON_RANDOM_H_\n#define ICROWD_COMMON_RANDOM_H_\n"
        "#include <random>\nnamespace icrowd { using E = std::mt19937_64; }\n"
        "#endif  // ICROWD_COMMON_RANDOM_H_\n",
        None,
        set(),
    ),
    (
        "cc include",
        "src/core/bad.cc",
        '#include "assign/assigner.cc"\n',
        None,
        {"cc-include"},
    ),
    (
        "wrong include guard",
        "src/agg/thing.h",
        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n",
        None,
        {"include-guard"},
    ),
    (
        "correct include guard",
        "src/agg/thing.h",
        "#ifndef ICROWD_AGG_THING_H_\n#define ICROWD_AGG_THING_H_\n"
        "#endif  // ICROWD_AGG_THING_H_\n",
        None,
        set(),
    ),
    (
        "system_clock outside obs",
        "src/sim/bad_clock.cc",
        "#include <chrono>\nauto now() {\n"
        "  return std::chrono::system_clock::now();\n}\n",
        None,
        {"clock-source"},
    ),
    (
        "system_clock with waiver",
        "src/sim/ok_clock.cc",
        "#include <chrono>\nauto now() {\n"
        "  // lint: clock-ok(report header stamps the run's wall time)\n"
        "  return std::chrono::system_clock::now();\n}\n",
        None,
        set(),
    ),
    (
        "system_clock allowed in obs",
        "src/obs/clock_user.cc",
        "#include <chrono>\n"
        "auto now() { return std::chrono::system_clock::now(); }\n",
        None,
        set(),
    ),
    (
        "system_clock in heartbeat flagged despite obs and waiver",
        "src/obs/heartbeat.cc",
        "#include <chrono>\nauto now() {\n"
        "  // lint: clock-ok(waivers must not apply here)\n"
        "  return std::chrono::system_clock::now();\n}\n",
        None,
        {"clock-source"},
    ),
    (
        "heartbeat steady clock is blessed",
        "src/obs/heartbeat.cc",
        "#include <chrono>\n"
        "auto now() { return std::chrono::steady_clock::now(); }\n",
        None,
        set(),
    ),
    (
        "system_clock allowed in stopwatch header",
        "src/common/stopwatch.h",
        "#ifndef ICROWD_COMMON_STOPWATCH_H_\n"
        "#define ICROWD_COMMON_STOPWATCH_H_\n#include <chrono>\n"
        "using WallClock = std::chrono::system_clock;\n"
        "#endif  // ICROWD_COMMON_STOPWATCH_H_\n",
        None,
        set(),
    ),
    (
        "system_clock mention in comment is fine",
        "src/core/ok_clock2.cc",
        "// system_clock is banned outside obs\nint f() { return 1; }\n",
        None,
        set(),
    ),
    (
        "steady_clock is fine anywhere",
        "src/common/thread_pool_x.cc",
        "#include <chrono>\n"
        "auto now() { return std::chrono::steady_clock::now(); }\n",
        None,
        set(),
    ),
    (
        "unordered iteration appending in hot path",
        "src/assign/bad2.cc",
        "#include <unordered_set>\nvoid f() {\n"
        "  std::unordered_set<int> used;\n"
        "  std::vector<int> out;\n"
        "  for (int w : used) {\n    out.push_back(w);\n  }\n}\n",
        None,
        {"unordered-iter"},
    ),
    (
        "unordered float accumulation in hot path",
        "src/estimation/bad3.cc",
        "#include <unordered_map>\nvoid f() {\n"
        "  std::unordered_map<int, double> q;\n  double sum = 0.0;\n"
        "  for (const auto& [k, v] : q) sum += v;\n}\n",
        None,
        {"unordered-iter"},
    ),
    (
        "unordered accumulation with waiver",
        "src/estimation/ok3.cc",
        "#include <unordered_map>\nvoid f() {\n"
        "  std::unordered_map<int, double> q;\n  double sum = 0.0;\n"
        "  // lint: unordered-ok(sum of doubles verified tolerance-tested)\n"
        "  for (const auto& [k, v] : q) sum += v;\n}\n",
        None,
        set(),
    ),
    (
        "unordered member declared in sibling header",
        "src/assign/bad4.cc",
        "void C::f() {\n  for (int w : dirty_) {\n    out_.push_back(w);\n  }\n}\n",
        "sibling",
        {"unordered-iter"},
    ),
    (
        "unordered read-only loop is fine",
        "src/assign/ok4.cc",
        "#include <unordered_set>\nvoid f() {\n"
        "  std::unordered_set<int> used;\n  for (int w : used) Refresh(w);\n}\n",
        None,
        set(),
    ),
    (
        "vector loop appending is fine",
        "src/assign/ok5.cc",
        "#include <vector>\nvoid f() {\n  std::vector<int> v;\n"
        "  std::vector<int> out;\n  for (int w : v) out.push_back(w);\n}\n",
        None,
        set(),
    ),
    (
        "unordered accumulation outside hot paths is fine",
        "src/agg/ok6.cc",
        "#include <unordered_map>\nvoid f() {\n"
        "  std::unordered_map<int, int> votes;\n  int total = 0;\n"
        "  for (const auto& [k, v] : votes) total += v;\n}\n",
        None,
        set(),
    ),
    (
        "bench binary with its own main",
        "bench/bad_bench.cc",
        "int main() { return 0; }\n",
        None,
        {"bench-main"},
    ),
    (
        "bench binary with argc/argv main",
        "bench/bad_bench2.cc",
        "#include <benchmark/benchmark.h>\n"
        "int main(int argc, char** argv) {\n"
        "  benchmark::Initialize(&argc, argv);\n  return 0;\n}\n",
        None,
        {"bench-main"},
    ),
    (
        "bench main with file-level waiver",
        "bench/harness_like.cc",
        "// lint: bench-main-ok(shared harness entry point)\n"
        "int main(int argc, char** argv) { return 0; }\n",
        None,
        set(),
    ),
    (
        "bench main with empty-reason waiver",
        "bench/harness_like2.cc",
        "// lint: bench-main-ok()\nint main() { return 0; }\n",
        None,
        set(),
    ),
    (
        "ICROWD_BENCH body is fine",
        "bench/good_bench.cc",
        '#include "bench_harness.h"\n'
        'ICROWD_BENCH("good_bench") { ctx.ReportMetric("m", 1.0); }\n',
        None,
        set(),
    ),
    (
        "main mention in bench comment is fine",
        "bench/ok_comment.cc",
        "// the harness owns int main(...)\n"
        '#include "bench_harness.h"\n'
        'ICROWD_BENCH("ok_comment") {}\n',
        None,
        set(),
    ),
    (
        "main outside bench/ is fine",
        "examples/demo.cc",
        "int main() { return 0; }\n",
        None,
        set(),
    ),
    (
        "example reaching into internals",
        "examples/bad_example.cpp",
        '#include "core/icrowd.h"\nint main() { return 0; }\n',
        None,
        {"api-include"},
    ),
    (
        "example using the umbrella and system headers",
        "examples/good_example.cpp",
        '#include <cstdio>\n#include "icrowd_api.h"\n'
        "int main() { return 0; }\n",
        None,
        set(),
    ),
    (
        "internal include mentioned in example comment is fine",
        "examples/ok_comment.cpp",
        '// do NOT #include "core/icrowd.h" here\n'
        '#include "icrowd_api.h"\nint main() { return 0; }\n',
        None,
        set(),
    ),
    (
        "src files may include internals freely",
        "src/core/uses_internals.cc",
        '#include "assign/assigner.h"\n',
        None,
        set(),
    ),
    (
        "umbrella exporting the full host surface",
        "src/icrowd_api.h",
        "#ifndef ICROWD_ICROWD_API_H_\n#define ICROWD_ICROWD_API_H_\n"
        '#include "host/campaign_handle.h"\n'
        '#include "host/campaign_manager.h"\n'
        '#include "host/host_config.h"\n'
        '#include "core/icrowd.h"\n'
        "#endif  // ICROWD_ICROWD_API_H_\n",
        None,
        set(),
    ),
    (
        "umbrella dropping a host export",
        "src/icrowd_api.h",
        "#ifndef ICROWD_ICROWD_API_H_\n#define ICROWD_ICROWD_API_H_\n"
        '#include "host/campaign_handle.h"\n'
        '#include "host/host_config.h"\n'
        '#include "core/icrowd.h"\n'
        "#endif  // ICROWD_ICROWD_API_H_\n",
        None,
        {"api-include"},
    ),
    # ---- guarded-field ----
    (
        "mutex owner with unannotated member",
        "src/sim/bad_guard.cc",
        "class Sampler {\n public:\n  void Step();\n private:\n"
        "  Mutex mu_;\n  int steps_ = 0;\n};\n",
        None,
        {"guarded-field"},
    ),
    (
        "std::mutex owner flags too (and is itself exempt)",
        "src/common/own_raw.cc",
        "class Box {\n  std::mutex mu_;\n  int value_;\n};\n",
        None,
        {"guarded-field"},
    ),
    (
        "annotated, const, and atomic members are fine",
        "src/sim/ok_guard.cc",
        "#include <atomic>\nclass Sampler {\n private:\n"
        "  mutable icrowd::Mutex mu_;\n  CondVar changed_;\n"
        "  int steps_ ICROWD_GUARDED_BY(mu_) = 0;\n"
        "  std::vector<int>* history_ ICROWD_PT_GUARDED_BY(mu_);\n"
        "  std::atomic<int> hits_{0};\n  const size_t cap_ = 4;\n"
        "  Widget* const owner_;\n};\n",
        None,
        set(),
    ),
    (
        "unguarded member with waiver",
        "src/sim/waived_guard.cc",
        "#include <thread>\nclass Pump {\n  Mutex mu_;\n"
        "  bool on_ ICROWD_GUARDED_BY(mu_) = false;\n"
        "  // lint: guarded-ok(set in ctor, joined in dtor)\n"
        "  std::thread worker_;\n};\n",
        None,
        set(),
    ),
    (
        "class without a mutex is out of scope",
        "src/sim/no_mutex.cc",
        "class Plain {\n  int x_ = 0;\n  std::vector<int> ys_;\n};\n",
        None,
        set(),
    ),
    (
        "inline methods and brace-init do not confuse member parsing",
        "src/sim/ok_guard2.cc",
        "class Gate {\n public:\n  int Count() const {\n"
        "    MutexLock lock(mu_);\n    return count_;\n  }\n"
        "  Gate& operator=(const Gate&) = delete;\n private:\n"
        "  mutable Mutex mu_;\n  int count_ ICROWD_GUARDED_BY(mu_){0};\n};\n",
        None,
        set(),
    ),
    # ---- lock-order (hierarchy file provided via extra files) ----
    (
        "nested acquisition in declared order",
        "src/sim/ok_order.cc",
        "void Pool::Drain() {\n  MutexLock lock(pool_mu_);\n"
        "  MutexLock inner(queue_mu_);\n}\n",
        None,
        set(),
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "inverted nested acquisition",
        "src/sim/bad_order.cc",
        "void Queue::Drain() {\n  MutexLock lock(queue_mu_);\n"
        "  MutexLock inner(pool_mu_);\n}\n",
        None,
        {"lock-order"},
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "inverted nesting with waiver",
        "src/sim/waived_order.cc",
        "void Queue::Drain() {\n  MutexLock lock(queue_mu_);\n"
        "  // lint: lock-order-ok(pool lock is a leaf here; see §13)\n"
        "  MutexLock inner(pool_mu_);\n}\n",
        None,
        set(),
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "nested acquisition of an unranked lock",
        "src/sim/unranked.cc",
        "void Pool::Drain() {\n  MutexLock lock(pool_mu_);\n"
        "  MutexLock inner(mystery_mu_);\n}\n",
        None,
        {"lock-order"},
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "rule is inert without tools/lock_order.txt",
        "src/sim/no_hierarchy.cc",
        "void Queue::Drain() {\n  MutexLock lock(queue_mu_);\n"
        "  MutexLock inner(pool_mu_);\n}\n",
        None,
        set(),
    ),
    (
        "sequential sibling scopes are not nested",
        "src/sim/sequential.cc",
        "void Queue::Cycle() {\n  {\n    MutexLock lock(queue_mu_);\n  }\n"
        "  {\n    MutexLock lock(pool_mu_);\n  }\n}\n",
        None,
        set(),
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "explicit Unlock before the second acquisition",
        "src/sim/unlock_first.cc",
        "void Queue::Hand() {\n  MutexLock lock(queue_mu_);\n"
        "  lock.Unlock();\n  MutexLock next(pool_mu_);\n}\n",
        None,
        set(),
        {LOCK_ORDER_FILE: "Pool::pool_mu_\nQueue::queue_mu_\n"},
    ),
    (
        "ambiguous member resolved by enclosing class",
        "src/sim/ambiguous.cc",
        "void Pool::Drain() {\n  MutexLock lock(mu_);\n"
        "  MutexLock inner(queue_mu_);\n}\n",
        None,
        {"lock-order"},
        # Pool::mu_ ranks BELOW queue_mu_, so Pool code must not nest them
        # this way; 'mu_' alone is ambiguous until the Pool:: scope picks
        # the second entry.
        {LOCK_ORDER_FILE: "Queue::queue_mu_\nPool::mu_\nWorker::mu_\n"},
    ),
    # ---- bare-mutex ----
    (
        "std::mutex outside src/common",
        "src/ingest/raw_lock.cc",
        "#include <mutex>\nstd::mutex g_mu;\n"
        "void f() {\n  std::lock_guard<std::mutex> lock(g_mu);\n}\n",
        None,
        {"bare-mutex"},
    ),
    (
        "raw primitives allowed inside src/common",
        "src/common/wrappers.cc",
        "#include <mutex>\nstd::mutex g_mu;\n"
        "void f() {\n  std::unique_lock<std::mutex> lock(g_mu);\n}\n",
        None,
        set(),
    ),
    (
        "bare mutex with waiver",
        "src/ingest/waived_raw.cc",
        "#include <condition_variable>\n"
        "// lint: bare-mutex-ok(interop with external C API needs raw mutex)\n"
        "std::condition_variable g_cv;\n",
        None,
        set(),
    ),
    (
        "wrapper types outside src/common are the point",
        "src/ingest/wrapped.cc",
        "void f(icrowd::Mutex& mu) {\n  icrowd::MutexLock lock(mu);\n}\n",
        None,
        set(),
    ),
    (
        "bare mutex in a comment is fine",
        "src/ingest/commented.cc",
        "// std::mutex is banned here; use icrowd::Mutex\nint x;\n",
        None,
        set(),
    ),
    # ---- bare-socket ----
    (
        "raw socket call outside src/obs/http",
        "src/ingest/raw_socket.cc",
        "#include <sys/socket.h>\n"
        "int f() {\n  return socket(AF_INET, SOCK_STREAM, 0);\n}\n",
        None,
        # One violation per match: the include and the socket() call.
        {"bare-socket"},
    ),
    (
        "network headers alone are flagged",
        "src/sim/peeks_at_net.cc",
        "#include <netinet/in.h>\n#include <arpa/inet.h>\nint x;\n",
        None,
        {"bare-socket"},
    ),
    (
        "raw sockets allowed inside src/obs/http",
        "src/obs/http/server_impl.cc",
        "#include <sys/socket.h>\n"
        "int f() {\n  return socket(AF_INET, SOCK_STREAM, 0);\n}\n",
        None,
        set(),
    ),
    (
        "bare socket with waiver",
        "src/ingest/waived_socket.cc",
        "// lint: bare-socket-ok(unix-domain IPC, not a network listener)\n"
        "#include <sys/socket.h>\nint x;\n",
        None,
        set(),
    ),
    (
        "socket in a comment is fine",
        "src/ingest/socket_comment.cc",
        "// socket(AF_INET, ...) is banned here; scrape via obs::HttpGet\n"
        "int x;\n",
        None,
        set(),
    ),
]

SIBLING_HEADER = (
    "#include <unordered_set>\n"
    "class C { std::unordered_set<int> dirty_; std::vector<int> out_; };\n"
)


def run_budget_self_test():
    """Exercises the waiver-ratchet machinery against throwaway trees."""
    import tempfile

    waived = ("#include <chrono>\n"
              "// lint: clock-ok(wall time is the point here)\n"
              "auto t = std::chrono::system_clock::now();\n")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        src = root / "src" / "sim"
        src.mkdir(parents=True)
        (root / "tools").mkdir()
        (src / "a.cc").write_text(waived, encoding="utf-8")
        (src / "b.cc").write_text(waived, encoding="utf-8")
        files = collect_files(root)

        counts = count_waivers(files)
        if counts != {"clock": 2}:
            failures.append(f"count_waivers: expected clock=2, got {counts}")

        # No budget file yet: any waiver is an error until one is written.
        errors, _ = check_waiver_budget(root, files)
        if not errors:
            failures.append("missing budget file with waivers: no error")

        # Budget matching the tree: clean, no notes.
        budget_path = root / LINT_WAIVERS_FILE
        budget_path.write_text(format_waiver_budget(counts),
                               encoding="utf-8")
        errors, notes = check_waiver_budget(root, files)
        if errors or notes:
            failures.append(
                f"budget at par: expected clean, got {errors} / {notes}")

        # Growth past the budget is the failure the ratchet exists for.
        (src / "c.cc").write_text(waived, encoding="utf-8")
        errors, _ = check_waiver_budget(root, collect_files(root))
        if not any("exceeded" in e for e in errors):
            failures.append(f"budget overrun: expected error, got {errors}")

        # Shrinkage only produces a tighten-the-ratchet note.
        (src / "b.cc").unlink()
        (src / "c.cc").unlink()
        errors, notes = check_waiver_budget(root, collect_files(root))
        if errors or not any("slack" in n for n in notes):
            failures.append(
                f"budget slack: expected a note, got {errors} / {notes}")

        # A waiver kind with no budget line counts against a budget of 0.
        (src / "a.cc").write_text(
            "// lint: bench-main-ok(synthetic)\nint main() { return 0; }\n",
            encoding="utf-8")
        errors, _ = check_waiver_budget(root, collect_files(root))
        if not any("bench-main" in e for e in errors):
            failures.append(
                f"unbudgeted waiver kind: expected error, got {errors}")

        # --update-budget round-trips to the current counts.
        budget_path.write_text(
            format_waiver_budget(count_waivers(collect_files(root))),
            encoding="utf-8")
        errors, notes = check_waiver_budget(root, collect_files(root))
        if errors or notes:
            failures.append(
                f"regenerated budget: expected clean, got {errors}/{notes}")
    for f in failures:
        print(f"SELF-TEST FAIL: budget: {f}")
    return len(failures)


def run_self_test():
    import tempfile

    failures = 0
    for case in SELF_TEST_CASES:
        name, rel, source, sibling, expected = case[:5]
        extra_files = case[5] if len(case) > 5 else {}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
            if sibling is not None:
                path.with_suffix(".h").write_text(SIBLING_HEADER,
                                                 encoding="utf-8")
            for extra_rel, extra_source in extra_files.items():
                extra_path = root / extra_rel
                extra_path.parent.mkdir(parents=True, exist_ok=True)
                extra_path.write_text(extra_source, encoding="utf-8")
            got = {v.rule for v in lint_file(root, path)}
            # Synthetic fixtures only need guards checked when the case is
            # about guards.
            if "include-guard" not in expected and rel.endswith(".cc"):
                got.discard("include-guard")
            if got != expected:
                print(f"SELF-TEST FAIL: {name}: expected {sorted(expected)}, "
                      f"got {sorted(got)}")
                failures += 1
    failures += run_budget_self_test()
    if failures:
        print(f"{failures} self-test case(s) failed")
        return 1
    print(f"icrowd_lint self-test: {len(SELF_TEST_CASES)} cases "
          "+ budget ratchet OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own unit tests and exit")
    parser.add_argument("--check-budget", action="store_true",
                        help="also fail when waiver counts exceed "
                             + LINT_WAIVERS_FILE)
    parser.add_argument("--update-budget", action="store_true",
                        help="rewrite " + LINT_WAIVERS_FILE
                             + " with the tree's current waiver counts")
    parser.add_argument("files", nargs="*", type=Path,
                        help="restrict to these files (default: whole tree)")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    root = args.root.resolve()
    if not root.is_dir():
        print(f"icrowd_lint: no such root: {root}", file=sys.stderr)
        return 2

    if args.update_budget:
        counts = count_waivers(collect_files(root))
        (root / LINT_WAIVERS_FILE).write_text(format_waiver_budget(counts),
                                              encoding="utf-8")
        total = sum(counts.values())
        print(f"icrowd_lint: wrote {LINT_WAIVERS_FILE} "
              f"({total} waiver(s) across {len(counts)} rule(s))")
        return 0

    files = [f.resolve() for f in args.files] if args.files \
        else collect_files(root)
    violations = []
    for path in files:
        violations.extend(lint_file(root, path))
    for v in violations:
        print(v)
    budget_errors = []
    if args.check_budget:
        # The ratchet always counts the whole tree: a partial file list
        # would undercount and let a budget overrun slip through.
        budget_errors, notes = check_waiver_budget(root, collect_files(root))
        for line in budget_errors:
            print(f"icrowd_lint: {line}")
        for line in notes:
            print(f"icrowd_lint: note: {line}")
    if violations or budget_errors:
        if violations:
            print(f"icrowd_lint: {len(violations)} violation(s) in "
                  f"{len({v.path for v in violations})} file(s)")
        return 1
    print(f"icrowd_lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
