#!/usr/bin/env python3
"""AST-level coroutine-safety and sim-determinism analyzer for the NASD tree.

Every serious bug this repo has hit (the Semaphore::await_suspend
mid-suspend resume, the GCC coroutine prvalue double-destroy, the
refreshCaps UAF under suspended readers) was a coroutine-lifetime defect
that line-regexes cannot see. This tool parses the sources into a small
structural model — functions, parameters, lambdas with capture lists,
suspension points — and runs these checks over it:

  A1 coro-ref-escape     Reference/pointer parameters and lambda
                         captures of a *detached* coroutine (one whose
                         Task is handed to Simulator::spawn, a schedule*
                         callback, or net::callWithDeadline) that are
                         used after a co_await suspension point. A
                         detached frame outlives its caller's scope, so
                         such references dangle — the PR-1/PR-3 UAF
                         class. Captures of a spawned coroutine lambda
                         are flagged outright: they live in the closure
                         temporary, which dies at the end of the spawn
                         expression (pass state as parameters instead).
  A2 discarded-task      A Task/awaitable-returning call whose result is
                         discarded: bare statement calls, (void)/static
                         _cast<void> casts, ternary statements — the
                         shapes [[nodiscard]] misses. A discarded lazy
                         Task silently never runs.
  A3 nondeterminism      Wall-clock and OS-entropy sources inside src/
                         (std::chrono::{system,steady,high_resolution}
                         _clock, rand/srand/random_device, std random
                         engines), iteration over pointer-keyed
                         unordered containers, pointer-keyed ordered
                         containers, and reinterpret_cast<uintptr_t>
                         pointer ordinals. All of these make event
                         timing or ordering depend on ASLR or the host
                         clock, breaking the bit-determinism every
                         benchmark baseline and seeded fault test
                         depends on. Use sim.now() and util::Rng.
  A4 raw-acquire         Raw Semaphore .acquire()/->acquire() and
                         manual .release() on a Semaphore-typed
                         receiver outside src/sim/. Queue waits must go
                         through sim::timedAcquire (attribution), and
                         releases through sim::ScopedPermit so early
                         returns and exceptions cannot leak permits.
                         Token-level, so comments and strings never
                         match and ->acquire() chains are seen.
  A5 missing-deadline    net::call<...> (the reliable transport) in a
                         file whose RPCs ride the unreliable data path
                         (src/nasd/client.cc, or any file marked with
                         `// nasd-analyze: unreliable-path`). A dropped
                         message would hang the caller forever; use
                         net::callWithDeadline.
  A6 raw-event-access    Direct manipulation of the simulator's event
                         queue outside src/sim/: touching the `events_`
                         / `wheel_` members, naming the pool-recycled
                         sim::EventNode type (a retained node pointer
                         dangles the moment the event fires), or
                         forging a sim::TimerHandle from explicit
                         index/generation values. Schedule through
                         Simulator::schedule*/scheduleCancelable and
                         cancel only with the returned handle — the
                         handle API is the only sanctioned way to
                         cancel.
  A7 silent-injection    A FaultPlan injection site (a `faults_*`
                         counter bump) or a Cheops version-fence
                         mutation (`++map_version`) in a function that
                         records no flight-recorder event. Every
                         control-plane transition must be journaled
                         (util/flight_recorder.h) or it is invisible
                         to tools/flight_report.py post-mortems.
                         Opt out with `// nasd-analyze:
                         no-flight-journal`.
  A9 naked-value         `x.value()` (or `x[i].value()`) with no
                         `x.ok()` / `x.has_value()` / `if (x)` /
                         `NASD_ASSERT(x)`-style guard earlier in the
                         enclosing function. Result::value() panics on
                         an error, so an unguarded call is a latent
                         crash or a dropped status. Names declared as
                         `Counter &` / `Gauge &` (registry instruments)
                         are exempt.
  A10 schedule-ref-capture
                         A lambda handed to schedule / scheduleIn /
                         scheduleCancelable / scheduleCancelableIn that
                         captures by reference ([&] or [&x]). The
                         callback runs when the event fires, after the
                         scheduling scope is gone; capture by value.
  A11 include-guard      A header whose first tokens are not an
                         `#ifndef X` / `#define X` pair or
                         `#pragma once`.
  A12 loose-counter      A `util::Counter` held by value outside
                         src/util/. Modules register counters in the
                         MetricsRegistry and hold `util::Counter &`, so
                         every counter appears in BENCH_*.json dumps.
  A13 raw-stderr         `fprintf(stderr, ...)` outside
                         src/util/logging.cc; diagnostics go through
                         NASD_LOG so NASD_LOG_LEVEL filtering applies.
  A15 table-ref-across-await
                         A pointer, reference or iterator that a
                         coroutine takes from a member associative
                         container (`objects_.find(id)`, `&table_[k]`,
                         `auto &x = table_.at(k)`) or from a member
                         finder returning a pointer into one
                         (`Obj *find(Id)`), then uses after a later
                         co_await, directly or around a loop, without
                         taking it again. Another handler may erase the
                         entry while this one is suspended; look the
                         entry up by key after every suspension.

A8 (reservoir-latency) is retired with the sample-histogram instrument
kind it guarded; its ID is not reused.

The default run covers src/ with every check, and bench/ and
examples/ with the hygiene checks A9-A12 only: bench drivers and
examples read the host clock and run coroutines from main(), which
A1-A7 and A13 are not written for.

Backends:
  * builtin (default)  — a self-contained C++ lexer + structural parser,
    deterministic everywhere, no dependencies. This is the backend CI
    gates on.
  * libclang           — clang.cindex over compile_commands.json for
    compiler-exact function/parameter/type boundaries; body analysis is
    shared with the builtin backend. Select with --backend libclang;
    if the bindings are absent the tool exits with an install hint
    (`pip install libclang` or `apt install python3-clang`).

Suppressions live in tools/analyze_baseline.json. Each entry must carry
a non-empty justification; findings match entries by a stable key
`CHECK:file:symbol` (never line numbers), printed with every finding.

File pragmas (ordinary comments, read before tokenizing):
  // nasd-analyze: sim-internal      exempt this file from A4 (the sim
                                     layer implements the primitives)
  // nasd-analyze: unreliable-path   subject this file to A5

Usage:
  tools/nasd_analyze.py [--root DIR] [--build-dir DIR] [files...]
  tools/nasd_analyze.py --format json --no-baseline tests/analyze_fixtures/a1_bad.cc

Exit status: 0 clean, 1 unsuppressed findings, 2 tool error.
"""

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<line_comment>//[^\n]*)
    | (?P<raw_string>R"(?P<delim>[^()\s\\]{0,16})\((?s:.*?)\)(?P=delim)")
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<number>\.?\d(?:[\w.']|[eEpP][+-])*)
    | (?P<ident>[A-Za-z_]\w*)
    | (?P<punct>::|->|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|.)
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int


def tokenize(text):
    """Lex C++ source into significant tokens (comments/ws stripped)."""
    tokens = []
    line = 1
    pos = 0
    end = len(text)
    while pos < end:
        m = TOKEN_RE.match(text, pos)
        if m is None:  # stray byte; skip it
            if text[pos] == "\n":
                line += 1
            pos += 1
            continue
        kind = m.lastgroup
        if kind == "delim":
            kind = "raw_string"
        s = m.group(0)
        if kind not in ("ws", "block_comment", "line_comment"):
            tokens.append(
                Token("string" if kind == "raw_string" else kind, s, line)
            )
        line += s.count("\n")
        pos = m.end()
    return tokens


# --------------------------------------------------------------------------
# Structural model
# --------------------------------------------------------------------------

OPEN_FOR = {"(": ")", "[": "]", "{": "}"}
CLOSE_FOR = {v: k for k, v in OPEN_FOR.items()}

# Keywords that precede '(' without being a callable/definition name.
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "co_await", "co_return", "co_yield", "new",
    "delete", "throw", "case", "static_assert", "noexcept", "requires",
    "alignas", "default", "else", "do", "goto", "using", "typedef",
    "operator", "assert", "defined",
}

TYPE_KEYWORDS = {
    "const", "volatile", "struct", "class", "enum", "unsigned", "signed",
    "long", "short", "int", "char", "bool", "float", "double", "auto",
    "void", "typename", "constexpr", "mutable", "register", "inline",
}


def match_forward(tokens, i, open_t, close_t):
    """Index of the token closing tokens[i] (an `open_t`), or None."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def match_backward(tokens, i):
    """Index of the token opening the close-bracket at tokens[i]."""
    close = tokens[i].text
    open_t = CLOSE_FOR[close]
    depth = 0
    while i >= 0:
        t = tokens[i].text
        if t == close:
            depth += 1
        elif t == open_t:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return None


def match_angle(tokens, i):
    """Close index of a template argument list opening at tokens[i] ('<').

    Heuristic: tracks <>, treats '>>' as two closes, bails on tokens that
    cannot appear in a type ('{', ';'). Returns None if unmatched.
    """
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i
        elif t in ("{", ";", "&&", "||"):
            return None
        elif t == "(":
            j = match_forward(tokens, i, "(", ")")
            if j is None:
                return None
            i = j
        i += 1
    return None


@dataclass
class Param:
    name: str
    type_text: str
    is_ref: bool
    is_ptr: bool
    line: int


@dataclass
class Region:
    """A function definition or lambda body in the token stream."""

    kind: str  # "function" | "lambda"
    name: str  # function name, or enclosing function's name for lambdas
    line: int
    start: int  # token index of the region (name / '[')
    body_open: int  # '{' token index
    body_close: int  # '}' token index
    params: list = field(default_factory=list)
    # lambda-only:
    capture_default: str = ""  # "", "&", or "="
    ref_captures: list = field(default_factory=list)  # names captured by &
    value_captures: list = field(default_factory=list)
    # filled by the ownership pass:
    own: list = field(default_factory=list)  # token indices owned (no nested)
    is_coroutine: bool = False
    suspends: list = field(default_factory=list)  # own indices of co_await/yield
    escape: str = ""  # lambda-only: "", "spawn", "schedule", "deadline"


@dataclass
class FileModel:
    rel: str
    tokens: list
    regions: list
    pragmas: set


PRAGMA_RE = re.compile(r"//\s*nasd-analyze:\s*([\w-]+)")


def is_lambda_start(tokens, i):
    if i + 1 < len(tokens) and tokens[i + 1].text == "[":
        return False  # [[attribute]]
    if i == 0:
        return True
    prev = tokens[i - 1]
    if prev.kind in ("ident", "number", "string", "char"):
        return False
    if prev.text in (")", "]", "}", "["):
        return False
    return True


def parse_captures(tokens, lo, hi, region):
    """Parse a lambda capture list between '[' (lo) and ']' (hi)."""
    items, depth, cur = [], 0, []
    for i in range(lo + 1, hi):
        t = tokens[i]
        if t.text in OPEN_FOR or t.text == "<":
            depth += 1
        elif t.text in CLOSE_FOR or t.text == ">":
            depth -= 1
        if t.text == "," and depth == 0:
            items.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        items.append(cur)
    for item in items:
        texts = [t.text for t in item]
        if not texts:
            continue
        if texts == ["&"]:
            region.capture_default = "&"
        elif texts == ["="]:
            region.capture_default = "="
        elif texts[0] == "&" and len(texts) >= 2 and item[1].kind == "ident":
            region.ref_captures.append(texts[1])
        elif texts[0] == "this":
            region.ref_captures.append("this")
        elif item[0].kind == "ident":
            region.value_captures.append(texts[0])


LAMBDA_SPECIFIERS = {
    "mutable", "noexcept", "constexpr", "consteval", "static", "const",
}


def try_parse_lambda(tokens, i):
    """Parse a lambda starting at '[' (index i); None if not a lambda."""
    close = match_forward(tokens, i, "[", "]")
    if close is None:
        return None
    region = Region("lambda", "", tokens[i].line, i, -1, -1)
    parse_captures(tokens, i, close, region)
    j = close + 1
    n = len(tokens)
    if j < n and tokens[j].text == "<":  # template-head lambda
        k = match_angle(tokens, j)
        if k is None:
            return None
        j = k + 1
    if j < n and tokens[j].text == "(":
        pclose = match_forward(tokens, j, "(", ")")
        if pclose is None:
            return None
        region.params = parse_params(tokens, j + 1, pclose)
        j = pclose + 1
    # specifiers / trailing return type, then '{'
    guard = 0
    while j < n and guard < 128:
        t = tokens[j].text
        if t == "{":
            region.body_open = j
            end = match_forward(tokens, j, "{", "}")
            if end is None:
                return None
            region.body_close = end
            return region
        if t == "->" or t == "requires":
            j += 1
        elif tokens[j].kind == "ident" or t in ("::", "&", "*", "&&", ","):
            j += 1
        elif t == "<":
            k = match_angle(tokens, j)
            if k is None:
                return None
            j = k + 1
        elif t == "(":
            k = match_forward(tokens, j, "(", ")")
            if k is None:
                return None
            j = k + 1
        else:
            return None
        guard += 1
    return None


def parse_params(tokens, lo, hi):
    """Parse a parameter list between '(' (exclusive lo..hi) bounds."""
    parts, depth, cur = [], 0, []
    for i in range(lo, hi):
        t = tokens[i]
        if t.text in OPEN_FOR:
            depth += 1
        elif t.text in CLOSE_FOR:
            depth -= 1
        elif t.text == "<":
            k = match_angle(tokens, i)
            if k is not None and k < hi:
                depth += 1
        elif t.text in (">", ">>") and depth > 0:
            depth -= 2 if t.text == ">>" else 1
            depth = max(depth, 0)
        if t.text == "," and depth == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append((i, t))
    if cur:
        parts.append(cur)

    params = []
    for part in parts:
        if not part:
            continue
        # strip a top-level default argument
        depth = 0
        cut = len(part)
        for k, (_, t) in enumerate(part):
            if t.text in OPEN_FOR or t.text == "<":
                depth += 1
            elif t.text in CLOSE_FOR or t.text in (">", ">>"):
                depth = max(depth - (2 if t.text == ">>" else 1), 0)
            elif t.text == "=" and depth == 0:
                cut = k
                break
        decl = part[:cut]
        if not decl:
            continue
        is_ref = is_ptr = False
        depth = 0
        for _, t in decl:
            if t.text in OPEN_FOR:
                depth += 1
            elif t.text in CLOSE_FOR:
                depth -= 1
            elif t.text == "<":
                depth += 1
            elif t.text in (">", ">>"):
                depth = max(depth - (2 if t.text == ">>" else 1), 0)
            elif depth == 0 and t.text in ("&", "&&"):
                is_ref = True
            elif depth == 0 and t.text == "*":
                is_ptr = True
        name = ""
        line = decl[0][1].line
        depth = 0
        for _, t in decl:
            if t.text in OPEN_FOR:
                depth += 1
            elif t.text in CLOSE_FOR:
                depth -= 1
            elif t.text == "<":
                depth += 1
            elif t.text in (">", ">>"):
                depth = max(depth - (2 if t.text == ">>" else 1), 0)
            elif (depth == 0 and t.kind == "ident"
                  and t.text not in TYPE_KEYWORDS):
                name = t.text  # last top-level identifier wins
                line = t.line
        type_text = " ".join(t.text for _, t in decl)
        params.append(Param(name, type_text, is_ref, is_ptr, line))
    return params


DEFINITION_DISALLOWED = {
    ";", "=", "?", "+", "-", "/", "%", "!", "|", "^", ")", "]", "}",
}


def definition_body_open(tokens, close_paren):
    """If tokens after a parameter ')' form a definition header, return
    the index of the body '{'; else None. Accepts const/noexcept/
    override/trailing-return/ctor-init shapes."""
    j = close_paren + 1
    n = len(tokens)
    guard = 0
    in_ctor_init = False
    while j < n and guard < 256:
        t = tokens[j].text
        if t == "{":
            return j
        if t == ":":
            in_ctor_init = True
        # A top-level ',' only belongs in a ctor-init list; anywhere
        # else it means the ')' closed a call argument, not a parameter
        # list (e.g. `sim::msec(5), [&]{...}` in an argument sequence).
        if t == "," and not in_ctor_init:
            return None
        if t in DEFINITION_DISALLOWED or tokens[j].kind in (
            "string", "char", "number"
        ):
            return None
        if t == "(":
            k = match_forward(tokens, j, "(", ")")
            if k is None:
                return None
            j = k + 1
        elif t == "<":
            k = match_angle(tokens, j)
            if k is None:
                return None
            j = k + 1
        elif t == "[":
            k = match_forward(tokens, j, "[", "]")
            if k is None:
                return None
            j = k + 1
        else:
            j += 1
        guard += 1
    return None


def find_regions(tokens):
    """One pass over the stream collecting function and lambda regions."""
    regions = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text == "[" and is_lambda_start(tokens, i):
            lam = try_parse_lambda(tokens, i)
            if lam is not None:
                regions.append(lam)
                i += 1  # descend: nested lambdas are separate regions
                continue
        if (
            t.kind == "ident"
            and t.text not in CONTROL_KEYWORDS
            and i + 1 < n
            and tokens[i + 1].text == "("
            and (i == 0 or tokens[i - 1].text not in (".", "->"))
        ):
            close = match_forward(tokens, i + 1, "(", ")")
            if close is not None:
                brace = definition_body_open(tokens, close)
                if brace is not None:
                    end = match_forward(tokens, brace, "{", "}")
                    if end is not None:
                        regions.append(
                            Region(
                                "function", t.text, t.line, i, brace, end,
                                params=parse_params(tokens, i + 2, close),
                            )
                        )
                        i = brace + 1  # descend for lambdas/local types
                        continue
        i += 1
    return regions


SUSPEND_KEYWORDS = {"co_await", "co_yield"}
COROUTINE_KEYWORDS = {"co_await", "co_yield", "co_return"}


def assign_ownership(model):
    """Compute each region's own-token set (body minus nested regions)
    and derive coroutine-ness / suspension points."""
    tokens = model.tokens
    regions = sorted(model.regions, key=lambda r: (r.body_open, -r.body_close))
    for r in regions:
        nested = [
            x
            for x in regions
            if x is not r
            and x.body_open > r.body_open
            and x.body_close < r.body_close
        ]
        covered = []
        for x in nested:
            covered.append((x.start if x.kind == "lambda" else x.body_open,
                            x.body_close))
        own = []
        for idx in range(r.body_open + 1, r.body_close):
            if any(lo <= idx <= hi for lo, hi in covered):
                continue
            own.append(idx)
        r.own = own
        r.suspends = [
            idx for idx in own if tokens[idx].text in SUSPEND_KEYWORDS
        ]
        r.is_coroutine = any(
            tokens[idx].text in COROUTINE_KEYWORDS for idx in own
        )
    # name lambdas after their nearest enclosing function
    for r in regions:
        if r.kind != "lambda":
            continue
        encl = enclosing_function(model, r.start)
        r.name = encl.name if encl is not None else "<file>"
    model.regions = regions


def enclosing_function(model, idx):
    best = None
    for r in model.regions:
        if r.kind != "function":
            continue
        if r.body_open <= idx <= r.body_close:
            if best is None or r.body_open > best.body_open:
                best = r
    return best


def enclosing_symbol(model, idx):
    best = None
    for r in model.regions:
        if r.body_open <= idx <= r.body_close:
            if best is None or r.body_open > best.body_open:
                best = r
    if best is None:
        return "<file>"
    return best.name if best.kind == "function" else best.name + ":lambda"


def build_file_model(rel, text):
    pragmas = set(PRAGMA_RE.findall(text))
    tokens = tokenize(text)
    model = FileModel(rel, tokens, find_regions(tokens), pragmas)
    assign_ownership(model)
    return model


# --------------------------------------------------------------------------
# Findings and global context
# --------------------------------------------------------------------------


@dataclass
class Finding:
    check: str
    file: str
    line: int
    symbol: str
    message: str
    hint: str

    @property
    def key(self):
        return f"{self.check}:{self.file}:{self.symbol}"


# Call sinks whose callback/Task outlives the calling scope.
SPAWN_SINKS = {"spawn"}
SCHEDULE_SINKS = {
    "schedule", "scheduleIn", "scheduleCancelable", "scheduleCancelableIn",
}
DEADLINE_SINKS = {"callWithDeadline"}

# Files whose RPCs ride the unreliable data path (A5), repo-relative.
DEADLINE_ONLY_FILES = {"src/nasd/client.cc"}


@dataclass
class GlobalInfo:
    task_names: set = field(default_factory=set)
    void_names: set = field(default_factory=set)  # declared `void f(`
    detached_fns: set = field(default_factory=set)
    semaphore_names: set = field(default_factory=set)
    tables: set = field(default_factory=set)  # member associative containers
    finders: set = field(default_factory=set)  # `T *findX(` members


ASSOC_CONTAINERS = {
    "map", "multimap", "unordered_map", "unordered_multimap", "set",
    "unordered_set",
}


def collect_tables(tokens, info):
    """Member associative containers (`std::map<...> name_;`) and
    pointer-returning finders (`T *find...(`) declared in this file."""
    n = len(tokens)
    for i, t in enumerate(tokens):
        if (
            t.text in ASSOC_CONTAINERS
            and i >= 2
            and tokens[i - 1].text == "::"
            and tokens[i - 2].text == "std"
            and i + 1 < n
            and tokens[i + 1].text == "<"
        ):
            close = match_angle(tokens, i + 1)
            if (
                close is not None
                and close + 2 < n
                and tokens[close + 1].kind == "ident"
                and tokens[close + 1].text.endswith("_")
                and tokens[close + 2].text in (";", "{", "=")
            ):
                info.tables.add(tokens[close + 1].text)
        if (
            t.kind == "ident"
            and t.text.startswith("find")
            and i >= 1
            and tokens[i - 1].text == "*"
            and i + 1 < n
            and tokens[i + 1].text == "("
        ):
            info.finders.add(t.text)


def collect_globals(models):
    info = GlobalInfo()
    for model in models:
        tokens = model.tokens
        n = len(tokens)
        info.semaphore_names |= collect_semaphore_names(tokens)
        collect_tables(tokens, info)
        # Task-returning callables: `Task < ... > name (`
        for i, t in enumerate(tokens):
            if (
                t.text == "void"
                and i + 2 < n
                and tokens[i + 1].kind == "ident"
                and tokens[i + 2].text == "("
            ):
                # A name also declared returning void is ambiguous for
                # A2 (e.g. Gate::open vs AfsClient::open); member-call
                # receivers cannot be type-resolved at token level.
                info.void_names.add(tokens[i + 1].text)
            if t.text != "Task" or i + 1 >= n or tokens[i + 1].text != "<":
                continue
            close = match_angle(tokens, i + 1)
            if close is None or close + 2 >= n:
                continue
            if (
                tokens[close + 1].kind == "ident"
                and tokens[close + 2].text == "("
                and tokens[close + 1].text not in CONTROL_KEYWORDS
            ):
                info.task_names.add(tokens[close + 1].text)
        # Detached coroutines: a direct call `spawn(ns::fn(...)` marks fn.
        for i, t in enumerate(tokens):
            if t.text not in SPAWN_SINKS or i + 1 >= n:
                continue
            if tokens[i + 1].text != "(":
                continue
            j = i + 2
            last_ident = None
            while j < n:
                tk = tokens[j]
                if tk.kind == "ident":
                    last_ident = tk.text
                    j += 1
                elif tk.text == "::":
                    j += 1
                elif tk.text == "<":
                    k = match_angle(tokens, j)
                    if k is None:
                        break
                    j = k + 1
                elif tk.text == "(":
                    if last_ident and last_ident not in (
                        "move", "forward",
                    ):
                        info.detached_fns.add(last_ident)
                    break
                else:
                    break
    return info


def lambda_escape_context(model, region):
    """Classify how a lambda leaves its scope: handed to spawn/schedule*
    ('spawn'/'schedule'), to callWithDeadline ('deadline'), or not
    ('')."""
    tokens = model.tokens
    i = region.start - 1
    depth = 0
    # Walk back past sibling arguments to the nearest unbalanced '('.
    while i >= 0 and region.start - i < 4096:
        t = tokens[i].text
        if t in (")", "]", "}"):
            j = match_backward(tokens, i)
            if j is None:
                return ""
            i = j - 1
            continue
        if t == "(":
            if depth == 0:
                # Allow an explicit template argument list between the
                # callee and its '(': `callWithDeadline<Reply>(...)`.
                k = i - 1
                if k >= 0 and tokens[k].text in (">", ">>"):
                    adepth = 2 if tokens[k].text == ">>" else 1
                    k -= 1
                    while k >= 0 and adepth > 0:
                        tt = tokens[k].text
                        if tt in (">", ">>"):
                            adepth += 2 if tt == ">>" else 1
                        elif tt == "<":
                            adepth -= 1
                        elif tt in (";", "{", "}", ")"):
                            return ""
                        k -= 1
                callee = tokens[k] if k >= 0 else None
                if callee is not None and callee.kind == "ident":
                    if callee.text in SPAWN_SINKS:
                        return "spawn"
                    if callee.text in SCHEDULE_SINKS:
                        return "schedule"
                    if callee.text in DEADLINE_SINKS:
                        return "deadline"
                return ""
            depth -= 1
        elif t in ("{", ";"):
            return ""
        i -= 1
    return ""


# --------------------------------------------------------------------------
# Checks (shared by both backends)
# --------------------------------------------------------------------------


def first_use_after_suspend(model, region, name):
    """Own-token index of the first use of `name` after the statement
    containing the region's first suspension point, or None.

    The boundary is the first ';' *after* the first co_await: a use
    inside the same statement as the suspension has not yet crossed it.
    Loop-carried uses inside a single statement are not modeled.
    """
    if not region.suspends:
        return None
    tokens = model.tokens
    boundary = None
    for idx in region.own:
        if idx > region.suspends[0] and tokens[idx].text == ";":
            boundary = idx
            break
    if boundary is None:
        return None
    for idx in region.own:
        if idx <= boundary:
            continue
        t = tokens[idx]
        if t.kind != "ident" or t.text != name:
            continue
        prev = tokens[idx - 1] if idx > 0 else None
        if prev is not None and prev.text in (".", "->", "::"):
            continue  # member/namespace of something else
        return idx
    return None


def check_a1(model, ginfo, findings):
    tokens = model.tokens
    for r in model.regions:
        if not r.is_coroutine:
            continue
        if r.kind == "function":
            if r.name not in ginfo.detached_fns:
                continue
            for p in r.params:
                if not (p.is_ref or p.is_ptr) or not p.name:
                    continue
                use = first_use_after_suspend(model, r, p.name)
                if use is None:
                    continue
                kind = "reference" if p.is_ref else "pointer"
                findings.append(Finding(
                    "A1", model.rel, tokens[use].line,
                    f"{r.name}:{p.name}",
                    f"{kind} parameter '{p.name}' of detached coroutine "
                    f"'{r.name}' used after a co_await suspension point",
                    "the spawned frame outlives the caller; pass by "
                    "value (or shared_ptr), or prove the referent "
                    "outlives every suspension and baseline this",
                ))
        else:  # lambda
            r.escape = lambda_escape_context(model, r)
            if not r.escape:
                continue
            if r.escape in ("spawn", "schedule"):
                if (r.capture_default or r.ref_captures
                        or r.value_captures):
                    findings.append(Finding(
                        "A1", model.rel, r.line,
                        f"{r.name}:lambda-captures",
                        "captures of a spawned coroutine lambda live in "
                        "the closure temporary, which is destroyed at "
                        "the end of the spawn expression",
                        "pass state as explicit parameters of the "
                        "lambda instead of capturing",
                    ))
                for p in r.params:
                    if not (p.is_ref or p.is_ptr) or not p.name:
                        continue
                    use = first_use_after_suspend(model, r, p.name)
                    if use is None:
                        continue
                    findings.append(Finding(
                        "A1", model.rel, tokens[use].line,
                        f"{r.name}:lambda:{p.name}",
                        f"reference parameter '{p.name}' of a spawned "
                        "coroutine lambda used after a co_await "
                        "suspension point",
                        "the detached frame may outlive the referent; "
                        "pass by value or prove lifetime and baseline",
                    ))
            elif r.escape == "deadline":
                if r.capture_default == "&" or r.ref_captures:
                    names = ", ".join(r.ref_captures) or "[&]"
                    findings.append(Finding(
                        "A1", model.rel, r.line,
                        f"{r.name}:deadline-ref-capture",
                        "handler lambda for callWithDeadline captures "
                        f"by reference ({names}); a timed-out caller's "
                        "frame dies while the handler keeps running",
                        "capture by value via a named handler factory "
                        "(see NasdClient::call)",
                    ))


DISCARD_STMT_PREV = {";", "{", "}", "else", "do", ")", "?", ":"}


def chain_start(tokens, i):
    """Given a call at tokens[i] (identifier), walk back over a member
    chain `a.b(x).c` to the index where the full expression starts."""
    s = i
    while s >= 1 and tokens[s - 1].text in (".", "->"):
        r = s - 2
        if r >= 0 and tokens[r].text in (")", "]"):
            o = match_backward(tokens, r)
            if o is None:
                return s
            r = o - 1
            if r >= 0 and tokens[r].kind == "ident":
                s = r
            else:
                return o
        elif r >= 0 and tokens[r].kind == "ident":
            s = r
        else:
            return s - 1
    return s


def check_a2(model, ginfo, findings):
    tokens = model.tokens
    n = len(tokens)
    flaggable = ginfo.task_names - ginfo.void_names
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in flaggable:
            continue
        if i + 1 >= n or tokens[i + 1].text != "(":
            continue
        close = match_forward(tokens, i + 1, "(", ")")
        if close is None or close + 1 >= n:
            continue
        # Plain discard ends `);`; a cast-wrapped discard like
        # `static_cast<void>(f());` ends `));` — the extra ')' is the
        # cast's, verified by the static_cast_void shape test below.
        if tokens[close + 1].text == ";":
            pass
        elif (tokens[close + 1].text == ")" and close + 2 < n
                and tokens[close + 2].text == ";"):
            pass
        else:
            continue
        s = chain_start(tokens, i)
        prev = tokens[s - 1] if s >= 1 else None
        # (void) f(...);  /  static_cast<void>(f(...));
        cast_void = (
            s >= 3
            and tokens[s - 1].text == ")"
            and tokens[s - 2].text == "void"
            and tokens[s - 3].text == "("
        )
        static_cast_void = (
            s >= 5
            and tokens[s - 1].text == "("
            and tokens[s - 2].text == ">"
            and tokens[s - 3].text == "void"
            and tokens[s - 4].text == "<"
            and tokens[s - 5].text == "static_cast"
        )
        if static_cast_void and close + 2 < n:
            # actual terminator is `) ;` after the cast close
            pass
        stmt_start = prev is None or prev.text in DISCARD_STMT_PREV
        if prev is not None and prev.text == ")" and not cast_void:
            # distinguish `if (c) f();` from `g(...) f();` (impossible);
            # keep ')' as statement-start (if/for/while bodies)
            stmt_start = True
        if not (stmt_start or cast_void or static_cast_void):
            continue
        # `spawn(...)` / `co_await ...` shapes never reach here: their
        # call is not in statement position or is consumed.
        sym = enclosing_symbol(model, i)
        shape = "discarded"
        if cast_void:
            shape = "(void)-cast"
        elif static_cast_void:
            shape = "static_cast<void>-cast"
        findings.append(Finding(
            "A2", model.rel, t.line, f"{sym}:{t.text}",
            f"{shape} call to Task-returning '{t.text}': a lazy Task "
            "that is never awaited never runs",
            "co_await the call, or hand it to sim.spawn(...)",
        ))


BANNED_TIME = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "gettimeofday", "clock_gettime", "timespec_get",
}
BANNED_RANDOM = {
    "random_device", "mt19937", "mt19937_64", "default_random_engine",
    "minstd_rand", "minstd_rand0", "ranlux24", "ranlux48", "arc4random",
    "getrandom", "srand", "srandom", "random_shuffle",
}
UNORDERED_CONTAINERS = {"unordered_map", "unordered_set",
                        "unordered_multimap", "unordered_multiset"}
ORDERED_CONTAINERS = {"map", "set", "multimap", "multiset"}


def first_template_arg_has_top_level_ptr(tokens, lt, gt):
    depth = 0
    for i in range(lt + 1, gt):
        t = tokens[i].text
        if t in ("<",) or t in OPEN_FOR:
            depth += 1
        elif t in (">", ">>") or t in CLOSE_FOR:
            depth = max(depth - (2 if t == ">>" else 1), 0)
        elif t == "," and depth == 0:
            return False  # end of first argument
        elif t == "*" and depth == 0:
            return True
    return False


def check_a3(model, findings):
    tokens = model.tokens
    n = len(tokens)
    ptr_keyed_unordered = set()
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        sym = None
        if t.text in BANNED_TIME:
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A3", model.rel, t.line, f"{sym}:{t.text}",
                f"wall-clock source '{t.text}' in simulator code",
                "simulated time must come from sim.now(); wall time "
                "makes runs non-reproducible",
            ))
        elif t.text in BANNED_RANDOM:
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A3", model.rel, t.line, f"{sym}:{t.text}",
                f"OS-entropy / unseeded randomness '{t.text}'",
                "draw from an explicitly seeded util::Rng so runs are "
                "reproducible bit-for-bit",
            ))
        elif t.text == "rand" and i + 1 < n and tokens[i + 1].text == "(":
            prev = tokens[i - 1] if i > 0 else None
            if prev is None or prev.text not in (".", "->"):
                sym = enclosing_symbol(model, i)
                findings.append(Finding(
                    "A3", model.rel, t.line, f"{sym}:rand",
                    "call to rand(): global, platform-dependent stream",
                    "draw from an explicitly seeded util::Rng",
                ))
        elif t.text == "reinterpret_cast" and i + 2 < n:
            if tokens[i + 1].text == "<" and tokens[i + 2].text in (
                "uintptr_t", "intptr_t", "std",
            ):
                k = match_angle(tokens, i + 1)
                inner = " ".join(
                    x.text for x in tokens[i + 2 : k or i + 2]
                )
                if "intptr_t" in inner:
                    sym = enclosing_symbol(model, i)
                    findings.append(Finding(
                        "A3", model.rel, t.line, f"{sym}:intptr-ordinal",
                        "pointer converted to an integer ordinal; "
                        "address-derived values differ across runs "
                        "under ASLR",
                        "key on a stable id (node name, object id) "
                        "instead of the address",
                    ))
        elif t.text in UNORDERED_CONTAINERS or t.text in ORDERED_CONTAINERS:
            if i + 1 >= n or tokens[i + 1].text != "<":
                continue
            gt = match_angle(tokens, i + 1)
            if gt is None:
                continue
            if not first_template_arg_has_top_level_ptr(tokens, i + 1, gt):
                continue
            if t.text in ORDERED_CONTAINERS:
                sym = enclosing_symbol(model, i)
                findings.append(Finding(
                    "A3", model.rel, t.line, f"{sym}:{t.text}-ptr-key",
                    f"pointer-keyed std::{t.text}: iteration order is "
                    "the address order, which varies across runs under "
                    "ASLR",
                    "key on a stable id, or use an unordered container "
                    "and never iterate it",
                ))
            else:
                # record the declared name; iterating it is the defect
                j = gt + 1
                while j < n and tokens[j].text in ("&", "*", "const"):
                    j += 1
                if j < n and tokens[j].kind == "ident":
                    ptr_keyed_unordered.add(tokens[j].text)
    if not ptr_keyed_unordered:
        return
    for i, t in enumerate(tokens):
        if t.kind != "ident" or t.text not in ptr_keyed_unordered:
            continue
        nxt = tokens[i + 1] if i + 1 < n else None
        prev = tokens[i - 1] if i > 0 else None
        iterated = False
        if prev is not None and prev.text == ":" and nxt is not None \
                and nxt.text == ")":
            # `for (... : container)`
            iterated = True
        if nxt is not None and nxt.text in (".", "->") and i + 2 < n \
                and tokens[i + 2].text in ("begin", "cbegin", "rbegin"):
            iterated = True
        if iterated:
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A3", model.rel, t.line, f"{sym}:iterate:{t.text}",
                f"iteration over pointer-keyed unordered container "
                f"'{t.text}': visit order depends on addresses and "
                "hash seeding, so any event scheduled from this loop "
                "is ordered non-deterministically",
                "iterate a stable-order index (vector of ids) and look "
                "entries up, or key the container on a stable id",
            ))


def collect_semaphore_names(tokens):
    names = set()
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text != "Semaphore":
            continue
        j = i + 1
        if j < n and tokens[j].text == "<":
            k = match_angle(tokens, j)
            if k is None:
                continue
            j = k + 1
        while j < n and tokens[j].text in ("&", "*", "const", ">", ">>"):
            j += 1
        if j < n and tokens[j].kind == "ident":
            names.add(tokens[j].text)
        # also `vector<unique_ptr<Semaphore>> name`: scan forward past
        # closing angles to the declarator identifier
        k = j
        closes = 0
        while k < n and closes < 4 and tokens[k].text in (">", ">>"):
            closes += 1
            k += 1
        if k < n and tokens[k].kind == "ident":
            names.add(tokens[k].text)
    return names


def chain_idents(tokens, i):
    """All identifiers in the member chain ending at tokens[i]
    (exclusive), e.g. `src.tx().release` -> ['src', 'tx']."""
    s = chain_start(tokens, i)
    return [
        tokens[k].text
        for k in range(s, i)
        if tokens[k].kind == "ident"
    ]


def collect_permit_names(tokens):
    """Names bound to a sim::ScopedPermit in this file.

    Covers `ScopedPermit name` / `sim::ScopedPermit name` declarations
    and both forms of binding the result of scopedAcquire():

        auto name = co_await sim::scopedAcquire(...);
        name = co_await sim::scopedAcquire(...);   // rebind

    Explicit .release() on a permit is the sanctioned way to pin the
    release point (ordering-sensitive sites), so A4 must not flag it
    even when the local shares its name with a Semaphore accessor.
    """
    names = set()
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text == "ScopedPermit":
            if i + 1 < len(tokens) and tokens[i + 1].kind == "ident":
                names.add(tokens[i + 1].text)
        elif t.text == "scopedAcquire" and i >= 5:
            if (tokens[i - 1].text == "::"
                    and tokens[i - 2].text == "sim"
                    and tokens[i - 3].text == "co_await"
                    and tokens[i - 4].text == "="
                    and tokens[i - 5].kind == "ident"):
                names.add(tokens[i - 5].text)
    return names


def check_a4(model, ginfo, findings):
    if "sim-internal" in model.pragmas or model.rel.startswith("src/sim/"):
        return
    tokens = model.tokens
    n = len(tokens)
    permit_names = collect_permit_names(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "ident" or i == 0 or i + 1 >= n:
            continue
        if tokens[i + 1].text != "(":
            continue
        prev = tokens[i - 1].text
        if prev not in (".", "->"):
            continue
        if t.text == "acquire":
            chain = chain_idents(tokens, i) or ["?"]
            root = chain[0]
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A4", model.rel, t.line, f"{sym}:acquire:{root}",
                f"raw Semaphore acquire on '{root}' outside src/sim",
                "co_await sim::timedAcquire(sim, sem) so queue time is "
                "measured and attributable to the op's latency "
                "breakdown",
            ))
        elif t.text == "release":
            chain = chain_idents(tokens, i)
            # Semaphore-typed receivers only (declarations collected
            # across every analyzed file): Task::release,
            # unique_ptr::release etc. pass through untouched.
            hits = [c for c in chain if c in ginfo.semaphore_names]
            if not hits:
                continue
            if chain and chain[0] in permit_names:
                continue  # explicit ScopedPermit::release() is the fix
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A4", model.rel, t.line, f"{sym}:release:{hits[-1]}",
                f"manual Semaphore release on '{hits[-1]}' outside "
                "src/sim",
                "hold a sim::ScopedPermit (from sim::scopedAcquire) so "
                "early returns and exceptions cannot leak the permit",
            ))


def check_a5(model, findings):
    applies = (
        model.rel in DEADLINE_ONLY_FILES
        or "unreliable-path" in model.pragmas
    )
    if not applies:
        return
    tokens = model.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text != "call" or t.kind != "ident":
            continue
        if i >= 2 and tokens[i - 1].text == "::" \
                and tokens[i - 2].text == "net" \
                and i + 1 < n and tokens[i + 1].text == "<":
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A5", model.rel, t.line, f"{sym}:net::call",
                "deadline-free net::call on the unreliable data path: "
                "a dropped message hangs the caller forever",
                "use net::callWithDeadline so a lost RPC surfaces as "
                "RpcStatus::kTimeout",
            ))


def check_a6(model, findings):
    """Ban direct event-queue access outside the sim layer itself."""
    if "sim-internal" in model.pragmas or model.rel.startswith("src/sim/"):
        return
    tokens = model.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "ident":
            continue
        if t.text in ("events_", "wheel_"):
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A6", model.rel, t.line, f"{sym}:{t.text}",
                f"direct access to the simulator's event queue "
                f"('{t.text}') outside src/sim",
                "schedule through Simulator::schedule/scheduleIn or "
                "scheduleCancelable; cancellation goes through the "
                "returned sim::TimerHandle only",
            ))
        elif t.text == "EventNode":
            sym = enclosing_symbol(model, i)
            findings.append(Finding(
                "A6", model.rel, t.line, f"{sym}:EventNode",
                "raw event-node use outside src/sim: nodes are "
                "pool-recycled the moment their event fires or is "
                "cancelled, so a retained pointer dangles",
                "hold the sim::TimerHandle returned by "
                "scheduleCancelable instead; generation counters make "
                "a stale handle a safe no-op",
            ))
        elif t.text == "TimerHandle":
            # Storing or default-initializing a handle is the sanctioned
            # pattern (`sim::TimerHandle h;`); forging one from explicit
            # index/generation values bypasses the generation contract.
            j = i + 1
            if j < n and tokens[j].kind == "ident":
                j += 1  # declarator name
            if (j + 1 < n and tokens[j].text in ("{", "(")
                    and tokens[j + 1].text not in ("}", ")")):
                sym = enclosing_symbol(model, i)
                findings.append(Finding(
                    "A6", model.rel, t.line, f"{sym}:TimerHandle",
                    "sim::TimerHandle forged from explicit values "
                    "outside src/sim: only handles returned by "
                    "scheduleCancelable carry a valid generation",
                    "store the handle scheduleCancelable returned; a "
                    "default-constructed handle is the correct "
                    "'no timer armed' state",
                ))


A7_FAULT_COUNTERS = ("faults_dropped", "faults_duplicated", "faults_delayed")


def check_a7(model, findings):
    """Fault injections and version fences must journal an FrEvent.

    The flight recorder's contract is that every control-plane
    transition is captured: a FaultPlan injection site (a `faults_*`
    counter bump) or a Cheops version-fence mutation (`++map_version`)
    whose enclosing function records no flight-recorder event is
    invisible to tools/flight_report.py, which defeats the journal's
    purpose as the post-mortem source of truth.
    """
    if "no-flight-journal" in model.pragmas:
        return
    tokens = model.tokens
    n = len(tokens)
    for region in model.regions:
        if region.body_open < 0 or region.body_close < 0:
            continue
        # An emit anywhere in the function's textual extent (including
        # nested lambdas) satisfies the contract.
        has_emit = any(
            tokens[j].kind == "ident" and tokens[j].text == "FrEvent"
            for j in range(region.body_open, region.body_close + 1)
        )
        if has_emit:
            continue
        # Anchors come from the region's own tokens so a mutation in a
        # nested lambda is charged to the lambda, not twice.
        for j in region.own:
            t = tokens[j]
            if t.kind != "ident":
                continue
            anchor = None
            if t.text == "map_version":
                nxt = tokens[j + 1].text if j + 1 < n else ""
                bumped = nxt in ("++", "+=") or any(
                    tokens[k].text == "++" for k in range(max(0, j - 4), j)
                )
                if bumped:
                    anchor = "map_version"
            elif t.text in A7_FAULT_COUNTERS:
                if (j + 2 < n and tokens[j + 1].text == "."
                        and tokens[j + 2].text == "add"):
                    anchor = t.text
            if anchor is None:
                continue
            sym = enclosing_symbol(model, j)
            findings.append(Finding(
                "A7", model.rel, t.line, f"{sym}:{anchor}",
                f"'{anchor}' mutated with no flight-recorder event in "
                "the enclosing function: the injection/fence is "
                "invisible to the journal",
                "record a util::FrEvent on the owning node's "
                "FlightJournal next to the mutation "
                "(node.flightJournal().record(...))",
            ))


def instrument_ref_names(tokens):
    """Names declared as `Counter &` / `Gauge &` in this file: registry
    instruments whose .value() is a plain read, not a Result."""
    names = set()
    for i, t in enumerate(tokens[:-2]):
        if (t.text in ("Counter", "Gauge") and tokens[i + 1].text == "&"
                and tokens[i + 2].kind == "ident"):
            names.add(tokens[i + 2].text)
    return names


def value_receiver(tokens, dot):
    """Start index of the receiver of `R.value()` with the '.' at
    @p dot: `x` or `x[k]`, not itself a member (`a.x`, `p->x`). None
    otherwise."""
    end = dot - 1
    if end >= 3 and tokens[end].text == "]" \
            and tokens[end - 1].kind in ("ident", "number") \
            and tokens[end - 2].text == "[":
        start = end - 3
    else:
        start = end
    if start < 0 or tokens[start].kind != "ident":
        return None
    if start > 0 and tokens[start - 1].text in (".", "->"):
        return None
    return start


def guards_receiver(tokens, i, recv):
    """True if a guard for the receiver text sequence @p recv starts at
    tokens[i]: `R.ok(`, `R.has_value(`, `if (!R)`-style conditions
    (also `while`), `NASD_ASSERT(!R`, `ASSERT_TRUE(R`."""
    n = len(tokens)
    k = len(recv)

    def recv_at(j):
        return j + k <= n and [t.text for t in tokens[j:j + k]] == recv

    if recv_at(i) and i + k + 2 < n and tokens[i + k].text == "." \
            and tokens[i + k + 1].text in ("ok", "has_value") \
            and tokens[i + k + 2].text == "(":
        return True
    t = tokens[i].text
    if t not in ("if", "while", "NASD_ASSERT", "ASSERT_TRUE") \
            or i + 1 >= n or tokens[i + 1].text != "(":
        return False
    j = i + 2
    if t != "ASSERT_TRUE" and j < n and tokens[j].text == "!":
        j += 1
    if not recv_at(j):
        return False
    if t in ("if", "while"):
        return j + k < n and tokens[j + k].text in (")", "&&", "||")
    return True


def check_a9(model, findings):
    """Naked Result::value() with no ok-check in the enclosing function."""
    tokens = model.tokens
    n = len(tokens)
    instruments = instrument_ref_names(tokens)
    for i, t in enumerate(tokens):
        if t.text != "value" or i < 2 or i + 2 >= n:
            continue
        if tokens[i - 1].text != "." or tokens[i + 1].text != "(" \
                or tokens[i + 2].text != ")":
            continue
        start = value_receiver(tokens, i - 1)
        if start is None or tokens[start].text in instruments:
            continue
        full = [x.text for x in tokens[start:i - 1]]
        names = [full] if len(full) == 1 else [full, full[:1]]
        encl = enclosing_function(model, i)
        lo = encl.start if encl is not None else 0
        if any(guards_receiver(tokens, j, r)
               for j in range(lo, start) for r in names):
            continue
        text = "".join(full)
        sym = enclosing_symbol(model, i)
        findings.append(Finding(
            "A9", model.rel, t.line, f"{sym}:{text}.value",
            f"naked '{text}.value()' without a preceding "
            f"'{full[0]}.ok()' check in the enclosing function",
            "check ok() first (or co_return the error): value() panics "
            "on an error Result",
        ))


def check_a10(model, findings):
    """Reference captures in lambdas handed to the event scheduler."""
    for r in model.regions:
        if r.kind != "lambda":
            continue
        refs = [c for c in r.ref_captures if c != "this"]
        if r.capture_default != "&" and not refs:
            continue
        if lambda_escape_context(model, r) != "schedule":
            continue
        names = ", ".join(refs) or "[&]"
        findings.append(Finding(
            "A10", model.rel, r.line, f"{r.name}:schedule-ref-capture",
            f"schedule* callback captures by reference ({names}); the "
            "callback runs after the scheduling scope is gone",
            "capture by value (coroutine handles and ids are cheap to "
            "copy)",
        ))


def check_a11(model, findings):
    """Headers open with an include guard or #pragma once."""
    if not model.rel.endswith(".h"):
        return
    texts = [t.text for t in model.tokens[:6]]
    if texts[:3] == ["#", "pragma", "once"]:
        return
    if (len(texts) == 6 and texts[0] == "#" and texts[1] == "ifndef"
            and texts[3] == "#" and texts[4] == "define"
            and texts[2] == texts[5]):
        return
    line = model.tokens[0].line if model.tokens else 1
    findings.append(Finding(
        "A11", model.rel, line, "<file>:include-guard",
        "header does not open with an include guard",
        "start the header with #ifndef NASD_<PATH>_H_ / #define "
        "NASD_<PATH>_H_ (or #pragma once)",
    ))


def check_a12(model, findings):
    """util::Counter value declarations outside the registry."""
    if model.rel.startswith("src/util/"):
        return
    tokens = model.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text != "Counter" or i < 2 or i + 2 >= n:
            continue
        if tokens[i - 1].text != "::" or tokens[i - 2].text != "util":
            continue
        if tokens[i + 1].kind != "ident" \
                or tokens[i + 2].text not in (";", "=", "{"):
            continue
        sym = enclosing_symbol(model, i)
        findings.append(Finding(
            "A12", model.rel, t.line, f"{sym}:{tokens[i + 1].text}",
            f"loose util::Counter '{tokens[i + 1].text}' held by value: "
            "it never reaches the MetricsRegistry or BENCH_*.json dumps",
            "register it with util::metrics().counter(path) and hold a "
            "util::Counter & instead",
        ))


def check_a13(model, findings):
    """Raw stderr prints bypass NASD_LOG."""
    if model.rel == "src/util/logging.cc":
        return  # the log sink itself
    tokens = model.tokens
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text != "fprintf" or i + 2 >= n:
            continue
        if tokens[i + 1].text != "(" or tokens[i + 2].text != "stderr":
            continue
        sym = enclosing_symbol(model, i)
        findings.append(Finding(
            "A13", model.rel, t.line, f"{sym}:fprintf-stderr",
            "raw fprintf(stderr, ...) bypasses NASD_LOG level filtering "
            "and formatting",
            "log through NASD_LOG (util/logging.h)",
        ))


TABLE_LOOKUPS = {"find", "at", "begin", "lower_bound", "upper_bound"}


def statement_end(tokens, own_set, i):
    """Index of the ';' ending the statement that token i belongs to
    (parentheses and brackets nest), or None."""
    depth = 0
    j = i
    n = len(tokens)
    while j < n:
        t = tokens[j].text
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
            if depth < 0:
                return j
        elif t == ";" and depth == 0:
            return j
        elif t in ("{", "}") and depth == 0:
            return j
        j += 1
    return None


def takes_table_ref(tokens, lo, hi, ginfo, tracked, iterator_ok):
    """Whether the expression tokens[lo:hi] yields a reference, pointer
    or iterator into a member table: a lookup on one, a member finder
    call, or (for a reference/pointer declaration) a tracked iterator
    or pointer."""
    for j in range(lo, hi):
        t = tokens[j]
        if t.kind != "ident":
            continue
        prev = tokens[j - 1].text if j > 0 else ""
        nxt = tokens[j + 1].text if j + 1 < len(tokens) else ""
        if t.text in ginfo.tables and prev not in (".", "->", "::"):
            if nxt == "[":
                return not iterator_ok  # element: only a & or * keeps it
            if (
                nxt == "."
                and j + 2 < hi
                and tokens[j + 2].text in TABLE_LOOKUPS
            ):
                return True
        if (
            t.text in ginfo.finders
            and nxt == "("
            and prev not in (".", "->", "::")
        ):
            return True
        if t.text in tracked and not iterator_ok and prev not in (".", "->"):
            return True
    return False


def loops_in(tokens, own):
    """(start, end) token spans of the for/while loops among `own`."""
    spans = []
    own_set = set(own)
    for idx in own:
        if tokens[idx].text not in ("for", "while"):
            continue
        if idx + 1 >= len(tokens) or tokens[idx + 1].text != "(":
            continue
        close = match_forward(tokens, idx + 1, "(", ")")
        if close is None or close + 1 >= len(tokens):
            continue
        if tokens[close + 1].text == "{":
            end = match_forward(tokens, close + 1, "{", "}")
        else:
            end = statement_end(tokens, own_set, close + 1)
        if end is not None:
            spans.append((idx, end))
    return spans


def check_a15(model, ginfo, findings):
    """Table entries held across a suspension point."""
    if not ginfo.tables and not ginfo.finders:
        return
    tokens = model.tokens
    for region in model.regions:
        if not region.is_coroutine or not region.suspends:
            continue
        own = region.own
        own_set = set(own)
        loops = loops_in(tokens, own)
        tracked = {}  # name -> own index where it was (re)taken
        suspended = set()  # names whose take is behind a suspension
        pending = None  # ';' ending the statement of the last co_await
        reported = set()
        # Per open block: the suspended set at its '{', and whether the
        # block left by a jump, so its suspensions do not fall through.
        blocks = []
        jumped = False
        for idx in own:
            t = tokens[idx]
            if pending is not None and idx >= pending:
                suspended |= set(tracked)
                pending = None
            if t.text == "{":
                blocks.append((set(suspended), jumped))
                jumped = False
                continue
            if t.text == "}" and blocks:
                at_open, outer_jumped = blocks.pop()
                if jumped:
                    suspended = at_open & suspended
                jumped = outer_jumped
                continue
            if t.text in ("break", "continue", "return", "co_return"):
                jumped = True
            if t.text in SUSPEND_KEYWORDS:
                end = statement_end(tokens, own_set, idx)
                pending = end if end is not None else idx
                continue
            if t.kind != "ident":
                continue
            prev = tokens[idx - 1].text if idx > 0 else ""
            nxt = tokens[idx + 1].text if idx + 1 < len(tokens) else ""
            if prev in (".", "->", "::"):
                continue
            if nxt == "=":
                # A declaration or assignment (re)takes the name.
                end = statement_end(tokens, own_set, idx + 2)
                if end is None:
                    continue
                declared_ref = prev in ("&", "*")
                iterator_ok = not declared_ref
                if takes_table_ref(tokens, idx + 2, end, ginfo, tracked,
                                   iterator_ok):
                    tracked[t.text] = idx
                else:
                    tracked.pop(t.text, None)
                suspended.discard(t.text)
                continue
            if t.text not in tracked:
                continue
            held_across = t.text in suspended
            if not held_across:
                # Around a loop: taken before a loop whose body awaits
                # and never takes the name again after that await.
                for lo, hi in loops:
                    if not lo <= idx <= hi or tracked[t.text] >= lo:
                        continue
                    waits = [s for s in region.suspends if lo <= s <= hi]
                    retaken = any(
                        lo <= j <= hi
                        and tokens[j].text == t.text
                        and j + 1 < len(tokens)
                        and tokens[j + 1].text == "="
                        and any(s < j for s in waits)
                        for j in own
                    )
                    if waits and not retaken:
                        held_across = True
                        break
            if held_across and (t.text, tracked[t.text]) not in reported:
                reported.add((t.text, tracked[t.text]))
                findings.append(Finding(
                    "A15", model.rel, t.line,
                    f"{region.name}:{t.text}",
                    f"'{t.text}' points into a member table and is used "
                    "after a co_await; another handler may erase the "
                    "entry while this one is suspended",
                    "look the entry up again by key after every "
                    "co_await (or copy what you need before it)",
                ))


CHECKS = {
    "A1": "coro-ref-escape",
    "A2": "discarded-task",
    "A3": "nondeterminism",
    "A4": "raw-acquire",
    "A5": "missing-deadline",
    "A6": "raw-event-access",
    "A7": "silent-injection",
    "A9": "naked-value",
    "A10": "schedule-ref-capture",
    "A11": "include-guard",
    "A12": "loose-counter",
    "A13": "raw-stderr",
    "A15": "table-ref-across-await",
}

CHECK_FNS = {
    "A1": check_a1, "A2": check_a2, "A3": check_a3, "A4": check_a4,
    "A5": check_a5, "A6": check_a6, "A7": check_a7, "A9": check_a9,
    "A10": check_a10, "A11": check_a11, "A12": check_a12,
    "A13": check_a13, "A15": check_a15,
}

# Checks that also run on bench/ and examples/ (see module docstring).
BENCH_CHECKS = {"A9", "A10", "A11", "A12"}


def is_bench(model):
    return model.rel.startswith(("bench/", "examples/"))


def run_checks(models, checks):
    # Bench code stays out of the cross-file facts (Task names, detached
    # coroutines, semaphores) that A1/A2/A4 apply to src/.
    ginfo = collect_globals([m for m in models if not is_bench(m)])
    findings = []
    for model in models:
        for cid, fn in CHECK_FNS.items():
            if cid not in checks:
                continue
            if is_bench(model) and cid not in BENCH_CHECKS:
                continue
            if cid in ("A1", "A2", "A4", "A15"):
                fn(model, ginfo, findings)
            else:
                fn(model, findings)
    return findings


# --------------------------------------------------------------------------
# libclang backend (optional): compiler-exact region/parameter extraction
# --------------------------------------------------------------------------

LIBCLANG_HINT = (
    "libclang python bindings not available.\n"
    "Install them with one of:\n"
    "    pip install libclang        # bundles a shared library\n"
    "    apt-get install python3-clang libclang1\n"
    "or run with --backend builtin (the default, no dependencies)."
)


def load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        cindex.Index.create()
    except Exception:
        lib = os.environ.get("NASD_LIBCLANG")
        if lib:
            try:
                cindex.Config.set_library_file(lib)
                cindex.Index.create()
            except Exception:
                return None
        else:
            return None
    return cindex


def compile_args_for(cc_db, path, root):
    args = ["-std=c++20", "-x", "c++", f"-I{root}/src"]
    if cc_db is None:
        return args
    try:
        cmds = cc_db.getCompileCommands(str(path))
    except Exception:
        cmds = None
    if not cmds:
        return args
    raw = list(cmds[0].arguments)
    out, skip = [], False
    for a in raw[1:]:  # drop the compiler itself
        if skip:
            skip = False
            continue
        if a in ("-c", str(path)):
            continue
        if a == "-o":
            skip = True
            continue
        out.append(a)
    return out or args


def build_models_libclang(cindex, root, build_dir, paths):
    """Parse with libclang; reuse the shared token machinery for bodies.

    Regions come from cursor extents (compiler-exact), parameters from
    PARM_DECL cursors with real types; suspension points and body token
    sets still come from the shared tokenizer, keyed by line ranges.
    """
    try:
        cc_db = cindex.CompilationDatabase.fromDirectory(str(build_dir))
    except Exception:
        cc_db = None
    index = cindex.Index.create()
    models = []
    for path in paths:
        rel = os.path.relpath(path, root)
        text = Path(path).read_text()
        model = build_file_model(rel, text)  # token layer is shared
        try:
            tu = index.parse(
                str(path), args=compile_args_for(cc_db, path, root)
            )
            refine_model_with_ast(cindex, tu, path, model)
        except Exception as e:  # fall back to builtin regions
            print(
                f"nasd-analyze: libclang parse failed for {rel} ({e}); "
                "using builtin parser for this file",
                file=sys.stderr,
            )
        models.append(model)
    return models


def refine_model_with_ast(cindex, tu, path, model):
    """Overlay compiler-exact parameter ref/pointer-ness onto the
    builtin model's regions (matched by name + line)."""
    CursorKind = cindex.CursorKind
    TypeKind = cindex.TypeKind
    by_key = {}
    for r in model.regions:
        if r.kind == "function":
            by_key.setdefault((r.name, r.line), r)

    def visit(cursor):
        for c in cursor.get_children():
            try:
                loc_file = c.location.file
            except Exception:
                loc_file = None
            if loc_file is not None and str(loc_file) != str(path):
                continue
            if c.kind in (
                CursorKind.FUNCTION_DECL,
                CursorKind.CXX_METHOD,
                CursorKind.CONSTRUCTOR,
                CursorKind.FUNCTION_TEMPLATE,
            ) and c.is_definition():
                region = by_key.get((c.spelling, c.location.line))
                if region is not None:
                    params = []
                    for p in c.get_children():
                        if p.kind != CursorKind.PARM_DECL:
                            continue
                        k = p.type.kind
                        params.append(Param(
                            p.spelling or "",
                            p.type.spelling,
                            k in (TypeKind.LVALUEREFERENCE,
                                  TypeKind.RVALUEREFERENCE),
                            k == TypeKind.POINTER,
                            p.location.line,
                        ))
                    if params:
                        region.params = params
            visit(c)

    visit(tu.cursor)


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------


def load_baseline(path):
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}, []
    except json.JSONDecodeError as e:
        print(f"nasd-analyze: bad baseline JSON {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    entries = {}
    errors = []
    for e in data.get("entries", []):
        check = e.get("check", "")
        file_ = e.get("file", "")
        symbol = e.get("symbol", "")
        just = (e.get("justification") or "").strip()
        key = f"{check}:{file_}:{symbol}"
        if not (check and file_ and symbol):
            errors.append(f"baseline entry missing check/file/symbol: {e}")
            continue
        if len(just) < 20:
            errors.append(
                f"baseline entry {key} needs a real justification "
                "(>= 20 chars explaining why the finding is safe)"
            )
            continue
        entries[key] = e
    return entries, errors


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


def discover_sources(root):
    paths = []
    for top in ("src", "bench", "examples"):
        for ext in ("*.cc", "*.cpp", "*.h"):
            paths.extend(sorted((root / top).rglob(ext)))
    return paths


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="AST-level coroutine-safety and sim-determinism "
        "analyzer (see module docstring or --list-checks)",
    )
    ap.add_argument("files", nargs="*", help="files to analyze "
                    "(default: src/, bench/ and examples/ under --root)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--build-dir", default=None,
                    help="build dir holding compile_commands.json "
                    "(libclang backend; default: ROOT/build)")
    ap.add_argument("--backend", choices=("builtin", "libclang"),
                    default=os.environ.get("NASD_ANALYZE_BACKEND",
                                           "builtin"),
                    help="parser backend (default builtin; libclang "
                    "needs clang.cindex)")
    ap.add_argument("--baseline", default=None,
                    help="suppression file (default: "
                    "tools/analyze_baseline.json)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline (fixture/self-test mode)")
    ap.add_argument("--checks", default=",".join(CHECKS),
                    help="comma-separated subset of checks to run")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, slug in CHECKS.items():
            print(f"{cid}  {slug}")
        return 0

    root = Path(args.root) if args.root else \
        Path(__file__).resolve().parent.parent
    build_dir = Path(args.build_dir) if args.build_dir else root / "build"
    checks = {c.strip() for c in args.checks.split(",") if c.strip()}
    unknown = checks - set(CHECKS)
    if unknown:
        print(f"nasd-analyze: unknown checks: {sorted(unknown)}",
              file=sys.stderr)
        return 2

    if args.files:
        paths = [Path(f).resolve() for f in args.files]
    else:
        paths = discover_sources(root)
    if not paths:
        print("nasd-analyze: no input files", file=sys.stderr)
        return 2

    if args.backend == "libclang":
        cindex = load_cindex()
        if cindex is None:
            print(LIBCLANG_HINT, file=sys.stderr)
            return 2
        models = build_models_libclang(cindex, root, build_dir, paths)
    else:
        models = []
        for path in paths:
            rel = os.path.relpath(path, root)
            models.append(build_file_model(rel, Path(path).read_text()))

    findings = run_checks(models, checks)
    findings.sort(key=lambda f: (f.file, f.line, f.check))

    baseline_path = Path(args.baseline) if args.baseline else \
        root / "tools" / "analyze_baseline.json"
    suppressed = []
    baseline_errors = []
    if not args.no_baseline:
        entries, baseline_errors = load_baseline(baseline_path)
        kept = []
        used = set()
        for f in findings:
            if f.key in entries:
                suppressed.append(f)
                used.add(f.key)
            else:
                kept.append(f)
        findings = kept
        for key in sorted(set(entries) - used):
            print(f"nasd-analyze: note: unused baseline entry {key} "
                  "(stale? consider removing it)", file=sys.stderr)

    if args.format == "json":
        out = {
            "findings": [
                {
                    "check": f.check, "slug": CHECKS[f.check],
                    "file": f.file, "line": f.line, "symbol": f.symbol,
                    "key": f.key, "message": f.message, "hint": f.hint,
                }
                for f in findings
            ],
            "suppressed": len(suppressed),
            "files": len(models),
            "baseline_errors": baseline_errors,
        }
        print(json.dumps(out, indent=2))
    else:
        for f in findings:
            print(f"{f.file}:{f.line}: [{f.check}/{CHECKS[f.check]}] "
                  f"{f.message}\n    hint: {f.hint}\n    suppress-key: "
                  f"{f.key}")
        for e in baseline_errors:
            print(f"nasd-analyze: baseline error: {e}", file=sys.stderr)
        status = "clean" if not findings and not baseline_errors else \
            f"{len(findings)} finding(s)"
        print(f"nasd-analyze: {len(models)} file(s), {status}, "
              f"{len(suppressed)} baselined")

    if baseline_errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
