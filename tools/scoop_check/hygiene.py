"""Line-level hygiene checks (one finding per offending line):

  raw-sync-primitive   std::mutex / std::lock_guard / std::unique_lock /
                       std::condition_variable & friends anywhere outside
                       src/common/sync.{h,cc}. All locking goes through the
                       annotated wrappers so the Clang thread-safety
                       analysis and the debug lock-order checker see it.
  raw-sync-include     <mutex> / <condition_variable> / <shared_mutex>
                       includes outside src/common/sync.{h,cc}.
  blocking-under-lock  sleep or blocking I/O calls in a scope where a
                       MutexLock is live (holding a lock across a sleep or
                       syscall starves every waiter; use CondVar waits).
  include-hygiene      parent-relative includes ("../"), <bits/...>
                       internals, and headers without a SCOOP_ include
                       guard.
  intrinsics-include   CPU intrinsics headers (<emmintrin.h>,
                       <immintrin.h>, <arm_neon.h>, ...) anywhere outside
                       src/columnar/simd.{h,cc}. Platform dispatch lives
                       behind ScanCsvStructural; nothing else may grow an
                       ISA dependency.
  banned-function      non-reentrant / nondeterministic / unsafe libc calls
                       (rand, strtok, localtime, sprintf, ...) — use
                       common/random.h, common/strings.h, snprintf.

Include lines are matched on the comment-stripped view (the header name
is a string); everything else on the view with strings blanked too. A
line containing `NOLINT` is exempt (pair it with a reason, as in
clang-tidy).
"""

import re

import common

CHECKS = ("raw-sync-primitive", "raw-sync-include", "blocking-under-lock",
          "include-hygiene", "intrinsics-include", "banned-function")

# The one place raw primitives are allowed: the sync layer itself.
SYNC_EXEMPT = {"src/common/sync.h", "src/common/sync.cc"}
# The one place allowed to include CPU intrinsics: the structural scanner.
INTRINSICS_EXEMPT = {"src/columnar/simd.h", "src/columnar/simd.cc"}

RAW_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_INCLUDE_RE = re.compile(
    r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>'
)
MUTEX_LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*[({]")
BLOCKING_RE = re.compile(
    r"(std::this_thread::sleep_for|std::this_thread::sleep_until|"
    r"\busleep\s*\(|\bnanosleep\s*\(|\bsleep\s*\(|\bsystem\s*\(|"
    r"\bpopen\s*\(|\bgetchar\s*\(|\bfsync\s*\()"
)
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s*"\.\./')
BITS_INCLUDE_RE = re.compile(r"#\s*include\s*<bits/")
INTRINSICS_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:[emnpstwx]mmintrin|immintrin|avx\w*intrin|"
    r"x86intrin|x86gprintrin|intrin|arm_neon|arm_sve)\.h>"
)
GUARD_RE = re.compile(r"#\s*(?:ifndef\s+SCOOP_\w+_H_|pragma\s+once)")
BANNED_RE = re.compile(
    r"\b(?:std::)?(rand|srand|strtok|gets|sprintf|vsprintf|strcpy|strcat|"
    r"asctime|ctime|localtime|gmtime|tmpnam|atoll?|atoi)\s*\("
)


def check_source(source):
    findings = []
    is_sync_layer = source.path in SYNC_EXEMPT

    def add(lineno, check, message):
        findings.append(common.Finding(source.path, lineno, check, message))

    # Brace depths at which a MutexLock was declared; a lock is live until
    # its enclosing block closes.
    lock_scopes = []
    depth = 0
    saw_guard = False
    for lineno, (raw, line, code) in enumerate(
            zip(source.raw_lines, source.lines, source.structure_lines),
            start=1):
        if "NOLINT" in raw:
            depth += code.count("{") - code.count("}")
            continue
        if GUARD_RE.search(line):
            saw_guard = True

        if not is_sync_layer:
            primitive = RAW_PRIMITIVE_RE.search(code)
            if primitive:
                add(lineno, "raw-sync-primitive",
                    f"`{primitive.group(0)}` outside src/common/sync.h — "
                    "use scoop::Mutex / MutexLock / CondVar")
            if RAW_INCLUDE_RE.search(line):
                add(lineno, "raw-sync-include",
                    "raw synchronization include outside "
                    'src/common/sync.h — include "common/sync.h"')

        if PARENT_INCLUDE_RE.search(line):
            add(lineno, "include-hygiene",
                'parent-relative include ("../") — include from the src/ '
                "root")
        if BITS_INCLUDE_RE.search(line):
            add(lineno, "include-hygiene",
                "<bits/...> is libstdc++ internal — include the standard "
                "header")
        if (source.path not in INTRINSICS_EXEMPT
                and INTRINSICS_INCLUDE_RE.search(line)):
            add(lineno, "intrinsics-include",
                "CPU intrinsics outside src/columnar/simd.{h,cc} — go "
                "through ScanCsvStructural so platform dispatch stays in "
                "one place")

        banned = BANNED_RE.search(code)
        if banned:
            add(lineno, "banned-function",
                f"`{banned.group(1)}` is banned (non-reentrant, "
                "nondeterministic, or unsafe) — see "
                "tools/scoop_check/hygiene.py for the sanctioned "
                "replacement")

        # The declaration counts as live at the depth where it appears,
        # whatever braces its own line opens or closes.
        if MUTEX_LOCK_DECL_RE.search(code):
            lock_scopes.append(depth)
        elif lock_scopes:
            blocking = BLOCKING_RE.search(code)
            if blocking:
                add(lineno, "blocking-under-lock",
                    f"`{blocking.group(0).strip()}` while a MutexLock is "
                    "in scope — release the lock or use a CondVar wait")
        depth += code.count("{") - code.count("}")
        while lock_scopes and depth < lock_scopes[-1]:
            lock_scopes.pop()
        # A `}` on the declaring depth closes the block that owns the lock.
        while lock_scopes and depth == lock_scopes[-1] and "}" in code:
            lock_scopes.pop()

    if source.path.endswith(".h") and not saw_guard and not is_sync_layer:
        add(1, "include-hygiene", "header lacks a SCOOP_*_H_ include guard")
    return findings


def check(sources):
    findings = []
    for source in sources:
        findings.extend(check_source(source))
    return findings
