#!/usr/bin/env bash
# Project lint gate: clang-tidy (when available) + nasd_analyze
# (coroutine-safety, determinism and project-invariant checks; see
# tools/nasd_analyze.py --list-checks).
#
# Usage: tools/lint.sh [build-dir]
#
# The build dir must have been configured by the root CMakeLists (it
# exports compile_commands.json). clang-tidy is optional locally —
# nasd_analyze always runs — but CI treats a missing clang-tidy in its
# lint job as a failure.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
STATUS=0

echo "== clang-tidy =="
TIDY="${CLANG_TIDY:-clang-tidy}"
if command -v "$TIDY" > /dev/null 2>&1; then
    if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
        echo "no compile_commands.json under $BUILD_DIR;"
        echo "configure first: cmake -B \"$BUILD_DIR\" -S \"$ROOT\""
        STATUS=1
    else
        # Lint the library sources; headers are pulled in via
        # HeaderFilterRegex.
        FILES=$(find "$ROOT/src" -name '*.cc' | sort)
        if command -v run-clang-tidy > /dev/null 2>&1; then
            if ! run-clang-tidy -quiet -p "$BUILD_DIR" $FILES; then
                STATUS=1
            fi
        else
            for f in $FILES; do
                if ! "$TIDY" -p "$BUILD_DIR" --quiet "$f"; then
                    STATUS=1
                fi
            done
        fi
    fi
else
    echo "clang-tidy not found; skipping (set CLANG_TIDY to override)"
    if [ "${LINT_REQUIRE_TIDY:-0}" = "1" ]; then
        echo "LINT_REQUIRE_TIDY=1: treating missing clang-tidy as failure"
        STATUS=1
    fi
fi

echo
echo "== nasd_analyze =="
# The builtin backend needs no clang bindings; pass
# NASD_ANALYZE_BACKEND=libclang to cross-check with the AST overlay
# when python3-clang is installed.
if ! python3 "$ROOT/tools/nasd_analyze.py" --root "$ROOT" \
        --build-dir "$BUILD_DIR"; then
    STATUS=1
fi

exit $STATUS
