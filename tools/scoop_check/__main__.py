#!/usr/bin/env python3
"""scoop_check — semantic static analysis for the Scoop tree.

scoop_check understands structure: the module include graph, class
bodies and their members, and the catalogs that give names meaning. It
also runs the line-level hygiene checks. Checks (all documented in
DESIGN.md "Static analysis"):

  layering        src/ include graph vs tools/scoop_check/layers.spec
                  (cycles and undeclared edges are hard errors)
  guarded-by      every mutable member of a Mutex-owning class carries
                  GUARDED_BY or an `// UNGUARDED: <reason>` waiver
  status-audit    [[nodiscard]] stays on Status/Result; no bare `(void)`
                  discards; `.IgnoreError()` sites carry a reason
  lock-rank       Mutex constructions vs lockrank constants vs the
                  DESIGN.md §3d rank table — all three must agree
  span-name       TraceSpan literals vs the DESIGN.md §3f span catalog
  failpoint-name  failpoint literals vs kFailpointSites (failpoint.h)
  metric-name     metric literals vs METRICS.md
  header-name     wire-layer header names (src/net/, src/scoop/) vs the
                  docs/PROTOCOL.md header catalog
  raw-sync-primitive, raw-sync-include, blocking-under-lock,
  include-hygiene, intrinsics-include, banned-function
                  line-level hygiene over src/, tests/, bench/ and
                  examples/ (see hygiene.py)

Engines: `--engine libclang` uses a real AST for class/member extraction
when python3-libclang is importable; `--engine tokens` (the reference
implementation, and what `auto` resolves to when libclang is absent)
uses the structural parser in cxxparse.py. Both feed the same model, and
the self-test corpora pin the token engine's behaviour.

Usage:
  python3 tools/scoop_check                 # full tree, all checks
  python3 tools/scoop_check --self-test     # known-good/bad corpora
  python3 tools/scoop_check --check layering --check lock-rank
  python3 tools/scoop_check --json findings.json   # CI artifact

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common           # noqa: E402
import compiledb        # noqa: E402
import crosscheck       # noqa: E402
import engine_libclang  # noqa: E402
import guarded_by       # noqa: E402
import hygiene          # noqa: E402
import layering         # noqa: E402
import status_audit     # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

ALL_CHECKS = ("layering", "guarded-by", "status-audit", "lock-rank",
              "span-name", "failpoint-name", "metric-name",
              "header-name") + hygiene.CHECKS


def _read(path):
    p = REPO_ROOT / path
    return p.read_text(encoding="utf-8", errors="replace") if p.is_file() \
        else ""


def run(argv=None):
    parser = argparse.ArgumentParser(
        prog="scoop_check", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="repo root (default: autodetected)")
    parser.add_argument("--compile-db", default=None,
                        help="explicit path to compile_commands.json")
    parser.add_argument("--engine", choices=("auto", "tokens", "libclang"),
                        default="auto",
                        help="class/member extraction engine (default "
                        "auto: libclang when importable, else tokens)")
    parser.add_argument("--check", action="append", choices=ALL_CHECKS,
                        default=None, metavar="NAME",
                        help="run only these checks (repeatable)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write findings as JSON (CI artifact)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the known-good/known-bad corpora")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in ALL_CHECKS:
            print(check)
        return 0

    if args.self_test:
        import selftest
        return selftest.run()

    root = Path(args.root).resolve()
    selected = set(args.check or ALL_CHECKS)

    if args.engine == "libclang" and not engine_libclang.available():
        print(f"scoop_check: --engine libclang requested but unavailable "
              f"({engine_libclang.unavailable_reason()})", file=sys.stderr)
        return 2
    use_libclang = (args.engine == "libclang"
                    or (args.engine == "auto"
                        and engine_libclang.available()))

    db = compiledb.load(root, args.compile_db)
    if db.is_fallback:
        print("scoop_check: no compile_commands.json found — falling back "
              "to a source glob (configure with CMake to generate one)",
              file=sys.stderr)

    sources = common.load_tree(root)
    findings = []

    if "layering" in selected:
        spec_path = Path(__file__).resolve().parent / "layers.spec"
        if not spec_path.is_file():
            print(f"scoop_check: {spec_path} missing — the layering spec "
                  "is the contract, it must exist", file=sys.stderr)
            return 2
        findings.extend(layering.check(
            sources, spec_path.read_text(encoding="utf-8"),
            include_roots=db.include_roots,
            spec_path="tools/scoop_check/layers.spec"))

    if "guarded-by" in selected:
        if use_libclang:
            findings.extend(_guarded_by_libclang(root, sources))
        else:
            findings.extend(guarded_by.check(sources))

    if "status-audit" in selected:
        findings.extend(status_audit.check(sources))

    design_text = (root / "DESIGN.md").read_text(
        encoding="utf-8", errors="replace") \
        if (root / "DESIGN.md").is_file() else ""
    metrics_text = (root / "METRICS.md").read_text(
        encoding="utf-8", errors="replace") \
        if (root / "METRICS.md").is_file() else ""

    if "lock-rank" in selected:
        findings.extend(crosscheck.check_lock_ranks(sources, design_text))
    if "span-name" in selected:
        findings.extend(crosscheck.check_span_names(sources, design_text))
    if "failpoint-name" in selected:
        findings.extend(crosscheck.check_failpoint_names(sources))
    if "metric-name" in selected:
        findings.extend(crosscheck.check_metric_names(sources, metrics_text))
    if "header-name" in selected:
        protocol_text = (root / "docs" / "PROTOCOL.md").read_text(
            encoding="utf-8", errors="replace") \
            if (root / "docs" / "PROTOCOL.md").is_file() else ""
        findings.extend(crosscheck.check_header_names(sources,
                                                      protocol_text))
    findings.extend(f for f in hygiene.check(sources) if f.check in selected)

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    for finding in findings:
        print(finding.render())

    if args.json:
        payload = {
            "tool": "scoop_check",
            "engine": "libclang" if use_libclang else "tokens",
            "compile_db": db.source,
            "checks": sorted(selected),
            "files_scanned": len(sources),
            "findings": [f.to_json() for f in findings],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")

    if findings:
        print(f"scoop_check: {len(findings)} finding(s) in "
              f"{len(sources)} files", file=sys.stderr)
        return 1
    print(f"scoop_check: OK ({len(sources)} files, "
          f"checks: {', '.join(sorted(selected))}, "
          f"engine: {'libclang' if use_libclang else 'tokens'})")
    return 0


def _guarded_by_libclang(root, sources):
    """guarded-by via the AST engine, falling back per-file to tokens."""
    findings = []
    for source in sources:
        if not source.path.startswith("src/") or \
                source.path in guarded_by.EXEMPT_FILES:
            continue
        try:
            classes = engine_libclang.parse_classes(str(root), source.path)
        except Exception:
            classes = None  # AST parse failed: token engine takes over
        findings.extend(guarded_by.check_source(source, classes))
    return findings


if __name__ == "__main__":
    sys.exit(run())
