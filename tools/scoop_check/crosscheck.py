"""Single-source-of-truth cross-checks.

One extraction pass over the tree collects every name literal that has a
catalog, then each family is validated against its catalog:

  lock-rank        `Mutex("name", lockrank::kFoo)` constructions vs the
                   lockrank constants in src/common/sync.h vs the rank
                   table in DESIGN.md §3d. All three must agree: same
                   constants, same numeric values, every named mutex has
                   a table row with the same rank.
  span-name        TraceSpan literals vs the span catalog in DESIGN.md
                   §3f ("Span catalog" table).
  failpoint-name   SCOOP_FAILPOINT / FailpointCheck / CheckData literals
                   vs kFailpointSites (src/common/failpoint.h).
  metric-name      GetCounter/GetGauge/GetHistogram literals in src/ and
                   bench/ vs METRICS.md (tests may use scratch names).
  header-name      HTTP header names used by the wire layer (src/net/,
                   src/scoop/) vs the header catalog in docs/PROTOCOL.md
                   — every header that crosses a socket is spec'd.
"""

import re

import common

SYNC_HEADER = "src/common/sync.h"
FAILPOINT_HEADER = "src/common/failpoint.h"

# --- extraction regexes -----------------------------------------------------

LOCKRANK_CONST_RE = re.compile(
    r"inline\s+constexpr\s+int\s+(k\w+)\s*=\s*(\d+)\s*;")
LOCKRANK_NS_RE = re.compile(r"namespace\s+lockrank\s*\{(.*?)\}", re.S)

# Mutex constructions: `Mutex mu_{"name", lockrank::kFoo}` (member
# brace-init), `Mutex g("name", lockrank::kFoo)` (globals), with the rank
# optional (unranked mutexes).
MUTEX_CTOR_RE = re.compile(
    r"\bMutex\s+\w+\s*[({]\s*\"([^\"]+)\"\s*(?:,\s*lockrank::(k\w+))?\s*[)}]")

SPAN_RE = re.compile(r"\bTraceSpan\s+(?:\w+\s*)?[({]\s*\"([^\"]+)\"")

FAILPOINT_CALL_RE = re.compile(
    r"\b(?:SCOOP_FAILPOINT|SCOOP_FAILPOINT_KEYED|FailpointCheck|"
    r"CheckData)\s*\(\s*\"([^\"]+)\"")
FAILPOINT_CATALOG_RE = re.compile(r"kFailpointSites\[\]\s*=\s*\{(.*?)\};",
                                  re.S)

METRIC_CALL_RE = re.compile(
    r"\bGet(?:Counter|Gauge|Histogram)\s*\(\s*"
    r"(?:StrFormat\s*\(\s*)?\"([^\"]+)\"")
METRIC_CATALOG_ROW_RE = re.compile(r"^\|\s*`([^`]+)`", re.M)
METRIC_SCAN_PREFIXES = ("src/", "bench/")
METRIC_EXEMPT = {"src/common/metrics.h", "src/common/metrics.cc"}
FAILPOINT_EXEMPT = {FAILPOINT_HEADER, "src/common/failpoint.cc"}

# DESIGN.md rank-table rows: | `name` | `kConst` (NN) | ... or
#                            | `name` | unranked      | ...
RANK_ROW_RE = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(?:`(k\w+)`\s*\((\d+)\)|unranked)\s*\|",
    re.M)

SPAN_CATALOG_HEADING = "Span catalog"
SPAN_ROW_RE = re.compile(r"^\|\s*`([^`]+)`", re.M)

# --- header-name ------------------------------------------------------------
# The wire layer: every file here either frames headers onto a socket or
# reads them off one, so any header name it touches must be in the
# docs/PROTOCOL.md header catalog.
HEADER_SCAN_PREFIXES = ("src/net/", "src/scoop/")
HEADER_CATALOG_HEADING = "Header catalog"
HEADER_ROW_RE = re.compile(r"^\|\s*`([^`]+)`", re.M)
# Literal header names at call sites: headers.Set("X-Foo", ...) etc.
HEADER_CALL_RE = re.compile(
    r"\b(?:headers|trailers)\s*(?:\.|->)\s*(?:Set|Get|Has|Remove)\s*\(\s*"
    r"\"([A-Za-z][A-Za-z0-9-]*)\"")
# Header-name constants: `kFooHeader[] = "X-Foo"` anywhere in src/, plus
# the kWire* framing names (wire.h). Value constants (kChunkedValue,
# kConnectionClose, ...) deliberately do not match.
HEADER_CONST_RE = re.compile(
    r"\b(k\w*Header|kWire[A-Z]\w*)\[\]\s*=\s*\"([A-Za-z][A-Za-z0-9-]*)\"")
# Prefix constants name header families: `kFooPrefix[] = "X-Foo-"`.
HEADER_PREFIX_CONST_RE = re.compile(
    r"\b(k\w*Prefix)\[\]\s*=\s*\"([A-Za-z][A-Za-z0-9-]*-)\"")


# --- catalog loaders --------------------------------------------------------

def load_lockrank_constants(sync_text):
    """{constant name: value} from the lockrank namespace, or None."""
    m = LOCKRANK_NS_RE.search(sync_text)
    if not m:
        return None
    return {name: int(value)
            for name, value in LOCKRANK_CONST_RE.findall(m.group(1))}


def load_design_ranks(design_text):
    """{mutex name: (constant or None, value or None)} from DESIGN.md."""
    rows = {}
    for name, const, value in RANK_ROW_RE.findall(design_text):
        rows[name] = (const or None, int(value) if value else None)
    return rows


def load_span_catalog(design_text):
    """Span names from the 'Span catalog' table section, or None."""
    idx = design_text.find(SPAN_CATALOG_HEADING)
    if idx < 0:
        return None
    # The table ends at the next heading (or EOF).
    section = design_text[idx:]
    next_heading = re.search(r"\n#{2,}\s", section)
    if next_heading:
        section = section[:next_heading.start()]
    names = set(SPAN_ROW_RE.findall(section))
    names.discard("name")  # header row, if backticked
    return names or None


def load_failpoint_sites(failpoint_text):
    m = FAILPOINT_CATALOG_RE.search(failpoint_text)
    if not m:
        return None
    return set(re.findall(r"\"([^\"]+)\"", m.group(1)))


def load_metric_catalog(metrics_md_text):
    return {name.replace("<N>", "%d")
            for name in METRIC_CATALOG_ROW_RE.findall(metrics_md_text)}


# --- the checks -------------------------------------------------------------

def check_lock_ranks(sources, design_text):
    findings = []
    by_path = {s.path: s for s in sources}
    sync = by_path.get(SYNC_HEADER)
    if sync is None:
        return [common.Finding(SYNC_HEADER, 1, "lock-rank",
                               "src/common/sync.h not found — nothing to "
                               "cross-check lock ranks against")]
    constants = load_lockrank_constants(sync.text)
    if constants is None:
        return [common.Finding(SYNC_HEADER, 1, "lock-rank",
                               "could not find `namespace lockrank` in "
                               "sync.h — the rank cross-check is blind")]
    design = load_design_ranks(design_text)
    if not design:
        return [common.Finding("DESIGN.md", 1, "lock-rank",
                               "no rank table rows found in DESIGN.md §3d "
                               "— the rank cross-check is blind")]

    # Pass 1: every Mutex construction in src/.
    constructed = {}  # mutex name -> (path, line, constant or None)
    for source in sources:
        if not source.path.startswith("src/") or source.path == SYNC_HEADER:
            continue
        for m in MUTEX_CTOR_RE.finditer(source.text):
            name, const = m.group(1), m.group(2)
            line = source.line_of(m.start())
            if name in constructed and constructed[name][2] != const:
                findings.append(common.Finding(
                    source.path, line, "lock-rank",
                    f"mutex \"{name}\" constructed with rank "
                    f"{const or 'unranked'} here but "
                    f"{constructed[name][2] or 'unranked'} at "
                    f"{constructed[name][0]}:{constructed[name][1]} — "
                    "one name, one rank"))
                continue
            constructed.setdefault(name, (source.path, line, const))
            if const is not None and const not in constants:
                findings.append(common.Finding(
                    source.path, line, "lock-rank",
                    f"rank constant lockrank::{const} is not defined in "
                    "src/common/sync.h"))

    # Pass 2: constructions vs the DESIGN.md table.
    for name, (path, line, const) in sorted(constructed.items()):
        if name not in design:
            findings.append(common.Finding(
                path, line, "lock-rank",
                f"mutex \"{name}\" has no row in the DESIGN.md §3d rank "
                "table — document what it guards and its rank"))
            continue
        doc_const, _ = design[name]
        if doc_const != const:
            findings.append(common.Finding(
                path, line, "lock-rank",
                f"mutex \"{name}\" is constructed with "
                f"{const or 'no rank'} but DESIGN.md documents "
                f"{doc_const or 'unranked'} — fix whichever is stale"))

    # Pass 3: the DESIGN.md table vs sync.h values and vs reality.
    for name, (const, value) in sorted(design.items()):
        if const is not None:
            if const not in constants:
                findings.append(common.Finding(
                    "DESIGN.md", 1, "lock-rank",
                    f"rank table row for \"{name}\" names `{const}`, "
                    "which src/common/sync.h does not define"))
            elif constants[const] != value:
                findings.append(common.Finding(
                    "DESIGN.md", 1, "lock-rank",
                    f"rank table says `{const}` is {value} but "
                    f"src/common/sync.h defines it as "
                    f"{constants[const]} — update the table"))
        if name not in constructed:
            findings.append(common.Finding(
                "DESIGN.md", 1, "lock-rank",
                f"rank table documents mutex \"{name}\" but no Mutex with "
                "that name is constructed anywhere in src/ — remove the "
                "stale row"))

    # Pass 4: every lockrank constant must be used by some construction.
    used = {const for (_, _, const) in constructed.values()
            if const is not None}
    for const in sorted(constants):
        if const not in used:
            findings.append(common.Finding(
                SYNC_HEADER, 1, "lock-rank",
                f"lockrank::{const} is defined but never used by any "
                "Mutex construction — delete it or rank the mutex it "
                "was meant for"))
    return findings


def check_span_names(sources, design_text):
    findings = []
    catalog = load_span_catalog(design_text)
    if catalog is None:
        return [common.Finding(
            "DESIGN.md", 1, "span-name",
            "no 'Span catalog' table found in DESIGN.md §3f — the span "
            "cross-check has nothing to validate against")]
    seen = set()
    for source in sources:
        if not (source.path.startswith("src/")
                or source.path.startswith("bench/")):
            continue
        for m in SPAN_RE.finditer(source.text):
            name = m.group(1)
            seen.add(name)
            if name not in catalog:
                findings.append(common.Finding(
                    source.path, source.line_of(m.start()), "span-name",
                    f"trace span \"{name}\" is not in the DESIGN.md span "
                    "catalog — add a row or fix the typo"))
    for name in sorted(catalog - seen):
        findings.append(common.Finding(
            "DESIGN.md", 1, "span-name",
            f"span catalog documents \"{name}\" but nothing in src/ or "
            "bench/ creates it — remove the stale row"))
    return findings


def check_failpoint_names(sources):
    findings = []
    by_path = {s.path: s for s in sources}
    header = by_path.get(FAILPOINT_HEADER)
    sites = load_failpoint_sites(header.text) if header else None
    if sites is None:
        return [common.Finding(
            FAILPOINT_HEADER, 1, "failpoint-name",
            "kFailpointSites catalog not found — the failpoint-name "
            "check has nothing to validate against")]
    for source in sources:
        if source.path in FAILPOINT_EXEMPT:
            continue
        for m in FAILPOINT_CALL_RE.finditer(source.text):
            name = m.group(1)
            if name not in sites:
                findings.append(common.Finding(
                    source.path, source.line_of(m.start()),
                    "failpoint-name",
                    f"failpoint \"{name}\" is not in kFailpointSites "
                    "(src/common/failpoint.h) — register the site or fix "
                    "the typo"))
    return findings


def check_metric_names(sources, metrics_md_text):
    findings = []
    catalog = load_metric_catalog(metrics_md_text)
    if not catalog:
        return [common.Finding(
            "METRICS.md", 1, "metric-name",
            "metrics catalog is empty or missing — the metric-name "
            "check has nothing to validate against")]
    for source in sources:
        if (not source.path.startswith(METRIC_SCAN_PREFIXES)
                or source.path in METRIC_EXEMPT):
            continue
        for m in METRIC_CALL_RE.finditer(source.text):
            name = m.group(1)
            if name not in catalog:
                findings.append(common.Finding(
                    source.path, source.line_of(m.start()), "metric-name",
                    f"metric \"{name}\" is not catalogued in METRICS.md — "
                    "add a row (per-instance names use <N> for the %d "
                    "slot) or fix the typo"))
    return findings


def load_header_catalog(protocol_text):
    """Header names from the 'Header catalog' table, or None. Rows whose
    name embeds `<` (e.g. `X-Storlet-Parameter-<key>`) are prefixes."""
    idx = protocol_text.find(HEADER_CATALOG_HEADING)
    if idx < 0:
        return None
    section = protocol_text[idx:]
    next_heading = re.search(r"\n#{2,}\s", section)
    if next_heading:
        section = section[:next_heading.start()]
    exact, prefixes = {}, {}  # lowercased -> as written in the doc
    for name in HEADER_ROW_RE.findall(section):
        cut = name.find("<")
        if cut >= 0:
            prefixes[name[:cut].lower()] = name
        else:
            exact[name.lower()] = name
    if not exact and not prefixes:
        return None
    return exact, prefixes


def _catalog_has(catalog, name):
    exact, prefixes = catalog
    lowered = name.lower()
    return lowered in exact or any(lowered.startswith(p) for p in prefixes)


def check_header_names(sources, protocol_text):
    findings = []
    catalog = load_header_catalog(protocol_text)
    if catalog is None:
        return [common.Finding(
            "docs/PROTOCOL.md", 1, "header-name",
            "no 'Header catalog' table found in docs/PROTOCOL.md — the "
            "wire-header cross-check has nothing to validate against")]

    # Pass 1: collect header-name constants tree-wide (the wire layer
    # references constants that live next to the feature that owns them,
    # e.g. kBackendDeviceHeader in objectstore/), and every literal call
    # site anywhere, for the stale-row pass.
    constants = {}    # constant identifier -> (value, path, line)
    used_anywhere = set()
    for source in sources:
        for m in HEADER_CONST_RE.finditer(source.text):
            constants[m.group(1)] = (m.group(2), source.path,
                                     source.line_of(m.start()))
            used_anywhere.add(m.group(2))
        for m in HEADER_PREFIX_CONST_RE.finditer(source.text):
            constants[m.group(1)] = (m.group(2), source.path,
                                     source.line_of(m.start()))
            used_anywhere.add(m.group(2))
        for m in HEADER_CALL_RE.finditer(source.text):
            used_anywhere.add(m.group(1))

    # Pass 2: names the wire layer touches — literals at call sites plus
    # referenced header constants — must all be in the catalog.
    flagged = set()
    for source in sources:
        if not source.path.startswith(HEADER_SCAN_PREFIXES):
            continue
        for m in HEADER_CALL_RE.finditer(source.text):
            name = m.group(1)
            if not _catalog_has(catalog, name) and name not in flagged:
                flagged.add(name)
                findings.append(common.Finding(
                    source.path, source.line_of(m.start()), "header-name",
                    f"header \"{name}\" crosses the wire here but has no "
                    "row in the docs/PROTOCOL.md header catalog — spec it "
                    "or fix the typo"))
        for const, (value, _, def_line) in constants.items():
            if const not in source.structure_text:
                continue
            if re.search(r"\b" + re.escape(const) + r"\b",
                         source.structure_text) is None:
                continue
            if not _catalog_has(catalog, value) and value not in flagged:
                flagged.add(value)
                line = def_line if source.path == constants[const][1] \
                    else source.line_of(
                        source.structure_text.find(const),
                        source.structure_text)
                findings.append(common.Finding(
                    source.path, line, "header-name",
                    f"header \"{value}\" ({const}) crosses the wire here "
                    "but has no row in the docs/PROTOCOL.md header "
                    "catalog — spec it or fix the typo"))

    # Pass 3: catalog rows must correspond to a header the code actually
    # uses somewhere (call-site literal or named constant).
    exact, prefixes = catalog
    for lowered, name in sorted(exact.items()):
        if not any(u.lower() == lowered for u in used_anywhere):
            findings.append(common.Finding(
                "docs/PROTOCOL.md", 1, "header-name",
                f"header catalog documents \"{name}\" but nothing in the "
                "scanned tree sets or reads it — remove the stale row"))
    for lowered, name in sorted(prefixes.items()):
        if not any(u.lower().startswith(lowered) for u in used_anywhere):
            findings.append(common.Finding(
                "docs/PROTOCOL.md", 1, "header-name",
                f"header catalog documents the \"{name}\" family but "
                "nothing in the scanned tree uses that prefix — remove "
                "the stale row"))
    return findings


def check(sources, design_text, metrics_md_text, protocol_text=""):
    findings = []
    findings.extend(check_lock_ranks(sources, design_text))
    findings.extend(check_span_names(sources, design_text))
    findings.extend(check_failpoint_names(sources))
    findings.extend(check_metric_names(sources, metrics_md_text))
    findings.extend(check_header_names(sources, protocol_text))
    return findings
