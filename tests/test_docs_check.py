"""Docs stay true: links resolve, the metric catalogue matches the code.

The observability docs are an API surface — scripts grep metric names out
of them — so this gate diffs the prose against the registry instead of
trusting review to catch drift.
"""

import re
from pathlib import Path

import pytest

from repro.core.config import RuntimeConfig
from repro.core.runtime import HostRuntime
from repro.obs import CATALOG, PHASES
from repro.sim import CATEGORIES
from repro.uvm import PAGING_BACKENDS
from repro.workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
OBSERVABILITY = REPO / "docs" / "OBSERVABILITY.md"
WORKLOADS_MD = REPO / "docs" / "WORKLOADS.md"
API_MD = REPO / "docs" / "API.md"

_MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)]*)?\)")
_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_TABLE_KEY_RE = re.compile(r"^\| `([a-z0-9_-]+)`", re.MULTILINE)
#: A table row naming a method (``name(...)``) or an attribute.
_MEMBER_ROW_RE = re.compile(r"^\| `([a-z_]+)[(`]", re.MULTILINE)


def _section(text: str, heading: str) -> str:
    """The body of one markdown section, up to the next same-level head."""
    level = heading.split(" ", 1)[0] + " "
    start = text.index(heading)
    end = text.find("\n" + level, start + len(heading))
    return text[start:end if end != -1 else len(text)]


def _markdown_files():
    docs = sorted(REPO.glob("*.md")) + sorted((REPO / "docs").glob("*.md"))
    return [p for p in docs if p.is_file()]


@pytest.mark.parametrize("path", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO)))
def test_relative_links_resolve(path):
    """Every relative markdown link points at an existing file."""
    for target in _MD_LINK_RE.findall(path.read_text(encoding="utf-8")):
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{path.name}: broken link -> {target}"


def test_observability_documents_every_metric():
    """docs/OBSERVABILITY.md names each CATALOG metric, and no ghosts."""
    text = OBSERVABILITY.read_text(encoding="utf-8")
    documented = set(re.findall(r"`(grout_[a-z0-9_]+)`", text))
    registered = {spec.name for spec in CATALOG}
    assert registered - documented == set(), "undocumented metrics"
    assert documented - registered == set(), "docs mention ghost metrics"


def test_observability_documents_every_phase_and_category():
    """Phase names and span categories in the docs match the code."""
    text = OBSERVABILITY.read_text(encoding="utf-8")
    for phase in PHASES:
        assert f"`{phase}`" in text, f"phase {phase} undocumented"
    for category in CATEGORIES:
        assert f"`{category}`" in text, f"category {category} undocumented"


def test_workloads_handbook_catalogues_every_workload():
    """The WORKLOADS.md catalogue rows match the registry, no ghosts."""
    catalogue = _section(WORKLOADS_MD.read_text(encoding="utf-8"),
                         "## Catalogue")
    documented = set(_TABLE_KEY_RE.findall(catalogue))
    registered = set(WORKLOADS)
    assert registered - documented == set(), "uncatalogued workloads"
    assert documented - registered == set(), "catalogue lists ghosts"


def test_workloads_handbook_details_every_workload():
    """Every registry key has its own `### name — ...` detail section."""
    text = WORKLOADS_MD.read_text(encoding="utf-8")
    for name in WORKLOADS:
        assert re.search(rf"^### `{name}`", text, re.MULTILINE), \
            f"no detail section for workload {name!r}"


def test_api_documents_every_backend():
    """The API.md paging-backend table matches PAGING_BACKENDS exactly."""
    section = _section(API_MD.read_text(encoding="utf-8"),
                       "### Paging backends")
    documented = set(_TABLE_KEY_RE.findall(section))
    registered = set(PAGING_BACKENDS)
    assert registered - documented == set(), "undocumented backends"
    assert documented - registered == set(), "docs mention ghost backends"


def test_api_documents_every_config_field():
    """The API.md RuntimeConfig table has one row per field, no ghosts."""
    section = _section(API_MD.read_text(encoding="utf-8"),
                       "### RuntimeConfig — one record of every "
                       "construction knob")
    rows = _TABLE_KEY_RE.findall(section)
    fields = set(RuntimeConfig.field_names())
    assert len(rows) == len(set(rows)), "a field documented twice"
    assert fields - set(rows) == set(), "undocumented config fields"
    assert set(rows) - fields == set(), "docs mention ghost config fields"


def test_api_documents_the_host_api():
    """The API.md runtime table has one row per public member of the
    host API both runtimes share: none undocumented, no ghost, no
    duplicate."""
    section = _section(API_MD.read_text(encoding="utf-8"),
                       "### Runtimes — one host API")
    rows = _MEMBER_ROW_RE.findall(section)
    members = {name for name in (*vars(HostRuntime),
                                 *HostRuntime.__annotations__)
               if not name.startswith("_")}
    assert len(rows) == len(set(rows)), "a member documented twice"
    assert members - set(rows) == set(), "undocumented host-API members"
    assert set(rows) - members == set(), "docs mention ghost members"


def test_api_names_every_workload():
    """API.md's workload section names each registry key."""
    section = _section(API_MD.read_text(encoding="utf-8"),
                       "## Workloads — `repro.workloads`")
    for name in WORKLOADS:
        assert f"`{name}`" in section, f"workload {name} not in API.md"


def test_handbook_names_every_backend():
    """WORKLOADS.md's sensitivity section covers each backend by name."""
    text = WORKLOADS_MD.read_text(encoding="utf-8")
    for name in PAGING_BACKENDS:
        assert f"`{name}`" in text, f"backend {name} not in WORKLOADS.md"


@pytest.mark.parametrize("path", _markdown_files(),
                         ids=lambda p: str(p.relative_to(REPO)))
def test_python_fences_compile(path):
    """``python`` code fences in the docs are at least valid syntax."""
    for i, block in enumerate(_FENCE_RE.findall(
            path.read_text(encoding="utf-8"))):
        try:
            compile(block, f"{path.name}[fence {i}]", "exec")
        except SyntaxError as exc:  # pragma: no cover - failure path
            pytest.fail(f"{path.name} fence {i}: {exc}")
