"""Layering lint: the data plane stays in repro.io + backend adapters,
and observability internals stay behind the repro.obs facade.

AST-walks every module under ``src/repro`` and fails if code outside the
allowlisted layers imports guarded internals:

- **storage**: OST/OSS/MDS transfer machinery, DataNode streams, the
  raw fan-out primitive. New backends go through
  :class:`repro.io.protocol.StorageClient` and the
  :class:`repro.io.planner.ReadPlanner` — not a fourth private copy of
  the read path.
- **obs**: the columnar recording core (``repro.obs.columnar``).
  Instrumented packages record through the :class:`repro.obs.Tracer` /
  metrics facade; only the obs package itself touches the storage
  layout.

It also keeps ``src/repro`` free of frozen ``_legacy.py`` copies: a
retired implementation leaves a recorded digest under ``tests/golden/``
(or a naive oracle in ``tests/oracles.py``), not a second copy of the
code.

CI runs this as part of the test suite.
"""

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent

#: each rule: packages allowed to touch the internals, the internal
#: modules, and internal names that must not be imported from repro
#: packages elsewhere (wherever they are re-exported from)
RULES = (
    {
        "label": "storage internals",
        # the unified data plane, the two backend packages
        # (adapters + servers), and the DES substrate that defines
        # the primitives
        "allowed": ("repro.io", "repro.pfs", "repro.hdfs", "repro.sim"),
        "modules": {
            "repro.pfs.server",
            "repro.hdfs.datanode",
            "repro.sim.pipeline",
        },
        "names": {"OST", "OSS", "MDS", "DataNode", "bounded_fanout"},
    },
    {
        "label": "obs internals",
        "allowed": ("repro.obs",),
        "modules": {"repro.obs.columnar"},
        "names": {"ColumnarLog"},
    },
    {
        "label": "sparklike storage isolation",
        # the lazy engine reaches storage only through the repro.io
        # plane (registry/planner) and runtime accessors — never the
        # backend packages or repro.core directly
        "applies": ("repro.sparklike",),
        "banned_prefixes": ("repro.hdfs", "repro.pfs", "repro.core"),
    },
    {
        "label": "rlang storage isolation",
        # the SQL planner/session reach storage only through the
        # repro.io plane (registry/clients) — never the backend
        # packages or repro.core directly, so scan accounting cannot
        # fork a private read path
        "applies": ("repro.rlang",),
        "banned_prefixes": ("repro.hdfs", "repro.pfs", "repro.core"),
    },
    {
        "label": "campaign workspace internals",
        # the workspace layout (statepoint.json / result.json /
        # provenance files) is the campaign engine's private contract;
        # everything else goes through the repro.campaign facade (the
        # benchmark harness, outside src, drives it the same way)
        "allowed": ("repro.campaign",),
        "modules": {"repro.campaign.workspace"},
        "names": {"Workspace", "PointRecord", "code_fingerprint"},
    },
    {
        "label": "campaign process isolation",
        # the campaign driver ships plain parameters across the process
        # boundary — it must never hold simulation objects itself, so
        # no Environment/node/client can leak into a pickled state
        # point; workers (repro.bench.campaigns) build their own world
        "applies": ("repro.campaign",),
        "banned_prefixes": ("repro.sim", "repro.hdfs", "repro.pfs",
                            "repro.core", "repro.mapreduce"),
    },
)

#: the packages that keep a frozen ``_legacy.py``: none. A frozen copy
#: of production code is a fork — its outputs are recorded once under
#: ``tests/golden/`` and the copy is deleted; a naive reference
#: arithmetic lives in ``tests/oracles.py``.
LEGACY_REFERENCES: set[str] = set()


def _in_prefixes(module: str, prefixes) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in prefixes)


def module_name(path: Path) -> str:
    rel = path.relative_to(SRC_ROOT.parent)
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def violations_in(path: Path) -> list[str]:
    return violations_in_source(module_name(path), path.read_text())


def _rule_active(rule: dict, module: str) -> bool:
    if "applies" in rule:
        # scoped rule: constrains imports *made by* a package
        return module.startswith(rule["applies"])
    # allowlist rule: constrains who may import the internals
    return not module.startswith(rule["allowed"])


def violations_in_source(module: str, source: str) -> list[str]:
    rules = [rule for rule in RULES if _rule_active(rule, module)]
    if not rules:
        return []
    tree = ast.parse(source, filename=module)
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                for rule in rules:
                    if alias.name in rule.get("modules", ()):
                        problems.append(
                            f"{module}:{node.lineno}: imports internal "
                            f"module {alias.name} ({rule['label']})")
                    elif _in_prefixes(alias.name,
                                      rule.get("banned_prefixes", ())):
                        problems.append(
                            f"{module}:{node.lineno}: imports "
                            f"{alias.name} ({rule['label']})")
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or not node.module.startswith("repro"):
                continue
            for rule in rules:
                if node.module in rule.get("modules", ()):
                    problems.append(
                        f"{module}:{node.lineno}: imports from internal "
                        f"module {node.module} ({rule['label']})")
                    continue
                if _in_prefixes(node.module,
                                rule.get("banned_prefixes", ())):
                    problems.append(
                        f"{module}:{node.lineno}: imports from "
                        f"{node.module} ({rule['label']})")
                    continue
                for alias in node.names:
                    if alias.name in rule.get("names", ()):
                        problems.append(
                            f"{module}:{node.lineno}: imports internal "
                            f"name {alias.name!r} from {node.module} "
                            f"({rule['label']})")
    return problems


def test_no_guarded_internals_outside_their_layer():
    problems = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        problems.extend(violations_in(path))
    assert not problems, (
        "guarded internals reached from outside their layer; route "
        "through StorageClient / ReadPlanner / the repro.obs facade "
        "instead:\n" + "\n".join(problems))


def test_lint_catches_violations():
    """The lint itself works: synthetic offenders are flagged."""
    assert violations_in_source(
        "repro.core.offender", "from repro.pfs.server import OST\n")
    assert violations_in_source(
        "repro.mapreduce.offender", "import repro.hdfs.datanode\n")
    assert violations_in_source(
        "repro.sparklike.offender",
        "from repro.sim import bounded_fanout\n")
    assert not violations_in_source(
        "repro.core.fine", "from repro.io import ReadPlanner\n")


def test_lint_catches_obs_violations():
    """Seeded offenders against the obs rule are flagged, and the
    legitimate consumers are not."""
    # instrumented packages must not reach into the columnar core
    assert violations_in_source(
        "repro.mapreduce.offender",
        "from repro.obs.columnar import ColumnarLog\n")
    assert violations_in_source(
        "repro.io.offender", "import repro.obs.columnar\n")
    # ...from the bench harness either, or through a facade re-export
    assert violations_in_source(
        "repro.bench.offender",
        "from repro.obs.columnar import ColumnarLog\n")
    assert violations_in_source(
        "repro.core.offender", "from repro.obs import ColumnarLog\n")
    # the facade is the supported surface
    assert not violations_in_source(
        "repro.mapreduce.fine",
        "from repro.obs import Tracer, metrics_of\n")
    # obs itself is allowlisted
    assert not violations_in_source(
        "repro.obs.trace",
        "from repro.obs.columnar import ColumnarLog\n")


def test_lint_sparklike_storage_isolation():
    """The lazy engine reaches storage only through repro.io: direct
    backend/core imports from inside repro.sparklike are flagged."""
    assert violations_in_source(
        "repro.sparklike.scheduler", "import repro.hdfs\n")
    assert violations_in_source(
        "repro.sparklike.context",
        "from repro.hdfs.client import HDFSClient\n")
    assert violations_in_source(
        "repro.sparklike.rdd", "from repro.pfs import PFS\n")
    assert violations_in_source(
        "repro.sparklike.context",
        "from repro.core.reader import PFSReader\n")
    # the sanctioned surfaces are fine
    assert not violations_in_source(
        "repro.sparklike.context",
        "from repro.io.registry import StorageRegistry\n")
    assert not violations_in_source(
        "repro.sparklike.scheduler",
        "from repro.mapreduce.task import MapOutputFeed\n"
        "from repro.sim import FanoutWindow\n")
    # the rule constrains sparklike only, not other engines
    assert not violations_in_source(
        "repro.mapreduce.runtime", "from repro.hdfs import HDFS\n")


def test_lint_rlang_storage_isolation():
    """The SQL layer reaches storage only through repro.io: direct
    backend/core imports from inside repro.rlang are flagged."""
    assert violations_in_source(
        "repro.rlang.session", "from repro.pfs.client import PFSClient\n")
    assert violations_in_source(
        "repro.rlang.session", "import repro.hdfs\n")
    assert violations_in_source(
        "repro.rlang.session",
        "from repro.core.reader import PFSReader\n")
    # the sanctioned surfaces are fine
    assert not violations_in_source(
        "repro.rlang.session",
        "from repro.io.registry import StorageRegistry\n"
        "from repro.formats.container import read_header\n"
        "from repro.obs.trace import tracer_of\n")
    # the rule constrains rlang only
    assert not violations_in_source(
        "repro.workloads.pipeline", "from repro.core import SciDP\n")


def test_lint_campaign_workspace_quarantined():
    """Only the campaign package may touch the workspace layout; other
    layers go through the repro.campaign facade."""
    assert violations_in_source(
        "repro.bench.offender",
        "from repro.campaign.workspace import Workspace\n")
    assert violations_in_source(
        "repro.obs.offender", "import repro.campaign.workspace\n")
    assert violations_in_source(
        "repro.io.offender",
        "from repro.campaign import code_fingerprint\n")
    # the campaign package itself owns the layout
    assert not violations_in_source(
        "repro.campaign.runner",
        "from repro.campaign.workspace import Workspace\n")


def test_lint_campaign_process_isolation():
    """The campaign driver must stay free of simulation layers — a
    captured Environment cannot cross the process boundary."""
    assert violations_in_source(
        "repro.campaign.runner",
        "from repro.sim.engine import Environment\n")
    assert violations_in_source(
        "repro.campaign.registry", "import repro.hdfs\n")
    assert violations_in_source(
        "repro.campaign.aggregate",
        "from repro.core import SciDP\n")
    # the sanctioned surfaces: reporting and the worker module, which
    # lives in repro.bench and builds worlds inside the child process
    assert not violations_in_source(
        "repro.campaign.aggregate",
        "from repro.bench.reporting import format_table\n")
    assert not violations_in_source(
        "repro.bench.campaigns",
        "from repro.sim.engine import Environment\n")


def frozen_twins(root: Path) -> set[str]:
    return {path.parent.name for path in root.rglob("_legacy.py")}


def test_legacy_twins_are_exactly_the_reference_modules(tmp_path):
    """Ratchet: no frozen twin may come back."""
    assert frozen_twins(SRC_ROOT) == LEGACY_REFERENCES == set()
    # the ratchet itself works: a seeded twin, however deep, is found
    seeded = tmp_path / "repro" / "sim" / "kernels" / "_legacy.py"
    seeded.parent.mkdir(parents=True)
    seeded.write_text("class LegacyEnvironment: ...\n")
    assert frozen_twins(tmp_path) == {"kernels"}
