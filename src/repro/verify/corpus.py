"""The golden corpus: shrunk counterexamples, persisted and replayed.

Every failure the fuzzer finds is shrunk and written here as one JSON
document — the scenario itself plus the disagreement summaries observed at
capture time.  CI replays the corpus through the current harness on every
run (``repro verify``, ``repro multicast`` and
``tests/verify/test_corpus.py``), so a fixed bug stays fixed: the minimal
scenario that once exposed it is checked forever after.

One format serves both scenario kinds.  File naming is content-addressed
over the canonical scenario document — ``case-<sha1 prefix>.json`` for a
unicast :class:`~repro.verify.scenarios.Scenario`, ``mcase-<sha1
prefix>.json`` for a :class:`~repro.multicast.verify.MulticastScenario` —
so re-finding the same minimal counterexample is idempotent and corpus
diffs are meaningful in review.  :func:`load_case` picks the scenario
type from the document's ``multicast`` flag; each kind keeps its own
directory (``tests/verify/corpus``, ``tests/multicast/corpus``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.verify.scenarios import Scenario, scenario_from_dict, scenario_to_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.harness import ScenarioReport

__all__ = [
    "CorpusCase",
    "case_filename",
    "save_case",
    "load_case",
    "iter_corpus",
    "replay_corpus",
]

#: Default corpus location, relative to the repository root (the corpus is
#: test data, versioned next to the suite that replays it).
DEFAULT_CORPUS_DIR = Path("tests") / "verify" / "corpus"


@dataclass(frozen=True)
class CorpusCase:
    """One persisted counterexample (either scenario kind)."""

    scenario: Any  # Scenario | MulticastScenario
    disagreements: tuple[str, ...]
    path: Path | None = None

    @property
    def name(self) -> str:
        return self.path.name if self.path is not None else "<unsaved>"


def _kind(multicast: bool) -> tuple[str, Callable, Callable]:
    """``(file prefix, to_dict, from_dict)`` for one scenario kind."""
    if not multicast:
        return "case-", scenario_to_dict, scenario_from_dict
    # Imported lazily: repro.multicast.verify builds on this package.
    from repro.multicast.verify import (
        multicast_scenario_from_dict,
        multicast_scenario_to_dict,
    )

    return "mcase-", multicast_scenario_to_dict, multicast_scenario_from_dict


def _document(scenario) -> tuple[str, dict[str, Any]]:
    prefix, to_dict, _ = _kind(not isinstance(scenario, Scenario))
    return prefix, to_dict(scenario)


def case_filename(scenario) -> str:
    """Content-addressed filename for *scenario*."""
    prefix, document = _document(scenario)
    canonical = json.dumps(document, sort_keys=True)
    return f"{prefix}{hashlib.sha1(canonical.encode()).hexdigest()[:12]}.json"


def save_case(
    directory: Path | str,
    scenario,
    disagreements: Iterable[str] = (),
) -> Path:
    """Write *scenario* (plus capture-time disagreement summaries) to
    *directory*, creating it if needed.  Returns the file path; saving the
    same scenario twice overwrites the same file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _, document = _document(scenario)
    document["disagreements"] = list(disagreements)
    path = directory / case_filename(scenario)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: Path | str) -> CorpusCase:
    """Parse one corpus file of either kind."""
    path = Path(path)
    document = json.loads(path.read_text())
    _, _, from_dict = _kind(bool(document.get("multicast")))
    return CorpusCase(
        scenario=from_dict(document),
        disagreements=tuple(document.get("disagreements", ())),
        path=path,
    )


def iter_corpus(directory: Path | str) -> list[CorpusCase]:
    """Load every case of both kinds in *directory*, sorted by filename.

    A missing directory is an empty corpus, not an error.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    paths = [*directory.glob("case-*.json"), *directory.glob("mcase-*.json")]
    return [load_case(path) for path in sorted(paths)]


def replay_corpus(
    directory: Path | str, harness
) -> list[tuple[CorpusCase, "ScenarioReport"]]:
    """Run every case of *harness*'s kind in *directory* through it;
    returns (case, report) pairs."""
    return [
        (case, harness.run(case.scenario))
        for case in iter_corpus(directory)
        if isinstance(case.scenario, harness.scenario_type)
    ]
