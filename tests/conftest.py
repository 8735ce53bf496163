import json
from pathlib import Path

import pytest

from idealgraphs.cli import parse_instance

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def corpus_instances():
    """Every corpus instance, parsed once per test session."""
    instances = {}
    for file in sorted(CORPUS_DIR.glob("*.json")):
        instances[file.stem] = parse_instance(json.loads(file.read_text()), file.stem)
    return instances


@pytest.fixture(scope="session")
def small_instances(corpus_instances):
    """Corpus instances whose carrier has at most sixteen elements."""
    return {
        name: inst for name, inst in corpus_instances.items() if inst.ring.size <= 16
    }
