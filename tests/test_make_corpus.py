"""``scripts/make_corpus.py`` rebuilds both bundled corpora bit for bit."""
import importlib.util
from pathlib import Path

from graphnvp.chem import bundled_corpus_path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_corpus.py"


def test_make_corpus_reproduces_bundled_corpora(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_corpus", SCRIPT)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    monkeypatch.setattr(make_corpus, "DATA_DIR", tmp_path)
    make_corpus.main()
    for name in ("qm9lite", "zinclite"):
        assert (tmp_path / f"{name}.smi").read_bytes() == bundled_corpus_path(name).read_bytes(), name
