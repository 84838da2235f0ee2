"""The engine reads one module at a time: a file's findings do not depend on
which other files are linted with it."""

from pathlib import Path

from repro.lint import analyze_file, iter_python_files, run_paths

FIXTURES = Path(__file__).parent / "fixtures"


def test_each_fixture_alone_matches_the_corpus_run():
    corpus = run_paths([FIXTURES])
    assert corpus
    for path in iter_python_files([FIXTURES]):
        alone = analyze_file(path)
        assert alone == [finding for finding in corpus if finding.path == str(path)], path
