"""Tier-1 guard: the statcheck suite stays clean on the repo itself.

This is the CI wiring the tentpole exists for — any new dimension
mixing, nondeterminism or unvalidated config field in the source tree
fails this test with the full diagnostic listing.
"""

from pathlib import Path

from repro.statcheck import check_paths, render_text

REPO = Path(__file__).resolve().parents[2]


def assert_clean(*relative):
    paths = [REPO / rel for rel in relative]
    assert all(p.exists() for p in paths), f"missing lint targets: {paths}"
    findings = check_paths(paths)
    assert not findings, "\n" + render_text(findings)


def test_source_tree_is_clean():
    assert_clean("src/repro")


def test_examples_are_clean():
    assert_clean("examples")
