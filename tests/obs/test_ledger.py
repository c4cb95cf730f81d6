"""Ledger provenance: the git revision an entry records."""

import shutil
import subprocess

import pytest

from repro.obs.ledger import format_history, git_rev, make_entry

needs_git = pytest.mark.skipif(shutil.which("git") is None,
                               reason="git is not installed")


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture()
def repo(tmp_path, monkeypatch):
    """A one-commit git repository as the working directory."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("a\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "first")
    monkeypatch.chdir(tmp_path)
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                          check=True, capture_output=True, text=True)
    return tmp_path, head.stdout.strip()


@needs_git
class TestGitRev:
    def test_clean_tree_is_the_bare_hash(self, repo):
        _, head = repo
        assert git_rev() == head

    def test_untracked_files_do_not_count(self, repo):
        root, head = repo
        (root / "scratch.txt").write_text("x\n")
        assert git_rev() == head

    def test_modified_tracked_file_marks_dirty(self, repo):
        root, head = repo
        (root / "tracked.txt").write_text("b\n")
        assert git_rev() == head + "+dirty"

    def test_staged_change_marks_dirty(self, repo):
        root, head = repo
        (root / "new.txt").write_text("n\n")
        _git(root, "add", "new.txt")
        assert git_rev() == head + "+dirty"

    def test_entry_and_history_carry_the_mark(self, repo):
        root, head = repo
        (root / "tracked.txt").write_text("b\n")
        entry = make_entry({"backend": "omega"}, timestamp=0.0)
        assert entry["key"]["git"] == head + "+dirty"
        assert f" {head[:8]}+ " in format_history([entry])


def test_outside_a_repository_is_none(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert git_rev() is None


def test_missing_git_binary_is_none(monkeypatch):
    monkeypatch.setenv("PATH", "")
    assert git_rev() is None
