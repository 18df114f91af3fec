"""Checks on the source tree itself, not on the package."""
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout",
)
def test_no_tracked_file_is_gitignored():
    # A tracked file that .gitignore matches is either a stale ignore rule or
    # a generated artifact that should not have been committed.
    proc = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
