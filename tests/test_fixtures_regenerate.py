"""scripts/make_fixtures.py, run on a copy of the checkout, rewrites every
committed artifact byte for byte and writes no other file."""

import os
import shutil
import subprocess
import sys

from conftest import REPO_ROOT

ARTIFACT_DIRS = ("src/framelab/fixtures", "tests/data")
# the search verdicts pinned from an earlier version of the program, not written by the script
PINNED = "tests/data/perturb_verdicts.json"
# the files the script does not write: the two documents it reads, a placeholder, and PINNED
KEPT = {"src/framelab/fixtures/fix_a.json", "src/framelab/fixtures/fix_i.json",
        "src/framelab/fixtures/.gitkeep", PINNED}


def artifacts(root):
    """Relative path -> bytes of every file under the artifact directories."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for top in ARTIFACT_DIRS for path in (root / top).rglob("*") if path.is_file()}


def test_make_fixtures_regenerates_the_committed_artifacts(tmp_path):
    committed = artifacts(REPO_ROOT)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(REPO_ROOT / "scripts", tmp_path / "scripts", ignore=ignore)
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src", ignore=ignore)
    (tmp_path / PINNED).parent.mkdir(parents=True)
    shutil.copyfile(REPO_ROOT / PINNED, tmp_path / PINNED)
    # only KEPT stays, so a file the script no longer writes goes missing
    for rel in set(committed) - KEPT:
        (tmp_path / rel).unlink(missing_ok=True)
    subprocess.run([sys.executable, "scripts/make_fixtures.py"], cwd=tmp_path,
                   env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                   capture_output=True, check=True)
    regenerated = artifacts(tmp_path)
    assert sorted(regenerated) == sorted(committed)
    changed = [rel for rel in committed if regenerated[rel] != committed[rel]]
    assert not changed
