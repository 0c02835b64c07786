"""Structure is identical: borders, chains, promotion classifications and
session schedules of a seeded corpus hash as pinned in
``structure_digests.json`` (see ``structure_digests.py``, which also
regenerates the file)."""

import json

import pytest
from structure_digests import JSON_PATH, digests


@pytest.fixture(scope="module")
def got():
    return digests()


@pytest.fixture(scope="module")
def pinned():
    with open(JSON_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", ["structure", "session"])
def test_digests_match_pinned(got, pinned, kind):
    assert got[kind].keys() == pinned[kind].keys()
    changed = [name for name, d in pinned[kind].items() if got[kind][name] != d]
    assert not changed, f"{len(changed)} {kind} digests changed: {changed[:10]}"
