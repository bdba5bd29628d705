"""render on mutated matrix files: exit 0 or 2, never a traceback, no stray SVG.

Each example takes the golden matrix_XX.json, changes a few of its values to
another JSON type, to a number that does not fit (1e400, NaN) or to an array
nested too deep for the decoder, or deletes keys, and runs the render command
in-process on the result.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings

from eyeball_jedi.cli import EXIT_INPUT, EXIT_OK, main
from mutations import mutate, mutations

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "matrix_XX.json"
DOC = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("render_fuzz")
    out_dir = root / "out"
    out_dir.mkdir()
    conf = root / "run.conf"
    conf.write_text(f"out_dir = {out_dir}\n", encoding="utf-8")
    return conf, out_dir


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(changes=mutations(DOC))
def test_render_never_raises_on_a_mutated_matrix(workdir, changes):
    conf, out_dir = workdir
    for stale in out_dir.iterdir():
        stale.unlink()
    (out_dir / "matrix_XX.json").write_text(mutate(DOC, changes, indent=2), encoding="utf-8")
    code = main(["render", "--config", str(conf), "--country", "XX"])
    assert code in (EXIT_OK, EXIT_INPUT)
    written = sorted(p.name for p in out_dir.iterdir())
    if code == EXIT_INPUT:
        assert written == ["matrix_XX.json"]
    else:
        assert written == ["matrix_XX.json", "matrix_XX.svg"]
