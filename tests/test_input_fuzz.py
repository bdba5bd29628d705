"""coverage, plan and analyze on mutated inputs: exit 0, 2 or 3, never a traceback.

Each example takes the fixture inputs and mutates one of them: values of
probes.json, one line of traceroutes.ndjson (its values, or the whole line)
or fields of one CSV table. It then runs one command in-process over every
country. Every input is read and checked before anything is written, so on
exit 2 the output directory holds nothing, and no run leaves a .tmp file.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyeball_jedi.cli import EXIT_INPUT, EXIT_NO_DATA, EXIT_OK, main
from mutations import mutate, mutations

FIXTURES = Path(__file__).parent / "fixtures"
INPUTS = {
    "population": "population.csv",
    "country_users": "country_users.csv",
    "capitals": "capitals.csv",
    "probes": "probes.json",
    "traceroutes": "traceroutes.ndjson",
    "prefix2as": "prefix2as.csv",
    "geo": "geo.csv",
}
TEXT = {name: (FIXTURES / name).read_text(encoding="utf-8") for name in INPUTS.values()}
PROBES = json.loads(TEXT["probes.json"])
RUNS = [json.loads(line) for line in TEXT["traceroutes.ndjson"].splitlines()]
CSVS = sorted(name for name in TEXT if name.endswith(".csv"))

#: CSV field values near the edges of what the parsers accept
FIELD = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ["", "-1", "0", "100.5", "nan", "inf", "1e400", "4294967296", "65001", "XX", "??",
         "0.0.0.0/0", "20.1.0.0/33", "::/0", "91", "-180.5", "1" * 5000]
    ),
)


@st.composite
def mutated_input(draw):
    """(file name, mutated text) for one of the inputs."""
    name = draw(st.sampled_from(["probes.json", "traceroutes.ndjson", *CSVS]))
    if name == "probes.json":
        return name, mutate(PROBES, draw(mutations(PROBES)), indent=2)
    if name == "traceroutes.ndjson":
        lines = [json.dumps(run) for run in RUNS]
        index = draw(st.integers(0, len(lines) - 1))
        run = RUNS[index]
        mutated = mutations(run).map(lambda changes: mutate(run, changes))
        lines[index] = draw(st.one_of(st.text(max_size=20), mutated))
        return name, "\n".join(lines) + "\n"
    rows = [line.split(",") for line in TEXT[name].splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(FIELD)
    return name, "\n".join(",".join(row) for row in rows) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("input_fuzz")
    conf = root / "run.conf"
    entries = [f"{key} = {name}" for key, name in INPUTS.items()] + ["out_dir = out"]
    conf.write_text("\n".join(entries) + "\n", encoding="utf-8")
    return root, conf


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=st.sampled_from(["coverage", "plan", "analyze"]), changed=mutated_input())
def test_commands_never_raise_on_a_mutated_input(workdir, command, changed):
    root, conf = workdir
    out_dir = root / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    for name, text in TEXT.items():
        (root / name).write_text(changed[1] if name == changed[0] else text, encoding="utf-8")
    code = main([command, "--config", str(conf), "--all"])
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NO_DATA)
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
    assert not [name for name in written if name.endswith(".tmp")]
    if code == EXIT_INPUT:
        assert written == []
