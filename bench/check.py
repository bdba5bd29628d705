"""Output checks for one benchmark run, against the generator's design.

Nothing here reads the program's own modules: expected values come from
the world generator (expected.json), outputs are read back as files and as
the CLI's stdout lines.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

_ANALYZE = re.compile(r"^analyze: ([A-Z]{2}) (\d+) traceroutes matched$", re.M)
_PLAN = re.compile(r"^plan: ([A-Z]{2}) (\d+) tasks -> ", re.M)


def check_outputs(expected: dict, commands: list[list[str]], out_dir: Path, stdout: str, exit_codes: list[int]) -> list[str]:
    """Every way the run's outputs differ from the design, as messages."""
    problems = [f"{' '.join(cmd)} exited {rc}" for cmd, rc in zip(commands, exit_codes) if rc != 0]
    if len(exit_codes) != len(commands):
        problems.append(f"{len(exit_codes)} of {len(commands)} commands ran")
    verbs = {cmd[0] for cmd in commands}
    scope = countries_in_scope(expected, commands)
    if "analyze" in verbs:
        matched = {cc: int(n) for cc, n in _ANALYZE.findall(stdout)}
        want = {cc: expected["matched"][cc] for cc in scope}
        if matched != want:
            problems.append(f"matched traceroutes {_diff(matched, want)}")
        for cc in scope:
            problems += _check_matrix(cc, expected["cells"][cc], out_dir / f"matrix_{cc}.json")
    if "plan" in verbs:
        planned = {cc: int(n) for cc, n in _PLAN.findall(stdout)}
        want = {cc: expected["plan_tasks"][cc] for cc in scope}
        if planned != want:
            problems.append(f"plan tasks on stdout {_diff(planned, want)}")
        for cc in scope:
            path = out_dir / f"plan_{cc}.json"
            tasks = len(json.loads(path.read_text("utf-8"))["tasks"]) if path.is_file() else None
            if tasks != want[cc]:
                problems.append(f"{path.name}: {tasks} tasks, designed {want[cc]}")
    if "coverage" in verbs:
        reported = {p.stem.split("_", 1)[1] for p in out_dir.glob("coverage_??.json")}
        if reported != set(scope):
            problems.append(f"coverage files for {sorted(reported ^ set(scope))[:5]} differ from the design")
    if "render" in verbs:
        drawn = {p.stem for p in out_dir.glob("matrix_*.svg")}
        if drawn != {f"matrix_{cc}" for cc in scope}:
            problems.append(f"{len(drawn)} SVG files for {len(scope)} matrices")
    return problems


def countries_in_scope(expected: dict, commands: list[list[str]]) -> list[str]:
    """The one --country the commands name, else every generated country."""
    for cmd in commands:
        if "--country" in cmd:
            return [cmd[cmd.index("--country") + 1]]
    return list(expected["countries"])


def _check_matrix(cc: str, cells: dict, path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    got = {
        f"{c['src_asn']}>{c['dst_asn']}": [c["locality"], c["directness"]]
        for c in json.loads(path.read_text("utf-8"))["cells"]
    }
    if got.keys() != cells.keys():
        return [f"{path.name}: cell pairs differ from the design"]
    return [f"{path.name} {pair}: {got[pair]} != designed {want}" for pair, want in cells.items() if got[pair] != want]


def _diff(got: dict, want: dict) -> str:
    keys = sorted(set(got) | set(want))
    wrong = [f"{k}: {got.get(k)} != designed {want.get(k)}" for k in keys if got.get(k) != want.get(k)]
    return "; ".join(wrong[:5]) + (f" (+{len(wrong) - 5} more)" if len(wrong) > 5 else "")


def artifact_digest(out_dir: Path) -> str:
    """Hash of every artifact except run_<CC>.json, which carries a timestamp."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and not path.name.startswith("run_"):
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()
