"""Save or check a golden copy of the lab's deterministic outputs.

    PYTHONPATH=src python tests/golden.py save DIR
    PYTHONPATH=src python tests/golden.py check DIR
    PYTHONPATH=src python tests/golden.py check --against REV

`save` writes into DIR:

  - one CSV per `ACCEPTANCE_CONFIGS` entry of `test_acceptance.py`, and
    `e5.csv` for the criterion-9 `E5_DETERMINISM_CONFIG`;
  - the JSON summary of each of those configs (`<name>.json`), with the
    wall-clock `runtime_seconds` entry removed;
  - `fit_all.txt`: the `repr` of every raw constant and every
    (exact, bound) pair of `calibration.fit_all(CALIBRATION_SEED, 60)`;
  - `stability.txt`: the `repr` of every refit of
    `calibration.stability_report()`;
  - `nets.txt`: for each of criterion 8's 50 point sets (`net_checks` in
    `test_acceptance.py`), one line with its label, eps, the number of
    centers of `nets.greedy_net` and the SHA-256 of the net's bytes.

`check` recomputes the same files, names each one that differs from the
copy in DIR (or is missing there) with its first differing line (the line
number, the saved text and the new text), and exits 1 if any does. Save a
copy before a change that should not alter results, and check after it.

`check --against REV` makes that copy itself: it extracts the `src` of git
revision REV of this repository into a temporary directory (`git archive REV
src | tar -x`, no network), runs this script's `save` there in a subprocess
with `PYTHONPATH=<tmpdir>/src` (so REV's package, but this tree's `tests/`
for the configs), and then checks the working tree against that copy. An
unknown REV exits 2, like a malformed command line.

The script is not a test module, so pytest does not collect it; a full pass
takes about 40 s on two cores, and `check --against` makes two.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

from rmlab import calibration, constants
from rmlab.experiments import emit, run
from rmlab.nets import greedy_net
from test_acceptance import ACCEPTANCE_CONFIGS, E5_DETERMINISM_CONFIG, net_checks


def _fit_all_text() -> str:
    lines = []
    for bound, report in calibration.fit_all(constants.CALIBRATION_SEED, 60).items():
        lines.append(f"{bound} raw={report.raw!r}")
        lines.extend(f"  {(res.exact, res.bound_value)!r}" for res in report.results)
    return "\n".join(lines) + "\n"


def _stability_text() -> str:
    report = calibration.stability_report()
    return "".join(f"{bound} refits={v['refits']!r}\n" for bound, v in report.items())


def _nets_text() -> str:
    lines = []
    for label, pts, eps, _ in net_checks():
        net = greedy_net(pts, metric="l2", eps=eps)
        digest = hashlib.sha256(net.tobytes()).hexdigest()
        lines.append(f"{label} eps={eps!r} centers={net.shape[0]} sha256={digest}")
    return "\n".join(lines) + "\n"


def _first_difference(saved: str, new: str) -> str:
    """The first line where saved and new differ: its number and both texts."""
    pairs = zip_longest(saved.splitlines(), new.splitlines(), fillvalue="<end of file>")
    for number, (old, now) in enumerate(pairs, start=1):
        if old != now:
            return f"  line {number}:\n    saved: {old}\n    new:   {now}"
    return "  the files differ only in their line breaks"


def outputs():
    """Yield (file name, text) for every output in the golden copy."""
    configs = {**ACCEPTANCE_CONFIGS, "e5": E5_DETERMINISM_CONFIG}
    for name, cfg in configs.items():
        result = run(cfg)
        yield f"{name}.csv", emit(result, format="csv")
        summary = {k: v for k, v in result.summary.items() if k != "runtime_seconds"}
        yield f"{name}.json", emit(replace(result, summary=summary), format="json")
    yield "fit_all.txt", _fit_all_text()
    yield "stability.txt", _stability_text()
    yield "nets.txt", _nets_text()


def _compare(mode: str, root: Path) -> int:
    """Save every output into root, or check each against its copy there."""
    if mode == "save":
        root.mkdir(parents=True, exist_ok=True)
    differ = []
    for name, text in outputs():
        path = root / name
        if mode == "save":
            path.write_bytes(text.encode())
            print(f"saved {path}")
        elif not path.is_file() or path.read_bytes() != text.encode():
            differ.append(name)
            print(f"DIFFERS {name}")
            print(_first_difference(path.read_bytes().decode() if path.is_file() else "", text))
        else:
            print(f"identical {name}")
    if mode == "check":
        print(f"{len(differ)} of the golden files differ" if differ else "all golden files identical")
    return 1 if differ else 0


def _save_at(rev: str, tmp: Path) -> Path | None:
    """Save the golden copy of revision rev's package under tmp and return
    its directory, or None when git cannot archive rev."""
    archive = subprocess.run(
        ["git", "-C", str(Path(__file__).resolve().parents[1]), "archive", rev, "src"], capture_output=True
    )
    if archive.returncode:
        print(archive.stderr.decode(), end="", file=sys.stderr)
        return None
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive.stdout, check=True)
    path = os.pathsep.join(filter(None, [str(tmp / "src"), os.environ.get("PYTHONPATH")]))
    golden = tmp / "golden"
    subprocess.run(
        [sys.executable, __file__, "save", str(golden)], env={**os.environ, "PYTHONPATH": path}, check=True
    )
    return golden


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[:2] == ["check", "--against"]:
        with tempfile.TemporaryDirectory() as tmp:
            golden = _save_at(argv[2], Path(tmp))
            return 2 if golden is None else _compare("check", golden)
    if len(argv) != 2 or argv[0] not in ("save", "check"):
        print(__doc__, file=sys.stderr)
        return 2
    return _compare(argv[0], Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
