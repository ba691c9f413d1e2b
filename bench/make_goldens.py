"""Write, or check, the benchmark's golden outputs.

The goldens are the seed commit's outputs for the fixed config pool (``report``
in text, json and csv), for ``verify --json``, and one hashed csv row per
value of every sweep grid.  Run from the repository root:

    python3 bench/make_goldens.py           # rewrite bench/golden/
    python3 bench/make_goldens.py --check   # exit 1 if the program now differs
"""

from __future__ import annotations

import argparse
import json
import sys

import program
from checks import EXTENSIONS, GOLDEN_DIR, read_exact, row_hash
from inputs import CONFIG_POOL, FORMATS, SWEEP_FAMILIES, Inputs


def _output(cli, op) -> str:
    _, code, out, err = program.run_inproc(cli, op.argv)
    if code != 0 or err:
        raise RuntimeError(f"{' '.join(op.argv)[:120]} exited {code}: {err[:300]}")
    return out


def golden_files() -> dict[str, str]:
    """Relative path under ``golden/`` -> content, from the program in ``src/``."""
    cli = program.import_cli()
    files: dict[str, str] = {}
    with program.workdir() as work:
        inputs = Inputs(program.ROOT, work)
        for name in CONFIG_POOL:
            for fmt in FORMATS:
                files[f"report/{name}.{EXTENSIONS[fmt]}"] = _output(cli, inputs.report(name, fmt))
        files["verify.json"] = _output(cli, inputs.verify())
        header, rows = None, {}
        for family, fam in SWEEP_FAMILIES.items():
            op = inputs.sweep(family, list(fam.grid), "csv")
            lines = _output(cli, op).split("\r\n")
            header = lines[0]
            by_value = dict(zip(op.expect["values"], lines[1:-1], strict=True))
            rows[family] = [row_hash(by_value[v]) for v in fam.grid]
    files["sweep.json"] = json.dumps({"header": header, "rows": rows}, indent=0) + "\n"
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with bench/golden/ instead of writing it")
    args = parser.parse_args(argv)
    files = golden_files()
    if args.check:
        on_disk = {str(p.relative_to(GOLDEN_DIR)): read_exact(p)
                   for p in GOLDEN_DIR.rglob("*") if p.is_file()}
        differ = sorted(set(files) ^ set(on_disk)
                        | {k for k in files.keys() & on_disk.keys() if files[k] != on_disk[k]})
        for name in differ:
            print(f"differs: {name}")
        return 1 if differ else 0
    for name, text in files.items():
        path = GOLDEN_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
