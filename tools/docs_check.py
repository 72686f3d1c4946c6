#!/usr/bin/env python3
"""Fail when a CLI flag parsed by src/stat/cli_config.cpp is undocumented.

The README's CLI reference table must cover every flag the parser
accepts: this gate extracts the names of the parser's flag table (the
`{"--name", ...}` entries of `kFlags`) and greps the README for each flag
spelled verbatim. It keeps the
documented interface from silently drifting behind the real one (the
`docs-check` CI step).

Usage:
  docs_check.py [--cli src/stat/cli_config.cpp] [--readme README.md]

Exit codes: 0 in sync, 1 undocumented flags, 2 usage/IO error.
"""

import argparse
import re
import sys

# A flag-table entry opens a line: `{"--name", true|false, ...`.
FLAG_PATTERN = re.compile(r'^\s*\{"(--[a-z][a-z0-9-]*)",\s*(?:true|false)\b',
                          re.MULTILINE)


def main():
    parser = argparse.ArgumentParser(
        description="Fail when parsed CLI flags are missing from the README.")
    parser.add_argument("--cli", default="src/stat/cli_config.cpp")
    parser.add_argument("--readme", default="README.md")
    args = parser.parse_args()

    try:
        with open(args.cli, "r", encoding="utf-8") as f:
            cli_source = f.read()
        with open(args.readme, "r", encoding="utf-8") as f:
            readme = f.read()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    flags = sorted(set(FLAG_PATTERN.findall(cli_source)))
    if not flags:
        print(f"error: no flags found in {args.cli} — "
              "did the parser's shape change?", file=sys.stderr)
        return 2

    missing = [flag for flag in flags if flag not in readme]
    for flag in missing:
        print(f"UNDOCUMENTED: {flag} is parsed by {args.cli} "
              f"but absent from {args.readme}")
    if missing:
        print(f"{len(missing)} undocumented flag(s); "
              f"add them to the CLI reference table in {args.readme}")
        return 1
    print(f"docs check clean: all {len(flags)} CLI flags documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
