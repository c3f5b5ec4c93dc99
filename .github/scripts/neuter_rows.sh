#!/usr/bin/env bash
# Neuter each verify row in turn and require tests/test_verify.py to notice.
# For every check name that run_suites([3, 5]) emits, run that file with
# verify._rows patched, by a pytest plugin written here, to report 0.0 for
# that name; the script fails if any name leaves the file green.
#
# Usage, from the repository root:  .github/scripts/neuter_rows.sh
set -u
plugin=$(mktemp -d)
trap 'rm -rf "$plugin"' EXIT
cat > "$plugin/neuter_row.py" <<'EOF'
"""Make the verify row named by $NEUTERED_ROW report 0.0, its check still run."""
import dataclasses
import os

from mesphase import verify

_rows = verify._rows


def _neutered(d, tol, entries):
    name = os.environ["NEUTERED_ROW"]
    return [
        dataclasses.replace(row, max_error=0.0, passed=0.0 < tol) if row.check == name else row
        for row in _rows(d, tol, entries)
    ]


verify._rows = _neutered
EOF

run() {  # run NAME: tests/test_verify.py with row NAME neutered; its exit code
  NEUTERED_ROW=$1 PYTHONPATH="$plugin:src" python -m pytest -x -q -p neuter_row tests/test_verify.py > /dev/null 2>&1
}

# with no row neutered the file must be green, or every name below would
# count as caught
if ! run ""; then
  echo "tests/test_verify.py fails with no row neutered"
  exit 1
fi
names=$(PYTHONPATH=src python -c '
from mesphase.verify import run_suites
print("\n".join(dict.fromkeys(row.check for row in run_suites([3, 5]))))')
status=0
for name in $names; do
  if run "$name"; then
    echo "NOT CAUGHT: $name"
    status=1
  else
    echo "caught:     $name"
  fi
done
exit $status
