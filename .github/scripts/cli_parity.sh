#!/usr/bin/env bash
# Compare the CLI of this checkout against a base checkout: for every command
# below, stdout, stderr, the exit code and the file written through
# `--out "$out"` (if any) must be byte-identical.
#
# Usage, from the repository root:  .github/scripts/cli_parity.sh BASE_DIR
# where BASE_DIR is a checkout of the base commit (e.g. a git worktree).
set -u
base=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=$tmp/out  # the --out file of a command; both trees write the same path
status=0

run() {  # run TREE NAME ARGS...: stdout, stderr, exit code and --out file to $tmp/NAME.{out,err,code,file}
  local tree=$1 name=$2 code=0
  shift 2
  rm -f "$out" "$tmp/$name.file"
  PYTHONPATH="$tree/src" python -m mesphase.cli "$@" > "$tmp/$name.out" 2> "$tmp/$name.err" || code=$?
  echo "$code" > "$tmp/$name.code"
  if [ -e "$out" ]; then mv "$out" "$tmp/$name.file"; fi
}

same_file() {  # same_file A B: both missing, or both present with the same bytes
  if [ -e "$1" ] || [ -e "$2" ]; then cmp -s "$1" "$2"; fi
}

while IFS= read -r command; do
  eval "set -- $command"
  run "$base" base "$@"
  run . head "$@"
  if cmp -s "$tmp/base.out" "$tmp/head.out" && cmp -s "$tmp/base.err" "$tmp/head.err" \
    && cmp -s "$tmp/base.code" "$tmp/head.code" && same_file "$tmp/base.file" "$tmp/head.file"; then
    echo "same:    mesphase $command"
  else
    echo "DIFFERS: mesphase $command (exit $(cat "$tmp/base.code") -> $(cat "$tmp/head.code"))"
    status=1
  fi
done <<'COMMANDS'
gen-mub --d 11 --format csv
gen-mes --d 7 --b 2 --b-prime cb
gen-mes --d 11 --b cb --b-prime 4 --format csv
lines --d 13
lines --d 5 --alt-realization --format json
hop --d 13 --q 4 --p 9 --word "Xc^5 Zr^-3 Xr^7 Zc^2" --format json
verify --d 3 --d 5 --d 7 --d 11 --d 13 --format json
verify --d 11 --format csv --seed 5
lines --d 23 --alt-realization
lines --d 29 --format json
verify --d 17 --d 19 --suite mes --format json
verify --d 17 --d 19 --d 23 --suite lines
gen-mes --d 23 --b 3 --b-prime 5
gen-mes --d 23 --b 3 --b-prime 5 --format csv
gen-mes --d 29 --b cb --b-prime 7 --format csv
gen-mub --d 23
verify --d 23 --suite mes --format json
gen-mub --d 9
gen-mes --d 7 --b 9
gen-mub --d 5 --format json
gen-mes --d 5 --b 1 --b-prime 0 --out /nonexistent/dir/x.json
verify --d 7 --seed 12345 --format json
verify --d 13 --suite collective --seed 99
verify --d 13 --suite mes --seed 7 --format json
lines --d 31 --format csv
lines --d 7 --alt-realization --format csv
verify --d 29 --d 31 --suite lines --format json
verify --d 31 --suite mub
verify --d 29 --d 31 --suite collective --seed 3
verify --d 17 --d 19 --seed 8 --format json
verify --d 13 --suite mub --format json
hop --d 7 --q 3 --p 5 --word "Zc^3 Xr^-2 Xc^4"
lines --d 13 --tol 1e-16
verify --d 5 --d 7 --suite lines --tol 1e-16
verify --d 5 --d 7 --suite mub --tol 1e-16
lines --d 31 --alt-realization --format json
gen-mub --d 2
verify --d 1
lines --d -7
hop --d 15 --q 0 --p 0
gen-mes --d 4 --b 0
verify --d 7 --d 0 --suite mub
verify --d 7 --suite collective --seed 4 --format json
verify --d 3 --d 5 --suite mes --seed 11
verify --d 7 --d 11 --suite mub --seed 6 --format json
hop --d 5 --q 2 --p 4 --word "Zr^3 Xc^-8 Zc^2 Xr^1"
verify --d 3 --suite collective --seed 21 --format json
verify --d 19 --suite collective --seed 2
hop --d 3 --q 2 --p 1 --word "Zr^-7 Xc^11 Zc^0 Xr^4"
verify --d 23 --suite collective --seed 8 --format json
hop --d 31 --q 30 --p 1 --word "Xr^5 Zc^-2 Xc^33" --format json
gen-mes --d 17 --b 5 --b-prime cb --format csv
verify --d 17 --suite collective --seed 5 --format json
verify --d 31 --suite mes --format json
gen-mes --d 13 --b cb --b-prime cb --format json
hop --d 7 --q -1 --p 15 --word ""
hop --d 11 --q 12 --p -3 --word "Xc^-1 Zr^12" --format csv
gen-mes --d 23 --b 3 --b-prime 5 --out "$out"
gen-mes --d 23 --b 3 --b-prime 5 --format csv --out "$out"
gen-mub --d 23 --out "$out"
verify --d 5 --suite mub --format json --out "$out"
lines --d 13 --format csv --out "$out"
COMMANDS
exit $status
