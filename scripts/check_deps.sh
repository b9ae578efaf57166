#!/usr/bin/env bash
# Every manifest (the root package, crates/* and the vendored shims in vendor/*)
# names only what its crate uses:
#   - a [dependencies] entry must be referenced from the crate's src/;
#   - a [dev-dependencies] entry from src/, tests/, benches/ or examples/.
# A reference is a code line (not a `//` comment) naming the crate as a path
# (`name::`), a `use name;`, a macro (`name!`) or an `extern crate name`.
# Prints every entry that breaks the rule and exits non-zero if there is one.
#
# usage: scripts/check_deps.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# Keys of one [section] of a manifest, one a line.
entries() { # manifest section
  awk -v want="[$2]" '
    /^\[/ { on = ($0 == want); next }
    on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
  ' "$1"
}

# Whether any .rs file under the given directories references the crate.
used() { # crate dir...
  local ident="${1//-/_}" dirs=()
  shift
  for d in "$@"; do [ -d "$d" ] && dirs+=("$d"); done
  [ ${#dirs[@]} -gt 0 ] || return 1
  grep -rhE --include='*.rs' \
    "(^|[^A-Za-z0-9_])${ident}(::|!|;| as )|extern crate ${ident}([^A-Za-z0-9_]|$)" \
    "${dirs[@]}" | grep -qvE '^[[:space:]]*//'
}

bad=0
for manifest in Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; do
  dir="$(dirname "$manifest")"
  name="$(awk '/^\[package\]/ { p = 1; next } /^\[/ { p = 0 } p && /^name *=/ { gsub(/[" ]/, ""); sub(/name=/, ""); print; exit }' "$manifest")"
  for dep in $(entries "$manifest" dependencies); do
    if ! used "$dep" "$dir/src"; then
      echo "$name: [dependencies] $dep is not referenced from src/"
      bad=$((bad + 1))
    fi
  done
  for dep in $(entries "$manifest" dev-dependencies); do
    if ! used "$dep" "$dir/src" "$dir/tests" "$dir/benches" "$dir/examples"; then
      echo "$name: [dev-dependencies] $dep is not referenced from src/, tests/, benches/ or examples/"
      bad=$((bad + 1))
    fi
  done
done
if [ "$bad" -gt 0 ]; then
  echo "$bad manifest entries name a crate their crate does not use" >&2
  exit 1
fi
echo "every manifest names only what its crate uses"
