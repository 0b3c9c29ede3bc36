#!/usr/bin/env bash
# checklinks.sh — verify that every relative markdown link in the given
# files points at an existing file or directory, and that every heading
# anchor (#fragment, on the same file or a linked markdown file)
# resolves to a real heading. External (http/https/mailto) links are
# skipped, and so is code: fenced blocks and inline code spans are not
# markdown links. Exits non-zero listing every broken link or anchor.
# Used by the CI docs job:
#
#   scripts/checklinks.sh *.md docs/*.md
#
# scripts/checklinks_fixture.md holds link-like text inside code, which
# must pass.
set -u
fail=0

# drop_fences FILE — FILE with every line of a fenced code block (``` or
# ~~~, closed by the same marker) blanked.
drop_fences() {
  awk '
    { line = $0; sub(/^ ? ? ?/, "", line); mark = substr(line, 1, 3) }
    fence == "" && (mark == "```" || mark == "~~~") { fence = mark; print ""; next }
    fence != "" { if (mark == fence) fence = ""; print ""; next }
    { print }
  ' "$1" 2>/dev/null
}

# prose_of FILE — FILE without its code: fenced blocks as in drop_fences,
# and inline code spans (one or two backticks) removed from each line.
prose_of() {
  drop_fences "$1" | sed -E 's/``([^`]|`[^`])*``//g; s/`[^`]*`//g'
}

# slugs_of FILE — one GitHub-style anchor slug per heading outside fenced
# blocks: lowercase, punctuation stripped (keep alnum, space, underscore,
# dash), spaces to dashes. Mirrors GitHub's anchor generation closely
# enough for ASCII headings; duplicate-heading "-1" suffixes are not
# modeled.
slugs_of() {
  drop_fences "$1" | grep -E '^#{1,6} ' |
    sed -E 's/^#{1,6} +//' |
    tr '[:upper:]' '[:lower:]' |
    sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}

# has_anchor FILE ANCHOR — succeeds when FILE has a heading slugging to
# ANCHOR.
has_anchor() {
  slugs_of "$1" | grep -qxF "$2"
}

for f in "$@"; do
  if [ ! -f "$f" ]; then
    echo "checklinks: no such file: $f" >&2
    fail=1
    continue
  fi
  dir=$(dirname "$f")
  # Extract ](target) occurrences, one per line, tolerating several
  # links per line.
  targets=$(prose_of "$f" | grep -o '](\([^)]*\))' | sed 's/^](//; s/)$//')
  while IFS= read -r t; do
    [ -z "$t" ] && continue
    case "$t" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path=${t%%#*}
    anchor=""
    case "$t" in
      *'#'*) anchor=${t#*#} ;;
    esac
    if [ -n "$path" ] && [ ! -e "$dir/$path" ]; then
      echo "checklinks: $f: broken link -> $t" >&2
      fail=1
      continue
    fi
    if [ -n "$anchor" ]; then
      if [ -z "$path" ]; then
        anchor_file=$f
      else
        anchor_file="$dir/$path"
      fi
      case "$anchor_file" in
        *.md)
          if ! has_anchor "$anchor_file" "$anchor"; then
            echo "checklinks: $f: broken anchor -> $t (no heading #$anchor in $anchor_file)" >&2
            fail=1
          fi
          ;;
      esac
    fi
  done <<EOF
$targets
EOF
done
if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "checklinks: all relative links and anchors resolve"
