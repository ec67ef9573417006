#!/usr/bin/env bash
# Docs lint: keeps the CLI and its reference documentation in lock-step,
# and keeps the markdown link graph unbroken.
#
#   tools/check_docs.sh [path-to-diac-binary]
#
# Checks (all grep-based, no build needed):
#   1. every option of the option table (the kOptions rows of
#      src/serve/options.cpp, hidden shard flags included) appears as
#      `--<name>` in docs/CLI.md;
#   2. every subcommand dispatched in tools/diac_cli.cpp has a
#      "### `diac <cmd>" heading in docs/CLI.md;
#   3. every relative markdown link in README.md and docs/*.md resolves
#      to an existing file;
#   4. every lint rule ID implemented in tools/lint/diac_lint.cpp has a
#      "### D<n>" section in docs/LINTS.md;
#   5. (only when a binary is given — the `docs_cli_consistency` ctest
#      does this) every `--flag` printed by `diac --help` is documented.
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
cli_src="${repo_root}/tools/diac_cli.cpp"
option_src="${repo_root}/src/serve/options.cpp"
doc="${repo_root}/docs/CLI.md"
fail=0

[[ -f "${doc}" ]] || { echo "error: ${doc} missing" >&2; exit 1; }

# require_flag <name> <where it was found>: docs/CLI.md names --<name>.
require_flag() {
  grep -qE -- "(^|[^a-zA-Z-])--$1([^a-z-]|$)" "${doc}" && return 0
  echo "docs/CLI.md: missing entry for --$1 ($2)" >&2
  fail=1
}

# --- 1. option table vs docs/CLI.md ----------------------------------------
# A table row starts with {"<name>", inside `constexpr OptionSpec kOptions[]`.
table_flags=$(sed -n '/^constexpr OptionSpec kOptions\[\] = {/,/^};/p' \
                "${option_src}" |
              grep -oE '^ *\{"[a-z][a-z-]*",' | sed 's/[^a-z-]//g' | sort -u)
[[ -n "${table_flags}" ]] || {
  echo "error: no option rows found in ${option_src}" >&2; exit 1; }
for flag in ${table_flags}; do require_flag "${flag}" "in the option table"; done

# --- 2. source subcommands vs docs/CLI.md -----------------------------------
src_cmds=$(grep -oE 'command == "[a-z-]+"' "${cli_src}" |
           sed 's/.*"\([^"]*\)".*/\1/; s/^-*//' | sort -u)
for cmd in ${src_cmds}; do
  if ! grep -qE "^### \`diac ${cmd}" "${doc}"; then
    echo "docs/CLI.md: missing '### \`diac ${cmd}\`' section" >&2
    fail=1
  fi
done

# --- 3. markdown link check -------------------------------------------------
for md in "${repo_root}/README.md" "${repo_root}"/docs/*.md; do
  [[ -f "${md}" ]] || continue
  dir=$(dirname -- "${md}")
  while IFS= read -r link; do
    link=${link%%#*}                      # drop in-page anchors
    [[ -z "${link}" ]] && continue
    case "${link}" in
      http://*|https://*|mailto:*) continue ;;
    esac
    if [[ ! -e "${dir}/${link}" ]]; then
      echo "${md#"${repo_root}"/}: broken link '${link}'" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "${md}" | sed 's/^](//; s/)$//')
done

# --- 4. lint rule IDs vs docs/LINTS.md --------------------------------------
lint_src="${repo_root}/tools/lint/diac_lint.cpp"
lint_doc="${repo_root}/docs/LINTS.md"
if [[ -f "${lint_src}" ]]; then
  [[ -f "${lint_doc}" ]] || { echo "error: ${lint_doc} missing" >&2; exit 1; }
  # Rule IDs are the first field of each kRules entry: {"D1", ...}.
  rule_ids=$(grep -oE '\{"D[0-9]+"' "${lint_src}" | tr -d '{"' | sort -u)
  [[ -n "${rule_ids}" ]] || {
    echo "error: no rule IDs found in ${lint_src}" >&2; exit 1; }
  for id in ${rule_ids}; do
    if ! grep -qE "^### ${id} " "${lint_doc}"; then
      echo "docs/LINTS.md: missing '### ${id} — ...' section for rule ${id}" \
           "(implemented in tools/lint/diac_lint.cpp)" >&2
      fail=1
    fi
  done
fi

# --- 5. --help output vs docs/CLI.md (needs the built binary) ---------------
if [[ $# -ge 1 ]]; then
  diac_bin=$1
  [[ -x "${diac_bin}" ]] || { echo "error: ${diac_bin} not executable" >&2; exit 1; }
  help_flags=$("${diac_bin}" --help | grep -oE -- '--[a-z][a-z-]*' |
               sed 's/^--//' | sort -u)
  for flag in ${help_flags}; do require_flag "${flag}" "printed by --help"; done
fi

if [[ ${fail} -ne 0 ]]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK"
