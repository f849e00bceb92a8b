# Lints a Prometheus text exposition: every sample's family must carry
# HELP and TYPE, and no family may be declared twice. Exits 1 on any
# finding. Usage: awk -f .github/exposition-lint.awk metrics.txt
/^# HELP / { help[$3] = 1; next }
/^# TYPE / { if ($3 in type) { printf "duplicate TYPE for %s\n", $3; bad = 1 }
             type[$3] = $4; next }
/^#/       { printf "unrecognized comment: %s\n", $0; bad = 1; next }
/^$/       { next }
{
  name = $1
  sub(/\{.*/, "", name)
  base = name
  if (!(base in type)) {
    b = base; sub(/_(bucket|sum|count)$/, "", b)
    if (type[b] == "histogram") base = b
  }
  if (!(base in help) || !(base in type)) {
    printf "sample %s: family %s missing HELP or TYPE\n", $1, base; bad = 1
  }
}
END { exit bad }
