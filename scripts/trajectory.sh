#!/usr/bin/env bash
# The perf trajectory as data (ROADMAP item 20): BENCH_trajectory.json holds
# one record per change and workload of the repo benchmark's inv_per_s, one
# record per line. For each workload this prints the latest record's change
# median against the best change median recorded on the same host, at the
# harness's default seed 42 (a record without a seed is at 42), skipping
# changes marked "merged": false. Records back-filled from CHANGES.md or the
# pipeline carry no quartiles and no host, so a latest record without a host
# has no comparable record, and the line says so.
# Beside that it prints the chain: the product, per workload, of the
# within-session change_median / parent_median of every such record measured
# in alternated pairs (one that states "pairs"; back-filled records do not),
# and how many it multiplied. Absolute medians drift between sessions on a
# shared host; a ratio measured within one session does not, so the chain is
# the trajectory that means something.
# It states no bound yet. Exits non-zero only on a record it cannot read.
# Reads the committed file only, so it cannot flake.
# Run from anywhere: ./scripts/trajectory.sh
set -euo pipefail
cd "$(dirname "$0")/.."

awk '
function field(key,   s) {
  if (!match($0, "\"" key "\": *(\"[^\"]*\"|[^,}]*)")) return ""
  s = substr($0, RSTART, RLENGTH)
  sub("^\"" key "\": *", "", s)
  gsub("\"", "", s)
  return s
}
/^ *\{"pr":/ {
  pr = field("pr"); w = field("workload"); m = field("change_median")
  if (pr == "" || w == "" || m == "" || m + 0 <= 0) {
    print "BENCH_trajectory.json:" NR ": unreadable record: " $0 > "/dev/stderr"
    bad = 1
    next
  }
  records++
  if (field("merged") == "false" || (field("seed") != "" && field("seed") != 42)) next
  if (!(w in latest)) order[++n] = w
  host = field("host")
  latest[w] = m + 0; latest_pr[w] = pr; latest_host[w] = host
  p = field("parent_median")
  if (field("pairs") + 0 > 0 && p + 0 > 0) {
    if (!(w in chain)) chain[w] = 1
    chain[w] *= (m + 0) / (p + 0); links[w]++
  }
  if (host == "") next
  k = w SUBSEP host
  if (!(k in best) || m + 0 > best[k]) { best[k] = m + 0; best_pr[k] = pr }
}
END {
  if (records == 0) { print "BENCH_trajectory.json: no records" > "/dev/stderr"; exit 1 }
  printf "%-16s %18s %24s %12s %20s\n", "workload", "latest (PR)", "best on its host (PR)", "latest/best", "paired chain (n)"
  for (i = 1; i <= n; i++) {
    w = order[i]
    ch = (w in chain) ? sprintf("%15.3f (%2d)", chain[w], links[w]) : sprintf("%20s", "no pairs")
    if (latest_host[w] == "") {
      printf "%-16s %11.1f (%3s) %37s %s\n", w, latest[w], latest_pr[w], "no comparable record: no host", ch
      continue
    }
    k = w SUBSEP latest_host[w]
    printf "%-16s %11.1f (%3s) %17.1f (%3s) %12.3f %s\n", w, latest[w], latest_pr[w], best[k], best_pr[k], latest[w] / best[k], ch
  }
  exit bad
}
' BENCH_trajectory.json
