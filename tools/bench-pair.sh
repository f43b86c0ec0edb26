#!/usr/bin/env bash
# Pairs one package's benchmarks in process: the test binary built at a
# base revision against the one built from the working tree.
#
#   bash tools/bench-pair.sh <base-rev> <pkg> <bench-regex> <rounds>
#
# (`make bench-pair BASE=<rev> PKG=<pkg> BENCH=<regex> ROUNDS=<n>`.) The
# base revision is checked out into a detached git worktree under
# .bench_build/, removed on exit. Each round runs both binaries once with
# -test.run '^$' -test.cpu 1 -test.benchmem, the base first in odd rounds
# and the change first in even ones, so the host's drifts between speed
# states hit both sides alike. Per benchmark it prints each side's median
# ns/op, B/op and allocs/op, the median of the rounds' change/base ns/op
# ratios and the number of rounds in which the change was faster.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 <base-rev> <pkg> <bench-regex> <rounds>" >&2
	exit 2
fi
base=$1 pkg=$2 bench=$3 rounds=$4
go=${GO:-go}
root=$(git rev-parse --show-toplevel)
dir="$root/.bench_build/bench-pair"

cleanup() {
	git -C "$root" worktree remove --force "$dir/base" >/dev/null 2>&1 || true
	rm -rf "$dir"
	git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
mkdir -p "$dir"
git -C "$root" worktree add --detach --quiet "$dir/base" "$base"
(cd "$dir/base" && "$go" test -c -o "$dir/base.test" "$pkg")
(cd "$root" && "$go" test -c -o "$dir/change.test" "$pkg")

# run <side> <round> <tree>: one benchmark run of side's binary from its
# package directory, as "<side> <round> <name> <ns/op> <B/op> <allocs/op>".
run() {
	(cd "$3/$pkg" && "$dir/$1.test" -test.run '^$' -test.bench "$bench" -test.cpu 1 -test.benchmem) |
		awk -v side="$1" -v round="$2" '/^Benchmark/ {
			ns = b = a = "-"
			for (i = 2; i < NF; i++) {
				if ($(i+1) == "ns/op") ns = $i
				if ($(i+1) == "B/op") b = $i
				if ($(i+1) == "allocs/op") a = $i
			}
			print side, round, $1, ns, b, a
		}'
}

for ((r = 1; r <= rounds; r++)); do
	if ((r % 2)); then
		run base "$r" "$dir/base"
		run change "$r" "$root"
	else
		run change "$r" "$root"
		run base "$r" "$dir/base"
	fi
done >"$dir/runs.txt"
if [ ! -s "$dir/runs.txt" ]; then
	echo "bench-pair: no benchmark in $pkg matches $bench" >&2
	exit 1
fi

awk -v rounds="$rounds" '
function median(v, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = v[i]
		for (j = i - 1; j >= 1 && v[j] > x; j--) v[j+1] = v[j]
		v[j+1] = x
	}
	return n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2
}
{
	if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 }
	ns[$1, $3, $2] = $4; bytes[$1, $3, $2] = $5; allocs[$1, $3, $2] = $6
}
END {
	printf "%-40s %14s %14s %12s %12s %11s %11s %7s %6s\n", "benchmark", "base ns/op", "change ns/op",
		"base B/op", "change B/op", "base allocs", "chg allocs", "ratio", "won"
	for (k = 1; k <= names; k++) {
		name = order[k]
		split("", bn); split("", cn); split("", bb); split("", cb); split("", ba); split("", ca); split("", ratio)
		n = won = 0
		for (r = 1; r <= rounds; r++) {
			if (!(("base", name, r) in ns) || !(("change", name, r) in ns)) continue
			n++
			bn[n] = ns["base", name, r] + 0; cn[n] = ns["change", name, r] + 0
			bb[n] = bytes["base", name, r] + 0; cb[n] = bytes["change", name, r] + 0
			ba[n] = allocs["base", name, r] + 0; ca[n] = allocs["change", name, r] + 0
			ratio[n] = cn[n] / bn[n]
			if (cn[n] < bn[n]) won++
		}
		if (n == 0) {
			printf "%-40s not run on both sides\n", name
			continue
		}
		printf "%-40s %14.1f %14.1f %12.0f %12.0f %11.0f %11.0f %7.3f %3d/%-2d\n", name, median(bn, n), median(cn, n),
			median(bb, n), median(cb, n), median(ba, n), median(ca, n), median(ratio, n), won, n
	}
}' "$dir/runs.txt"
