# Sourced by run.sh and steady.sh, run from the repository root. Sets
# $root and $work (.bench_build/campaignbench/) and keeps every file the
# go command writes (build cache, temp files, module cache, telemetry
# counters under the config dir) inside the checkout.
root=$(pwd)
work="$root/.bench_build/campaignbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/config"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOMODCACHE="$work/gomodcache" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
