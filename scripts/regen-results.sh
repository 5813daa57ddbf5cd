#!/bin/sh
# Regenerates every figure TSV in results/ at the default reduced scale
# (-scale 0.1; see EXPERIMENTS.md). Full paper scale: pass SCALE=1.0.
# Total runtime: ~20 min at 0.1, a few hours at 1.0.
set -eu
cd "$(dirname "$0")/.."
SCALE="${SCALE:-0.1}"
mkdir -p results

run() { echo ">> $*" >&2; "$@"; }

run go run ./cmd/flocsim -fig 2  -scale "$SCALE" > results/fig2.tsv
run go run ./cmd/flocsim -fig 3  -scale "$SCALE" > results/fig3.tsv
run go run ./cmd/flocsim -fig 4                   > results/fig4.tsv
run go run ./cmd/flocsim -fig 6a -scale "$SCALE" > results/fig6a.tsv
run go run ./cmd/flocsim -fig 6b -scale "$SCALE" > results/fig6b.tsv
run go run ./cmd/flocsim -fig 6c -scale "$SCALE" > results/fig6c.tsv
run go run ./cmd/flocsim -fig 7  -scale "$SCALE" -rates 0.4,2.0,4.0 > results/fig7.tsv
run go run ./cmd/flocsim -fig 8  -scale "$SCALE" -rates 0.2,0.4,0.8,1.6,2.4,3.2,4.0 > results/fig8.tsv
run go run ./cmd/flocsim -fig 9  -scale 0.3      > results/fig9.tsv
run go run ./cmd/flocsim -fig 10 -scale "$SCALE" -fanouts 1,4,8,12,20 > results/fig10.tsv
# Figs. 11-15 keep the seed the Internet-scale results were recorded at.
run go run ./cmd/flocsim -fig 11 -seed 42 > results/fig11.tsv
run go run ./cmd/flocsim -fig 12 -seed 42 > results/fig12.tsv
run go run ./cmd/flocsim -fig 13 -scale "$SCALE" -seed 42 > results/fig13.tsv
run go run ./cmd/flocsim -fig 14 -scale "$SCALE" -seed 42 > results/fig14.tsv
run go run ./cmd/flocsim -fig 15 -scale "$SCALE" -seed 42 > results/fig15.tsv
# Extensions beyond the paper.
run go run ./cmd/flocsim -fig timed  -scale "$SCALE" > results/fig-timed.tsv
run go run ./cmd/flocsim -fig deploy -scale "$SCALE" > results/fig-deploy.tsv
run go run ./cmd/flocsim -fig rep    -scale "$SCALE" -seeds 1,2,3 > results/fig-rep.tsv
echo "done: results/" >&2
