#!/usr/bin/env bash
# Full command-line pipeline: simulate a preset, fit the simulated data,
# diagnose the fit, and benchmark two estimators. Everything lands in a
# scratch directory; rerunning any step reproduces its outputs byte for
# byte because all randomness flows from the --seed flags.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

compscore presets list | head -6

echo
echo "== simulate =="
compscore simulate --model model3 --n 2000 --seed 7 --out "$work/sim"
head -3 "$work/sim/data.csv"

echo
echo "== fit =="
cat > "$work/fit-config.json" <<'EOF'
{
  "schema_version": 1,
  "family": "truncated-gaussian"
}
EOF
compscore fit --data "$work/sim/data.csv" --config "$work/fit-config.json" \
    --weight capped-min --ac auto:0.9 --out "$work/fit"
cat "$work/fit/fit.csv"

echo
echo "== factorial fit of the bundled counts, run twice =="
bundled=$(python3 -c "from importlib import resources;\
print(resources.files('compscore').joinpath('data/synthetic_microbiome_counts.csv'))")
cat > "$work/counts-config.json" <<'EOF'
{
  "schema_version": 1,
  "family": "hybrid",
  "data_kind": "counts",
  "shape": [-0.8, -0.85, 0.0, -0.2, 0.0]
}
EOF
for run in 1 2; do
    compscore fit --data "$bundled" --config "$work/counts-config.json" \
        --estimator factorial --out "$work/factorial$run"
done
cmp "$work/factorial1/fit.json" "$work/factorial2/fit.json"
echo "the rerun's fit.json is byte-identical"
cat "$work/factorial1/fit.csv"

echo
echo "== diagnose =="
compscore diagnose --data "$work/sim/data.csv" --fit "$work/fit/fit.json" \
    --seed 11 --n-sim 20000 --qq 5 --out "$work/diag"
python3 -c "import json; r = json.load(open('$work/diag/report.json'));\
print('KS p-values:', [round(c['ks_pvalue'], 3) for c in r['categories']])"

echo
echo "== bench =="
cat > "$work/bench-config.json" <<'EOF'
{
  "schema_version": 1,
  "model": "model3",
  "estimators": [1, 3],
  "n": 500,
  "replicates": 20,
  "seed": 3
}
EOF
compscore bench --config "$work/bench-config.json" --out "$work/bench"
cat "$work/bench/summary.csv"
