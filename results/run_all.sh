#!/bin/sh
# Regenerates every paper artifact at quick scale (CPU-budgeted): the 20
# figure and table binaries of fedwcm-experiments and the claims ledger
# (flclaims), each into its own results/<stem>.txt (stdout) and
# results/<stem>.log (stderr).
# Usage: sh results/run_all.sh [extra flags passed to every binary]
set -x
cd "$(dirname "$0")/.."
R=results
EXTRA=$*
# run <output stem> <binary> [flags]: the stem, not the binary, names the
# files, so one binary run under two configurations keeps both outputs.
run() {
    stem=$1 bin=$2
    shift 2
    # shellcheck disable=SC2086 # EXTRA is a list of plain flags
    cargo run --release -q -p fedwcm-experiments --bin "$bin" -- "$@" $EXTRA \
        > "$R/$stem.txt" 2> "$R/$stem.log"
}

run fig2_partition fig2_partition
run fig11_skew fig11_skew
run table6_he_sizes table6_he_sizes
run thm61_rate thm61_rate
run appendix_comms appendix_comms
run fig3_motivation fig3_motivation --rounds 80
run fig7_convergence fig7_convergence --rounds 80
run fig8_per_label fig8_per_label --rounds 80
run table4_beta_if table4_beta_if --rounds 60
run table3_sampling table3_sampling --rounds 60
run fig9_clients fig9_clients --rounds 60
run fig10_epochs fig10_epochs --rounds 60
run table5_fedwcm_x table5_fedwcm_x --rounds 60
run fig12_fedgrab_part fig12_fedgrab_part --rounds 60
run claims flclaims --trials 5
run fig13_concentration_cmp fig13_concentration_cmp --rounds 60
run fig14_16_layers fig14_16_layers --rounds 60
run fig4_concentration fig4_concentration --rounds 60
run fig18_19_hetero fig18_19_hetero --rounds 60
run appendix_geometry appendix_geometry --rounds 60
# Table 1 twice, once per dataset: EXPERIMENTS.md cites the CIFAR-10
# table under the binary's name, and Table 2 is its FedAvg, FedGrab and
# FedWCM columns.
run table1_overall table1_overall --rounds 60 --dataset cifar-10
run table1_overall_fashion_mnist table1_overall --rounds 40 --dataset fashion-mnist
echo ALL_DONE
