# Workspace task runner. `just --list` shows everything.

# Tier-1 verification: what CI runs and every PR must keep green. The last
# two lines build and test the repo benchmark, a workspace of its own that
# links against `sim`/`core` signatures by name (CI's `perfbench` job).
verify:
    cargo fmt --check
    cargo build --release
    cargo clippy --all-targets -- -D warnings
    cargo test -q
    cargo bench --no-run
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Full benchmark sweep (criterion stand-in: wall-clock medians on stdout).
bench:
    cargo bench

# Quick benches -> fresh BENCH_N.json, gated >25% against the latest
# committed baseline (engine/* skipped: worker-count-bound). The default
# `out=auto` writes the next free number — commit it to refresh the
# baseline after an intentional performance change.
bench-report out="auto":
    cargo bench -p lowlat_bench --bench substrates --bench fig_schemes \
        --bench warmstart --bench timeline --bench failure --bench controller \
        --bench hierarchy --bench pricing \
        | cargo run --release -p lowlat_bench --bin bench_report -- \
            --baseline auto --out {{out}} --max-regress 0.25 --skip engine/

# Internet-scale ingestion experiment: load an edge list (or generate the
# four synthetic models when file="") and run the hierarchical engine's
# seeded KSP batch. JSON lands in sweeps/topo_ingest.json, the per-model
# summary in sweeps/topo_ingest_summary.txt.
ingest file="" nodes="10000" tests="200" seeds="42,43":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin topo_ingest -- \
        {{ if file != "" { "--edge-list " + file } else { "" } }} \
        --nodes {{nodes}} --tests {{tests}} --seeds {{seeds}} \
        --output sweeps/topo_ingest.json \
        --summary-output sweeps/topo_ingest_summary.txt
    @echo "wrote sweeps/topo_ingest.json"

# The §5 deployment cycle across the corpus: any controllers (registry
# specs, `static:`-prefixed for the placed-once baseline) against bursty
# synthetic traffic. Results land in sweeps/ as TSV.
timeline minutes="10" cv="0.3" seed="99" schemes="LDR,SP,static:SP" scale="--std":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin timeline_sweep -- {{scale}} \
        --minutes {{minutes}} --cv {{cv}} --seed {{seed}} --schemes {{schemes}} \
        > sweeps/timeline_sweep.tsv
    @echo "wrote sweeps/timeline_sweep.tsv"

# Telemetry-instrumented timeline run: a diurnal Abilene deployment cycle
# with both sinks on. Drag sweeps/trace.json into https://ui.perfetto.dev
# (or chrome://tracing) to see the per-minute measure/decide/install
# breakdown; diff metrics snapshots with `perf_report`.
trace minutes="10" seed="99":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin timeline_sweep -- --quick \
        --networks Abilene --minutes {{minutes}} --seed {{seed}} \
        --diurnal 0.3 --period 10 \
        --trace-out sweeps/trace.json --metrics-out sweeps/metrics.json \
        > sweeps/trace_run.tsv
    @echo "wrote sweeps/trace.json (Perfetto), sweeps/metrics.json, sweeps/trace_run.tsv"

# Survivability sweep over the named corpus: failure scenarios (single =
# exhaustive single-cable, node, srlg, random) x schemes, each cell running
# cache repair + warm re-placement. Results land in sweeps/ as TSV.
failures scenarios="single" schemes="LDR,LatOpt,SP" load="0.7" scale="--std":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin failure_sweep -- {{scale}} \
        --scenarios {{scenarios}} --schemes {{schemes}} --load {{load}} \
        > sweeps/failure_sweep.tsv
    @echo "wrote sweeps/failure_sweep.tsv"

# Availability frontier: the failure sweep collapsed to CDF quantiles per
# (network, scheme, load) cell — scenarios (incl. brownout = dimmed cables,
# geo = great-circle corridor SRLGs) crossed with operating loads.
frontier scenarios="single,brownout,geo" schemes="LDR,LatOpt,SP" loads="0.5,0.7,0.9" scale="--std":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin failure_sweep -- {{scale}} \
        --scenarios {{scenarios}} --schemes {{schemes}} --loads {{loads}} \
        --frontier > sweeps/availability_frontier.tsv
    @echo "wrote sweeps/availability_frontier.tsv"

# Open scenario sweep over the corpus: any loads x localities x schemes
# (registry specs). Results land in sweeps/ as TSV.
sweep loads="0.6,0.7,0.9" localities="1.0" schemes="SP,ECMP,B4,MinMax,MinMaxK10,LatOpt,LDR" scale="--std":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin scenario_sweep -- {{scale}} \
        --loads {{loads}} --localities {{localities}} --schemes {{schemes}} \
        > sweeps/scenario_sweep.tsv
    @echo "wrote sweeps/scenario_sweep.tsv"

# Reproduce the paper's figures into figures/*.tsv (ASCII sketches go to
# stderr). Pass scale="--quick" for a CI-sized run, "--full" for the paper's.
figures scale="--std":
    mkdir -p figures
    for fig in fig01_apa_cdf fig03_sp_congestion fig04_active_schemes \
               fig07_util_cdf fig08_headroom fig09_prediction \
               fig10_sigma_scatter fig15_runtime fig16_max_stretch \
               fig17_load_sweep fig18_locality_sweep fig19_google \
               fig20_growth; do \
        cargo run --release -p lowlat_sim --bin $fig -- {{scale}} \
            > figures/$fig.tsv || exit 1; \
    done
