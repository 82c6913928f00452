# Workspace task runner. `just --list` shows everything.

# Tier-1 verification: CI's tests and gates, which every PR must keep green.
# The last two lines build and test the repo benchmark, a workspace of its
# own that links against `sim`/`core` signatures by name (CI's `perfbench`
# job). CI alone runs the telemetry smoke, the scale-smoke job and the
# perfbench counts table.
verify:
    cargo fmt --check
    cargo build --release
    cargo clippy --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude rand --exclude parking_lot --exclude proptest --exclude criterion
    cargo test -q
    RUST_TEST_THREADS=1 cargo test -q
    taskset -c 0 cargo test -q -p lowlat_sim --test sweep_golden
    taskset -c 0 cargo test -q -p lowlat_core --test tree_bits_at_scale
    cargo test --release -q -p lowlat_linprog --test solve_bits
    cargo bench --no-run
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Re-record the sweep goldens after a change that moves them on purpose:
# the test writes every cell's output, the copy makes it the golden, and
# `git diff` names each number that moved.
regolden:
    -cargo test -q -p lowlat_sim --test sweep_golden
    cp target/tmp/sweep_golden/*.tsv crates/sim/tests/golden/

# The four micro-bench targets (criterion stand-in: wall-clock medians on
# stdout) — one kernel at a time; performance claims go through `just perf`.
bench:
    cargo bench

# The repo benchmark: BENCHMARK.json's command once per workload it lists
# (default run length, end-to-end metrics), each result kept as
# <dir>/<workload>.txt. Hold a parent's and a change's directory (same host)
# to BENCHMARK.json's bounds one workload at a time with
#   cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
#       --bin perf -- compare <parent-dir>/<workload>.txt <change-dir>/<workload>.txt
# (exit 1 on a regression); `python3 perfbench/aa.py` gives medians and
# spreads over ten seeds, which is what a claimed gain needs.
perf dir="sweeps/perf":
    mkdir -p {{dir}}
    for workload in $(python3 -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
            --bin perf -- run --workload $workload \
            --out {{dir}}/$workload.txt || exit 1; \
    done

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
# breakdown.
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
failures scenarios="single" schemes="LDR,LatOpt,SP" loads="0.7" scale="--std":
    mkdir -p sweeps
    cargo run --release -p lowlat_sim --bin failure_sweep -- {{scale}} \
        --scenarios {{scenarios}} --schemes {{schemes}} --loads {{loads}} \
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
    figs=$(cargo run --release -q -p lowlat_sim --bin figures -- --list) || exit 1; \
    for fig in $figs; do \
        cargo run --release -p lowlat_sim --bin figures -- --fig $fig {{scale}} \
            > figures/$fig.tsv || exit 1; \
    done
