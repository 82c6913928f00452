//! The door census: one way per operation (ROADMAP, "Quality of design").
//! A twin that builds its own path cache, LP context, worker count or
//! solver options fails the suite if its name comes back, and so does a
//! config struct, knob or orphan that went because nothing set or called
//! it. Scans every `.rs` file under `crates`, `src`, `tests` and `examples`
//! but this one.

use std::path::{Path, PathBuf};

/// Identifiers that name a deleted door.
const GONE: &[&str] = &[
    "place_on",
    "place_with_traces",
    "place_cached",
    "solve_with_cache",
    "solve_with_cache_ctx",
    "solve_warm_with",
    "min_cut_load_with_cache",
    "ChurnBudget",
    "adaptive_bounded",
    "static_baseline",
    "LatOptConfig",
    "MinMaxConfig",
    "EdgeListConfig",
    "ClassConfig",
    "place_with_classes",
    "class_weights",
    "depth_metrics",
    "DepthMetrics",
    "leaf_boundary",
    "max_paths_per_minute",
    "generate_batch",
    "srlg_failures",
];

/// The solver's options are `lowlat_linprog`'s own business.
const PRIVATE_TO_LINPROG: &str = "SolverOptions";

/// `GONE`, or a lower-case `<name>_with_workers`: the caller passes workers.
fn is_gone(ident: &str) -> bool {
    GONE.contains(&ident)
        || ident.strip_suffix("_with_workers").is_some_and(|name| {
            !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_')
        })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_deleted_door_comes_back() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut hits = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap();
        if rel == Path::new(file!()) {
            continue;
        }
        let linprog = rel.starts_with("crates/linprog/src");
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in (1..).zip(text.lines()) {
            let idents = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for ident in idents.filter(|ident| is_gone(ident)) {
                hits.push(format!("{}:{n}: {ident}", rel.display()));
            }
            if !linprog && line.contains(PRIVATE_TO_LINPROG) {
                hits.push(format!("{}:{n}: {PRIVATE_TO_LINPROG}", rel.display()));
            }
        }
    }
    assert!(hits.is_empty(), "deleted doors are back:\n{}", hits.join("\n"));
}
