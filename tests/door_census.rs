//! The door census: one way per operation (ROADMAP, "Quality of design").
//! A twin that builds its own path cache, LP context, worker count or
//! solver options fails the suite if its name comes back, and so does a
//! config struct, knob or orphan that went because nothing set or called
//! it. Scans every `.rs` file under `crates`, `src`, `tests` and `examples`
//! but this one. And no source file under `crates/*/src` grows past 900
//! lines before its test module (ROADMAP item 7), and the LP chain names
//! every tolerance it reads.

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
    "from_text",
    "to_text",
    "ParseError",
    "ParseErrorKind",
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

/// Most lines a source file under `crates/*/src` may hold before its test
/// module: past it, a file holds more than one decision.
const MAX_LINES_BEFORE_TESTS: usize = 900;

/// Lines before the first `#[cfg(test)]` followed by a `mod` line; the
/// whole file when there is none.
fn lines_before_tests(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let is_test_mod = |w: &[&str]| {
        w[0].trim() == "#[cfg(test)]" && w[1].split_whitespace().any(|token| token == "mod")
    };
    lines.windows(2).position(is_test_mod).unwrap_or(lines.len())
}

#[test]
fn no_source_file_is_over_900_lines_before_its_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let over: Vec<String> = files
        .iter()
        .filter_map(|path| {
            let lines = lines_before_tests(&std::fs::read_to_string(path).unwrap());
            let rel = path.strip_prefix(root).unwrap().display();
            (lines > MAX_LINES_BEFORE_TESTS).then(|| format!("{rel}: {lines}"))
        })
        .collect();
    assert!(
        over.is_empty(),
        "over {MAX_LINES_BEFORE_TESTS} lines before the test module:\n{}",
        over.join("\n")
    );
}

/// The LP chain: the simplex engine and the growth loop around it. Their
/// non-test code names every tolerance it reads as a documented `const`.
const NAMED_TOLERANCES: &[&str] = &["crates/linprog/src/simplex", "crates/core/src/pathgrow"];

/// The float literals with a negative exponent (`1e-7`, `2.5e-9`) in one
/// line of code, its `//` comment left out.
fn negative_exponent_literals(line: &str) -> Vec<&str> {
    let code = line.split_once("//").map_or(line, |(code, _)| code);
    let bytes = code.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let starts = bytes[i].is_ascii_digit()
            && (i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || b"_.".contains(&bytes[i - 1])));
        if !starts {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || b"_.".contains(&bytes[i])) {
            i += 1;
        }
        let exponent = bytes.get(i..i + 3).is_some_and(|e| {
            (e[0] == b'e' || e[0] == b'E') && e[1] == b'-' && e[2].is_ascii_digit()
        });
        if exponent {
            i += 2;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            found.push(&code[start..i]);
        }
    }
    found
}

/// Whether `line` declares a `const` item (`const`, `pub const`,
/// `pub(super) const`, …).
fn is_const_item(line: &str) -> bool {
    line.split_whitespace().find(|token| !token.starts_with("pub")) == Some("const")
}

#[test]
fn every_tolerance_of_the_lp_chain_is_a_named_const() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in NAMED_TOLERANCES {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut bare = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let rel = path.strip_prefix(root).unwrap().display();
        let code = text.lines().take(lines_before_tests(&text));
        for (n, line) in (1..).zip(code).filter(|(_, line)| !is_const_item(line)) {
            for literal in negative_exponent_literals(line) {
                bare.push(format!("{rel}:{n}: {literal}"));
            }
        }
    }
    assert!(
        bare.is_empty(),
        "{} bare tolerances; name each as a documented const in the module that decides it:\n{}",
        bare.len(),
        bare.join("\n")
    );
}

#[test]
fn the_census_reads_literals_and_const_items() {
    assert_eq!(
        negative_exponent_literals("x <= 1e-7 && y > -2.5E-12 // not 3e-4"),
        ["1e-7", "2.5E-12"]
    );
    assert_eq!(negative_exponent_literals("1e-9"), ["1e-9"]);
    assert!(negative_exponent_literals("x1e-7 + 1e7 + 0x1e - 7 + 1.5").is_empty());
    assert!(is_const_item("    pub(super) const FITS: f64 = 1e-7;"));
    assert!(is_const_item("const M1: f64 = 1e-3;"));
    assert!(!is_const_item("    let tol = 1e-7; // const"));
}
