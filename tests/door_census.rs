//! The door census: one way per operation (ROADMAP, "Quality of design").
//! A twin that builds its own path cache, LP context, worker count or
//! solver options fails the suite if its name comes back, and so does a
//! config struct, knob or orphan that went because nothing set or called
//! it. Scans every `.rs` file under `crates`, `src`, `tests` and `examples`
//! but this one. And no source file under `crates/*/src` grows past 900
//! lines before its test module (ROADMAP item 7), the LP chain names
//! every tolerance it reads, the binaries have one way out for a bad
//! input, and no `RangeError::check` formats its value before it fails.

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
    "or_exit",
    "read_or_die",
    "parse_csv",
    "build_list",
    "run_grid_replay",
    "run_scenarios",
    "run_with_resources",
    "select_networks",
    "graph_with_headroom",
    "print_records_header",
    "print_records_rows",
];

/// Deleted doors named by an English word, matched in code only: in a `//`
/// comment the word is prose.
const GONE_IN_CODE: &[&str] = &["fixed"];

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
            let code = line.split("//").next().unwrap_or_default();
            let code_idents = code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for ident in code_idents.filter(|ident| GONE_IN_CODE.contains(ident)) {
                hits.push(format!("{}:{n}: {ident}", rel.display()));
            }
            if !linprog && line.contains(PRIVATE_TO_LINPROG) {
                hits.push(format!("{}:{n}: {PRIVATE_TO_LINPROG}", rel.display()));
            }
        }
    }
    assert!(hits.is_empty(), "deleted doors are back:\n{}", hits.join("\n"));
}

/// The one place under `crates/sim/src` that ends the process: the
/// printer every binary hands a bad input to.
const THE_PRINTER: &str = "crates/sim/src/runner.rs";

#[test]
fn only_the_runners_printer_exits() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/sim/src"), &mut files);
    files.sort();
    let mut exits = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in (1..).zip(text.lines()) {
            if line.contains("process::exit") {
                exits.push(format!("{}:{n}: {}", rel.display(), line.trim()));
            }
        }
    }
    assert_eq!(exits.len(), 1, "one process::exit, in the runner's printer:\n{}", exits.join("\n"));
    assert!(exits[0].starts_with(THE_PRINTER), "{}", exits[0]);
}

/// The one file under `crates/sim/src` that lays out a table: every other
/// one names its columns on a `Row` and leaves the tabs to it.
const THE_TABLE_WRITER: &str = "crates/sim/src/output.rs";

/// The 1-based lines of `text` where a string literal holds a `\t` escape.
/// A string continued across lines counts on each line it has one; `//`
/// comments and char literals (`'\t'`, `'"'`) are skipped.
fn lines_with_tab_in_a_string(text: &str) -> Vec<usize> {
    let chars: Vec<char> = text.chars().collect();
    let (mut lines, mut line, mut in_string, mut i) = (Vec::new(), 1, false, 0);
    while i < chars.len() {
        let next = chars.get(i + 1).copied();
        match chars[i] {
            '\n' => line += 1,
            '\\' if in_string => {
                if next == Some('t') && lines.last() != Some(&line) {
                    lines.push(line);
                }
                line += usize::from(next == Some('\n'));
                i += 1;
            }
            '"' => in_string = !in_string,
            '/' if !in_string && next == Some('/') => {
                while i + 1 < chars.len() && chars[i + 1] != '\n' {
                    i += 1;
                }
            }
            '\'' if !in_string => {
                // A char literal: `'x'` or `'\x'`; a lifetime has no closing quote.
                let escaped = next == Some('\\');
                let close = i + if escaped { 3 } else { 2 };
                if chars.get(close) == Some(&'\'') {
                    i = close;
                }
            }
            _ => {}
        }
        i += 1;
    }
    lines
}

#[test]
fn only_the_table_writer_lays_out_tabs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates/sim/src"), &mut files);
    files.sort();
    let mut tabs = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap();
        if rel == Path::new(THE_TABLE_WRITER) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for n in lines_with_tab_in_a_string(&text) {
            tabs.push(format!("{}:{n}: {}", rel.display(), lines[n - 1].trim()));
        }
    }
    assert!(
        tabs.is_empty(),
        "{} lines lay out a table by hand; build an `output::Row` and print it with \
         `output::print_rows`:\n{}",
        tabs.len(),
        tabs.join("\n")
    );
}

#[test]
fn the_census_finds_tabs_in_strings_only() {
    let text = "let a = \"x\\ty\";\n\
                let b = '\\t'; // \"\\t\"\n\
                let c = \"a\\\n\
                \\tb\";\n\
                let d: &'static str = \"\\\\t\";\n\
                let e = '\"'; let f = \"\\t\";\n";
    assert_eq!(lines_with_tab_in_a_string(text), [1, 4, 6]);
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

/// What a `RangeError::check` argument must not do: build text. `check`
/// formats its value only when the check fails; an argument that formats
/// itself pays for an error message on every check that passes.
const EAGER_TEXT: &[&str] = &["format!(", ".to_string()"];

/// Each `RangeError::check(` call in `text`: the 1-based line it starts on
/// and its argument list, up to the parenthesis that closes it across any
/// number of lines. Parentheses inside string and char literals do not
/// count.
fn check_arguments(text: &str) -> Vec<(usize, &str)> {
    const CALL: &str = "RangeError::check(";
    let bytes = text.as_bytes();
    let mut calls = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(CALL).map(|i| from + i) {
        let start = at + CALL.len();
        let (mut depth, mut in_string, mut i) = (1, false, start);
        while i < bytes.len() && depth > 0 {
            match bytes[i] {
                b'\\' if in_string => i += 1,
                b'"' => in_string = !in_string,
                b'\'' if !in_string && bytes.get(i + 2) == Some(&b'\'') => i += 2,
                b'(' if !in_string => depth += 1,
                b')' if !in_string => depth -= 1,
                _ => {}
            }
            i += 1;
        }
        let line = 1 + text[..at].matches('\n').count();
        calls.push((line, &text[start..i.saturating_sub(1)]));
        from = i;
    }
    calls
}

#[test]
fn no_range_check_builds_its_text_before_it_fails() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut eager = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap();
        if rel == Path::new(file!()) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, args) in check_arguments(&text) {
            if EAGER_TEXT.iter().any(|build| args.contains(build)) {
                let args = args.split_whitespace().collect::<Vec<_>>().join(" ");
                eager.push(format!("{}:{n}: RangeError::check({args})", rel.display()));
            }
        }
    }
    assert!(
        eager.is_empty(),
        "{} range checks format their value before they know it is wrong; pass a value \
         that implements `Display` (or `format_args!`) and let `check` format it on failure:\n{}",
        eager.len(),
        eager.join("\n")
    );
}

#[test]
fn the_census_reads_whole_check_calls() {
    let text = "RangeError::check(ok, \"k\", k, \"at least 1\")?;\n\
                RangeError::check(\n    ok,\n    \"dst\",\n    at(a, format!(\"{:?}\", a.dst)),\n    \
                \"a PoP other than (src)\",\n)?;\n\
                let c = ')'; RangeError::check(f(g(x)), \"v\", v.to_string(), \")(\")?;\n";
    let calls = check_arguments(text);
    assert_eq!(calls.iter().map(|&(n, _)| n).collect::<Vec<_>>(), [1, 2, 8]);
    assert_eq!(calls[0].1, "ok, \"k\", k, \"at least 1\"");
    assert!(calls[1].1.contains("format!(") && calls[1].1.ends_with("(src)\",\n"));
    assert_eq!(calls[2].1, "f(g(x)), \"v\", v.to_string(), \")(\"");
    let eager = |args: &str| EAGER_TEXT.iter().any(|build| args.contains(build));
    assert_eq!(calls.iter().map(|&(_, args)| eager(args)).collect::<Vec<_>>(), [false, true, true]);
}
