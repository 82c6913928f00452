//! The ledger of pinned bits, `tests/pinned.tsv`: one `name<TAB>words` row
//! (hex, space-separated) per value a test holds to the bit. A producer
//! includes this file with `#[path]` and calls [`assert_pinned`] with a
//! literal name; `just regolden` re-records every row from the files the
//! calls write, and `git diff` names the moved ones.

use std::path::PathBuf;

/// The ledger as committed, compiled in: an edit to it rebuilds its tests.
const LEDGER: &str = include_str!("../pinned.tsv");

/// `target/tmp/pinned/<name>.tsv`: a test binary sits in
/// `<target>/<profile>/deps`.
fn produced(name: &str) -> PathBuf {
    let exe = std::env::current_exe().unwrap();
    let target = exe.ancestors().nth(3).expect("a test binary under <target>/<profile>/deps");
    target.join("tmp").join("pinned").join(format!("{name}.tsv"))
}

/// Writes `name`'s row as this run computes it, then holds it to the
/// ledger's row of that name, word for word.
pub fn assert_pinned(name: &str, words: &[u64]) {
    let now: Vec<String> = words.iter().map(|w| format!("{w:#x}")).collect();
    let row = format!("{name}\t{}\n", now.join(" "));
    let path = produced(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, &row).unwrap();
    let Some(pinned) = LEDGER.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix('\t'))
    else {
        panic!("tests/pinned.tsv has no row `{name}`; add {row:?} (`just regolden` adds it)");
    };
    let pinned: Vec<&str> = pinned.split(' ').collect();
    let word = |i: usize| (pinned.get(i).copied(), now.get(i).map(String::as_str));
    if let Some(at) = (0..pinned.len().max(now.len())).find(|&i| word(i).0 != word(i).1) {
        let (was, is) = word(at);
        panic!(
            "pinned `{name}` moved at word {at}: ledger {} -> now {}\n  this run's row: {}\n  \
             re-record: just regolden",
            was.unwrap_or("<none>"),
            is.unwrap_or("<none>"),
            path.display()
        );
    }
}
