//! Shared by the integration tests that hold a binary's output to a committed file.

use std::path::PathBuf;

/// Panics unless `current` equals the committed root file `name` byte for byte,
/// naming the first differing line (a campaign artifact holds one result cell per
/// line, so the line names the cell) and column, and the command that regenerates the
/// file.
pub fn assert_equals_committed(current: &str, name: &str, regenerate: &str) {
    let committed = read_committed(name);
    if current == committed {
        return;
    }
    let line = current
        .lines()
        .zip(committed.lines())
        .position(|(c, g)| c != g)
        .unwrap_or_else(|| current.lines().count().min(committed.lines().count()));
    let (theirs, ours) = (
        committed.lines().nth(line).unwrap_or(""),
        current.lines().nth(line).unwrap_or(""),
    );
    let column = theirs
        .chars()
        .zip(ours.chars())
        .take_while(|(t, o)| t == o)
        .count();
    let around = |text: &str| -> String {
        let from = column.saturating_sub(60);
        text.chars().skip(from).take(120).collect()
    };
    panic!(
        "output differs from {name}, first at line {} column {}:\n  committed: {}\n  \
         current:   {}\nIf simulated behaviour or the layout was meant to change, \
         regenerate it and say why in the PR:\n  {regenerate}",
        line + 1,
        column + 1,
        around(theirs),
        around(ours),
    );
}

/// The committed root file `name`.
pub fn read_committed(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {name}: {e}"))
}
