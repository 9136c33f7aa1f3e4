// stancheck-fixture: crate=core kind=bin
//! The production caller of `lib.rs`.

struct Stats {
    total: u32,
}

fn main() {
    println!("{} {} {}", used_by_caller(), describe(), hook());
    let stats = Stats { total: 6 };
    println!("{} {}", stats.total, stats.tally::<u32>());
}
