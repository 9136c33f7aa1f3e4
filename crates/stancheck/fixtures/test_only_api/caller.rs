// stancheck-fixture: crate=core kind=bin
//! The production caller of `lib.rs`.

fn main() {
    println!("{} {} {}", used_by_caller(), describe(), hook());
}
