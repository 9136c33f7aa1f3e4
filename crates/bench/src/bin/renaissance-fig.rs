//! `renaissance-fig <id>... | --all`: regenerates the tables and figures of the paper's
//! evaluation from the registry in [`renaissance_bench::figures`].

use renaissance_bench::{cli, figures, output::OutSink, print_table};

fn main() {
    let args = cli::parse(&figures::about(), figures::FLAGS);
    // Resolve every id and every figure's scale first: a typo exits 2 before any
    // run starts and before `--out` is created.
    let selected: Vec<_> = figures::select(&args)
        .into_iter()
        .map(|figure| (figure, figure.scale(&args)))
        .collect();
    let mut out = OutSink::from_args(&args);
    for (figure, scale) in &selected {
        print_table(&(figure.run)(scale, &mut out));
    }
    out.finish();
}
