//! The scale campaign's command line: parses the flags, runs the tier defined in
//! [`renaissance_bench::campaign`], writes its artifact and prints the summary.

use renaissance_bench::campaign::{self, Tier};
use renaissance_bench::cli::{self, Flag};
use renaissance_bench::output::OutputFormat;
use renaissance_bench::report::{print_table, Table};

const ABOUT: &str = "Scale campaign: topology family x size x fault scenario sweep, \
emitting BENCH_scale.json (--out PATH, --format json|csv), one result cell per line";

const EXTRA_FLAGS: &[Flag] = &[
    Flag {
        name: "--smoke",
        value_name: None,
        help: "tiny sizes, 1 seed: the smoke tier (BENCH_scale_smoke.json)",
    },
    Flag {
        name: "--large",
        value_name: None,
        help: "scale-large tier: fat_tree(16) and jellyfish(1024, 8, 1), 1 seed",
    },
];

fn main() {
    let args = cli::parse(ABOUT, EXTRA_FLAGS);
    let tier = match (args.switch("--smoke"), args.switch("--large")) {
        (true, true) => cli::die("--smoke and --large name different tiers; give at most one"),
        (true, false) => Tier::Smoke,
        (false, true) => Tier::Large,
        (false, false) => Tier::Full,
    };
    let out = args.value("--out").unwrap_or(tier.default_out());
    // The shared validator keeps --format semantics identical across every binary.
    let csv = OutputFormat::from_args(&args) == OutputFormat::Csv;
    let scale = tier.scale().with_args(&args);

    let campaign = campaign::run(tier, &scale);
    let text = if csv { campaign.csv() } else { campaign.json() };
    std::fs::write(out, text).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));

    print_table(&Table {
        title: format!(
            "Scale campaign ({} mode) — medians over {} run(s), artifact: {out}",
            tier.name(),
            scale.runs
        ),
        headers: vec!["switches", "boot med s", "recov med s", "conv"],
        rows: campaign.rows,
        trailer: Vec::new(),
    });
}
