//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints the run environment, every metric by name with its unit, the
//! oracle's findings, and (traced runs) the span self-time table; then,
//! as the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Writes the full record, and for
//! traced runs the spans, under `out/` in the benchmark's directory.

use eternal_perfbench::host;
use eternal_perfbench::report::{self, Args};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload steady_small|recovery_350k|crash_failover \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = report::run(&args);

    let name = args.workload.name();
    let env: Vec<String> = host::environment(args.seed)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# {name} trace={} {}", u8::from(args.trace), env.join(" "));
    for m in report.metrics.iter().chain(&report.details) {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("! {note}");
    }
    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let stem = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let mut files = vec![(
        out.join(format!("{stem}.json")),
        report::results_json(&args, &report),
    )];
    if let Some((spans, table)) = &report.spans {
        print!("{table}");
        let env = report::environment_json(args.seed);
        let body = format!("{{\"environment\": {env}, \"spans\": {spans}}}\n");
        files.push((out.join(format!("{stem}-spans.json")), body));
    }
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, body)| std::fs::write(path, body))
    });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            out.display()
        );
        return ExitCode::FAILURE;
    }
    println!("{}", report::result_line(&report));
    ExitCode::SUCCESS
}
