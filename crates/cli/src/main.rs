//! `tacc` — configure edge clusters from the command line.
//!
//! ```text
//! tacc solve     --devices 100 --servers 10 --algorithm q-learning
//! tacc compare   --devices 100 --servers 10 --load 0.85
//! tacc simulate  --devices 100 --servers 10 --deadline-ms 50
//! tacc gen-trace --devices 100 --servers 10 --events 500 --out trace.json
//! tacc run-trace --trace trace.json --seed 42
//! tacc chaos     --profile partition --events 100 --crash-every 7
//! tacc serve     --listen 127.0.0.1:7077 --journal session.jsonl
//! tacc client    --connect 127.0.0.1:7077 --drive trace.json --burst 64
//! tacc bench-report --out .
//! tacc obs-report --devices 50 --servers 5 --events 200
//! tacc algorithms | tacc families
//! ```

use std::process::ExitCode;

use tacc_cli::commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let run: fn(&[String]) -> Result<(), String> = match command.as_str() {
        "solve" => commands::solve,
        "compare" => commands::compare,
        "simulate" => commands::simulate,
        "topology" => commands::topology,
        "gen-trace" => commands::gen_trace,
        "run-trace" => commands::run_trace,
        "chaos" => commands::chaos,
        "serve" => commands::serve,
        "client" => commands::client,
        "bench-report" => commands::bench_report,
        "obs-report" => commands::obs_report,
        "algorithms" => commands::algorithms,
        "families" => commands::families,
        "help" | "--help" | "-h" => |_| {
            println!("{}", commands::USAGE);
            Ok(())
        },
        other => {
            eprintln!("error: unknown command `{other}`\n\n{}", commands::USAGE);
            return ExitCode::FAILURE;
        }
    };
    // `<command> --help` prints the usage instead of running the command.
    let result = if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        println!("{}", commands::USAGE);
        Ok(())
    } else {
        run(rest)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
