//! `bench <name> [args]` runs one experiment of the evaluation table;
//! `bench all` runs every experiment at the arguments CI uses. Sidecars go
//! to `target/bench/<name>.json`; any failed check exits 1.

fn main() -> std::process::ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    bench::rows::run(&argv, std::path::Path::new("target/bench")).into()
}
