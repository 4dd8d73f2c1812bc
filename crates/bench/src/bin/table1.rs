//! Regenerates Table I and prints its render (see README.md, *Benchmarks*).

fn main() {
    let cfg = foss_bench::run_config_from_env();
    eprintln!("running Table I with {cfg:?} ...");
    let tables = foss_harness::table1::run(&cfg).expect("table1 run");
    println!("{}", foss_harness::table1::render(&tables));
}
