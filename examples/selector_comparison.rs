//! Head-to-head selector comparison (a miniature of the paper's Figure 4):
//! the same windowed echo workload through the Reptor comm stack, once over
//! the Java-NIO-style TCP selector and once over the RUBIN RDMA selector,
//! on a single simulated machine.
//!
//! Run with: `cargo run --release --example selector_comparison`

use bench::fig4;

fn main() {
    println!(
        "echo through the Reptor comm stack (window {}, batching {}), one machine\n",
        fig4::WINDOW,
        fig4::BATCH
    );
    println!(
        "{:>10} {:>14} {:>14} {:>9} | {:>12} {:>12} {:>9}",
        "payload", "RUBIN lat(us)", "NIO lat(us)", "gain", "RUBIN rps", "NIO rps", "gain"
    );
    for payload in [1024usize, 8 * 1024, 64 * 1024] {
        let (rubin, _) = fig4::rubin_selector_echo(payload, 60);
        let (nio, _) = fig4::nio_selector_echo(payload, 60);
        println!(
            "{:>9}K {:>14.1} {:>14.1} {:>8.0}% | {:>12.0} {:>12.0} {:>8.0}%",
            payload / 1024,
            rubin.latency_us,
            nio.latency_us,
            (1.0 - rubin.latency_us / nio.latency_us) * 100.0,
            rubin.rps,
            nio.rps,
            (rubin.rps / nio.rps - 1.0) * 100.0,
        );
    }
    println!(
        "\nthe RUBIN selector multiplexes RDMA channels the way NIO multiplexes sockets\n\
         (paper §III), so the BFT framework above it is unchanged — only faster."
    );
}
