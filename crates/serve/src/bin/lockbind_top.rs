//! `lockbind_top`: live per-tenant console view of a running
//! `lockbind-serve` daemon.
//!
//! Polls the `introspect` wire kind on a fixed interval and renders a
//! table: requests/s over the telemetry window, in-flight count,
//! windowed p50/p99 latency, shed fraction, and two-window SLO burn.
//! Plain line output by default (CI-friendly); `--clear` repaints the
//! terminal like `top(1)`.

use lockbind_obs::Json;
use lockbind_serve::client::{response_status, ServeClient};
use lockbind_serve::proto::make_request;

fn usage() -> ! {
    eprintln!(
        "usage: lockbind_top [--addr HOST:PORT] [--interval-ms MS] [--iterations N] [--clear]\n\
         \n\
         --addr HOST:PORT   daemon address (default 127.0.0.1:7641)\n\
         --interval-ms MS   poll period, 50..=60000 (default 1000)\n\
         --iterations N     frames to render before exiting; 0 = until killed (default 0)\n\
         --clear            repaint the terminal each frame (ANSI clear)"
    );
    std::process::exit(2);
}

fn bad_arg(message: &str) -> ! {
    eprintln!("lockbind_top: {message}");
    usage();
}

fn parse_u64(flag: &str, value: &str, min: u64, max: u64) -> u64 {
    let parsed: u64 = value
        .parse()
        .unwrap_or_else(|_| bad_arg(&format!("{flag}: '{value}' is not a non-negative integer")));
    if !(min..=max).contains(&parsed) {
        bad_arg(&format!("{flag}: must be between {min} and {max}"));
    }
    parsed
}

fn render_frame(snapshot: &Json) -> String {
    let uint = |doc: &Json| doc.as_u64().unwrap_or(0);
    let float = |doc: &Json| doc.as_f64().unwrap_or(0.0);
    let mut out = String::new();
    let window_ms = uint(&snapshot["window_ms"]).max(1);
    let uptime_s = uint(&snapshot["uptime_us"]) as f64 / 1e6;
    let flight = &snapshot["flight"];
    out.push_str(&format!(
        "lockbind-serve | up {uptime_s:.1}s | window {:.1}s | flight events {} dumps {}\n",
        window_ms as f64 / 1e3,
        uint(&flight["recorded"]),
        uint(&flight["dumps"]),
    ));
    if let Some(l) = snapshot.get("latency_us") {
        out.push_str(&format!(
            "global (window): {} obs | p50 {} us | p90 {} us | p99 {} us | p999 {} us | max {} us\n",
            uint(&l["count"]),
            uint(&l["p50"]),
            uint(&l["p90"]),
            uint(&l["p99"]),
            uint(&l["p999"]),
            uint(&l["max"]),
        ));
    }
    out.push_str(&format!(
        "{:<16} {:>8} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}\n",
        "TENANT", "RPS", "INFLIGHT", "P50US", "P99US", "SHED%", "BURN-S", "BURN-L"
    ));
    let tenants = match &snapshot["tenants"] {
        Json::Array(items) => items.as_slice(),
        _ => &[],
    };
    for t in tenants {
        let window_requests = uint(&t["window_requests"]);
        let rps = window_requests as f64 * 1000.0 / window_ms as f64;
        let shed_pct = if window_requests > 0 {
            uint(&t["window_shed"]) as f64 * 100.0 / window_requests as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<16} {:>8.1} {:>9} {:>9} {:>9} {:>6.1}% {:>7.2} {:>7.2}\n",
            t["tenant"].as_str().unwrap_or("?"),
            rps,
            uint(&t["inflight"]),
            uint(&t["latency_us"]["p50"]),
            uint(&t["latency_us"]["p99"]),
            shed_pct,
            float(&t["slo"]["burn_short"]),
            float(&t["slo"]["burn_long"]),
        ));
    }
    if tenants.is_empty() {
        out.push_str("(no tenants yet)\n");
    }
    out
}

fn main() {
    let mut addr = "127.0.0.1:7641".to_string();
    let mut interval_ms = 1000u64;
    let mut iterations = 0u64;
    let mut clear = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| bad_arg(&format!("{flag}: missing value")))
        };
        match arg.as_str() {
            "--addr" => addr = value_of("--addr"),
            "--interval-ms" => {
                interval_ms = parse_u64("--interval-ms", &value_of("--interval-ms"), 50, 60_000);
            }
            "--iterations" => {
                iterations = parse_u64("--iterations", &value_of("--iterations"), 0, u64::MAX);
            }
            "--clear" => clear = true,
            "--help" | "-h" => usage(),
            other => bad_arg(&format!("unknown argument '{other}'")),
        }
    }

    let mut client = ServeClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("lockbind_top: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut frame = 0u64;
    loop {
        frame += 1;
        let request = make_request(frame, "introspect", Vec::new());
        let outcome = match client.call(&request) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("lockbind_top: introspect failed: {e}");
                std::process::exit(1);
            }
        };
        if response_status(&outcome.response) != "ok" {
            eprintln!(
                "lockbind_top: introspect rejected: {}",
                outcome.response.render()
            );
            std::process::exit(1);
        }
        let snapshot = &outcome.response["result"];
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_frame(snapshot));
        if iterations > 0 && frame >= iterations {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
