//! Host fingerprint and the in-run references every result carries, so a
//! number is judged against the machine it was measured on.

use crate::stats::median;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// nproc, CPU model, kernel, rustc version and reactor backend, as a JSON
/// object.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    let reactor = nexus_transports::reactor::Reactor::global()
        .and_then(|r| r.backend_name())
        .unwrap_or("none");
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"reactor\": {}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(reactor)
    )
}

/// Peak resident set size of this process so far (MB), from VmHWM.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// (steal, all) CPU time of the whole machine so far, in clock ticks,
/// from the first line of /proc/stat; `None` where it is unreadable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings. The lockstep workloads slow down far more
/// than this share, so a run with a high value is a noisy run.
pub fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, a0)), Some((s1, a1))) if a1 > a0 => (s1 - s0) as f64 / (a1 - a0) as f64,
        _ => 0.0,
    }
}

/// Median round trip (us) of a blocking 16 B ping-pong over a plain
/// loopback TCP connection with an echo thread: the analogue of Fig. 4's
/// raw-MPL series, with no runtime in the path.
pub fn raw_tcp_rtt_us(window: Duration) -> std::io::Result<f64> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut s, _) = listener.accept()?;
        s.set_nodelay(true)?;
        let mut b = [0u8; 16];
        // Ends when the client closes its side.
        while s.read_exact(&mut b).is_ok() {
            s.write_all(&b)?;
        }
        Ok(())
    });
    let mut c = TcpStream::connect(addr)?;
    c.set_nodelay(true)?;
    let mut rtts = Vec::new();
    let mut b = [7u8; 16];
    let end = Instant::now() + window;
    let mut i = 0u64;
    while Instant::now() < end || rtts.len() < 100 {
        b[..8].copy_from_slice(&i.to_le_bytes());
        let t = Instant::now();
        c.write_all(&b)?;
        c.read_exact(&mut b)?;
        rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
        if b[..8] != i.to_le_bytes() {
            return Err(std::io::Error::other("raw echo returned the wrong bytes"));
        }
        i += 1;
    }
    drop(c);
    echo.join()
        .map_err(|_| std::io::Error::other("raw echo thread panicked"))??;
    Ok(median(&rtts))
}

/// Median copy bandwidth (GB/s) of a 4 MiB memcpy.
pub fn memcpy_gbps(window: Duration) -> f64 {
    const LEN: usize = 4 << 20;
    let src: Vec<u8> = (0..LEN).map(|i| i as u8).collect();
    let mut dst = vec![0u8; LEN];
    let mut rates = Vec::new();
    let end = Instant::now() + window;
    while Instant::now() < end || rates.len() < 5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        rates.push(LEN as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}
