//! A closed-loop RSR ping-pong with one ping in flight: the driver
//! context sends a seeded payload to an echo context, whose handler
//! sends it straight back. Every pong is checked for its payload and
//! sequence number. Used by `dual-pingpong` and by `bulk`'s control ping.

use crate::common::{payload, verify, OP_TIMEOUT};
use crate::trace;
use nexus_rt::prelude::*;
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct State {
    seq: u64,
    op: u64,
    len: usize,
    in_flight: bool,
    issued_at: u64,
    ping_sent_at: u64,
    ping_span: u32,
    pong_sent_at: u64,
    pong_span: u32,
    pong_err: Option<String>,
    /// Set by the pong handler: (handler entry time, output correct).
    done: Option<(u64, bool)>,
    /// Pongs that arrived with no ping outstanding.
    strays: u64,
}

/// How a finished round trip ended.
pub enum Completion {
    /// Round-trip time in ns, and the payload bytes each way.
    Ok {
        rtt_ns: u64,
        bytes: usize,
    },
    Failed(String),
}

pub struct PingPong {
    to_echo: Startpoint,
    ping: String,
    series: u64,
    sizes: Vec<usize>,
    pattern: Arc<Vec<u8>>,
    state: Arc<Mutex<State>>,
}

impl PingPong {
    /// Installs series `series` between `driver` and `echo`.
    /// `deliver` names the wait span of each direction (for example
    /// `wait.deliver.tcp`).
    pub fn new(
        driver: &Context,
        echo: &Context,
        series: u64,
        deliver: &'static str,
        sizes: Vec<usize>,
        pattern: Vec<u8>,
    ) -> Result<PingPong> {
        let ping = format!("ping{series}");
        let pong = format!("pong{series}");
        let state = Arc::new(Mutex::new(State::default()));
        let pattern = Arc::new(pattern);

        let driver_ep = driver.create_endpoint();
        let back = driver.startpoint_to(driver_ep)?;
        let st = Arc::clone(&state);
        echo.register_handler(&ping, move |args| {
            let entry = trace::now_ns();
            let (op, sent, parent) = {
                let s = st.lock().expect("ping state");
                (s.op, s.ping_sent_at, s.ping_span)
            };
            let len = args.buffer.len() as u64;
            trace::record(deliver, op, parent, sent, entry, len);
            let (sent, _) = trace::span("handler.echo", op, || {
                trace::span("context.rsr", op, || {
                    args.context.rsr(&back, &pong, args.buffer.clone())
                })
            });
            let (r, span) = sent;
            let mut s = st.lock().expect("ping state");
            s.pong_sent_at = trace::now_ns();
            s.pong_span = span;
            if let Err(e) = r {
                s.pong_err = Some(format!("pong rsr: {e}"));
            }
        });

        let st = Arc::clone(&state);
        let pat = Arc::clone(&pattern);
        driver.register_handler(&format!("pong{series}"), move |args| {
            let entry = trace::now_ns();
            let mut s = st.lock().expect("ping state");
            trace::record(
                deliver,
                s.op,
                s.pong_span,
                s.pong_sent_at,
                entry,
                args.buffer.len() as u64,
            );
            let (ok, _) = trace::span("handler.pong", s.op, || {
                verify(args.buffer.as_slice(), s.seq, &pat, s.len)
            });
            if s.in_flight && s.done.is_none() {
                s.done = Some((entry, ok));
            } else {
                s.strays += 1;
            }
        });

        let echo_ep = echo.create_endpoint();
        let to_echo = echo.startpoint_to(echo_ep)?;
        Ok(PingPong {
            to_echo,
            ping: format!("ping{series}"),
            series,
            sizes,
            pattern,
            state,
        })
    }

    pub fn in_flight(&self) -> bool {
        self.state.lock().expect("ping state").in_flight
    }

    /// Sends the next scheduled ping on `via` (or the default link).
    /// Returns the op id.
    pub fn issue(&self, driver: &Context, via: Option<&Startpoint>) -> Result<u64> {
        let (seq, len) = {
            let s = self.state.lock().expect("ping state");
            let seq = s.seq + 1;
            (seq, self.sizes[seq as usize % self.sizes.len()])
        };
        let buf = payload(seq, &self.pattern, len);
        // Op ids keep the series in the high bits, so sampling by op id
        // picks the same sequence numbers from every series.
        let op = (self.series << 40) | seq;
        {
            let mut s = self.state.lock().expect("ping state");
            s.seq = seq;
            s.op = op;
            s.len = len;
            s.in_flight = true;
            s.done = None;
            s.pong_err = None;
            s.issued_at = trace::now_ns();
        }
        let sp = via.unwrap_or(&self.to_echo);
        let (r, span) = trace::span("context.rsr", op, || driver.rsr(sp, &self.ping, buf));
        let mut s = self.state.lock().expect("ping state");
        s.ping_sent_at = trace::now_ns();
        s.ping_span = span;
        r.map(|()| op)
    }

    /// Collects the outstanding round trip if it has finished (or has
    /// exceeded the op timeout), recording its `op.rtt` root span.
    pub fn completion(&self) -> Option<Completion> {
        let mut s = self.state.lock().expect("ping state");
        if !s.in_flight {
            return None;
        }
        if s.strays > 0 {
            s.in_flight = false;
            return Some(Completion::Failed(format!("{} stray pongs", s.strays)));
        }
        if let Some(e) = s.pong_err.take() {
            s.in_flight = false;
            return Some(Completion::Failed(e));
        }
        match s.done {
            Some((at, ok)) => {
                s.in_flight = false;
                if !ok {
                    return Some(Completion::Failed(format!(
                        "pong {} of {} B did not echo the ping",
                        s.seq, s.len
                    )));
                }
                trace::record("op.rtt", s.op, trace::NONE, s.issued_at, at, s.len as u64);
                Some(Completion::Ok {
                    rtt_ns: at.saturating_sub(s.issued_at),
                    bytes: s.len,
                })
            }
            None => {
                let waited = trace::now_ns().saturating_sub(s.issued_at);
                if waited > OP_TIMEOUT.as_nanos() as u64 {
                    s.in_flight = false;
                    Some(Completion::Failed(format!("ping {} timed out", s.seq)))
                } else {
                    None
                }
            }
        }
    }
}
