//! Leveled, structured JSON-lines event log.
//!
//! Events are one JSON object per line: sequence number, level, target,
//! message, the current span path, and free-form fields. The sink is a
//! bounded in-memory ring buffer (drainable in tests and dumpable on
//! demand). Event emission takes one short mutex on the sink — events
//! are diagnostics, not the metrics hot path.

use parking_lot::Mutex;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;

/// Event severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained diagnostics.
    Debug = 0,
    /// Normal operational events.
    Info = 1,
    /// Something degraded (backoff, retry, rejection).
    Warn = 2,
    /// Something failed.
    Error = 3,
}

impl Level {
    fn as_u8(self) -> u8 {
        // Discriminants are 0..=3 by definition.
        self as u8
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Debug,
            1 => Level::Info,
            2 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// The bounded in-memory line buffer events land in.
#[derive(Debug)]
struct Sink {
    lines: VecDeque<String>,
    cap: usize,
}

/// The event log. One global instance exists (see [`crate::events`]).
#[derive(Debug)]
pub struct EventLog {
    min_level: AtomicU8,
    seq: AtomicU64,
    started: Instant,
    sink: Mutex<Sink>,
}

impl Default for EventLog {
    #[expect(clippy::disallowed_methods, reason = "event uptime is host time")]
    fn default() -> EventLog {
        EventLog {
            min_level: AtomicU8::new(Level::Info.as_u8()),
            seq: AtomicU64::new(0),
            started: Instant::now(),
            sink: Mutex::new(Sink {
                lines: VecDeque::new(),
                cap: 4096,
            }),
        }
    }
}

impl EventLog {
    /// A fresh log buffering up to 4096 lines at `Info`.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Drops events below `level`.
    pub fn set_min_level(&self, level: Level) {
        self.min_level.store(level.as_u8(), Ordering::Relaxed);
    }

    /// The current minimum level.
    pub fn min_level(&self) -> Level {
        Level::from_u8(self.min_level.load(Ordering::Relaxed))
    }

    /// Emits one event. `fields` become additional JSON members.
    pub fn emit(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
        if level < self.min_level() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        #[expect(clippy::cast_possible_truncation, reason = "uptime ms fit u64")]
        let uptime_ms = self.started.elapsed().as_millis() as u64;
        let mut members: Vec<(String, Value)> = vec![
            ("seq".into(), Value::UInt(seq)),
            ("uptime_ms".into(), Value::UInt(uptime_ms)),
            ("level".into(), Value::Str(level.as_str().into())),
            ("target".into(), Value::Str(target.into())),
            ("msg".into(), Value::Str(msg.into())),
        ];
        let span = crate::current_path();
        if !span.is_empty() {
            members.push(("span".into(), Value::Str(span)));
        }
        for (k, v) in fields {
            members.push(((*k).to_owned(), v.clone()));
        }
        #[expect(clippy::expect_used, reason = "a Value tree always serializes")]
        let line =
            serde_json::to_string(&Value::Object(members)).expect("a Value tree always serializes");
        let mut sink = self.sink.lock();
        if sink.lines.len() == sink.cap {
            sink.lines.pop_front();
        }
        sink.lines.push_back(line);
    }

    /// Removes and returns every buffered line.
    pub fn drain(&self) -> Vec<String> {
        self.sink.lock().lines.drain(..).collect()
    }

    /// Copies the buffered lines without draining.
    pub fn lines(&self) -> Vec<String> {
        self.sink.lock().lines.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_json_lines_with_levels() {
        let log = EventLog::new();
        log.emit(Level::Debug, "t", "dropped", &[]);
        log.emit(
            Level::Warn,
            "net.client",
            "backing off",
            &[("wait_ms", Value::UInt(250)), ("attempt", Value::UInt(2))],
        );
        let lines = log.drain();
        assert_eq!(lines.len(), 1, "debug below default min level");
        let v: Value = serde_json::from_str(&lines[0]).expect("valid json line");
        let obj = serde::de::as_object(&v, "event line").expect("object");
        let get = |k: &str| serde::de::get(obj, k).cloned().expect(k);
        assert_eq!(get("level"), Value::Str("warn".into()));
        assert_eq!(get("target"), Value::Str("net.client".into()));
        // The shim parser reads integers that fit as `Int`.
        assert_eq!(get("wait_ms"), Value::Int(250));
    }

    #[test]
    fn min_level_is_adjustable() {
        let log = EventLog::new();
        log.set_min_level(Level::Debug);
        log.emit(Level::Debug, "t", "kept", &[]);
        assert_eq!(log.drain().len(), 1);
        log.set_min_level(Level::Error);
        log.emit(Level::Warn, "t", "dropped", &[]);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn buffer_is_bounded() {
        let log = EventLog::new();
        for i in 0..5000 {
            log.emit(Level::Info, "t", &format!("m{i}"), &[]);
        }
        let lines = log.lines();
        assert_eq!(lines.len(), 4096);
        assert!(lines[0].contains("m904"), "oldest lines evicted");
    }
}
