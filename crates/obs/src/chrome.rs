//! chrome://tracing / Perfetto exporter.
//!
//! Writes the [Trace Event Format] JSON: one complete event (`"ph":"X"`)
//! per span, instant events as `"ph":"i"`, and metadata rows naming the
//! process and per-cell tracks. Spans are laid out with one *track per
//! experiment cell* (`tid` = cell index + 1; `tid` 0 is the driver), not
//! per OS thread — so the rendered trace is structurally identical at any
//! `--threads` value, and the worker that happened to run a cell is an
//! argument rather than a track.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::{write_escaped, write_f64};
use crate::trace::SpanRecord;

fn tid(span: &SpanRecord) -> u64 {
    span.cell.map_or(0, |c| c + 1)
}

/// Renders the trace document for `spans` (pre-sort with
/// [`crate::CollectingSink::drain_sorted`] for a stable event order).
///
/// Events are written straight into one string, in the compact form
/// [`crate::Json::render`] gives the same document: a trace holds
/// thousands of spans, and a value tree would cost each one an
/// allocation per key.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str(
        r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"lockbind"}}"#,
    );
    let mut tids: Vec<u64> = spans.iter().map(tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for t in tids {
        let _ = write!(
            out,
            r#",{{"name":"thread_name","ph":"M","pid":1,"tid":{t},"args":{{"name":"#
        );
        if t == 0 {
            out.push_str(r#""driver"}}"#);
        } else {
            let _ = write!(out, r#""cell {}"}}}}"#, t - 1);
        }
    }
    for span in spans {
        out.push_str(r#",{"name":"#);
        write_escaped(&mut out, span.name);
        out.push_str(if span.instant {
            r#","cat":"lockbind","ph":"i","ts":"#
        } else {
            r#","cat":"lockbind","ph":"X","ts":"#
        });
        write_f64(&mut out, span.start_ns as f64 / 1000.0);
        let _ = write!(out, r#","pid":1,"tid":{}"#, tid(span));
        if span.instant {
            out.push_str(r#","s":"t""#);
        } else {
            out.push_str(r#","dur":"#);
            write_f64(&mut out, span.dur_ns as f64 / 1000.0);
        }
        if span.worker.is_some() || !span.args.is_empty() {
            out.push_str(r#","args":{"#);
            let mut sep = "";
            if let Some(worker) = span.worker {
                let _ = write!(out, r#""worker":{worker}"#);
                sep = ",";
            }
            for (key, value) in &span.args {
                out.push_str(sep);
                write_escaped(&mut out, key);
                out.push(':');
                value.write_json(&mut out);
                sep = ",";
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str(r#"],"displayTimeUnit":"ms"}"#);
    out
}

/// Renders and writes the trace to `path`, creating parent directories.
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path, spans: &[SpanRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, chrome_trace(spans) + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::trace::ArgValue;

    /// The exporter as it was before it streamed: the document as a
    /// [`Json`] tree, rendered. Kept as the byte reference.
    fn chrome_trace_tree(spans: &[SpanRecord]) -> String {
        let leaf = |value: &ArgValue| match value {
            ArgValue::UInt(v) => Json::UInt(*v),
            ArgValue::Int(v) => Json::Float(*v as f64),
            ArgValue::Float(v) => Json::Float(*v),
            ArgValue::Str(s) => Json::Str(s.clone()),
            ArgValue::Bool(b) => Json::Bool(*b),
        };
        let mut events = vec![Json::obj([
            ("name", Json::from("process_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(0u64)),
            ("args", Json::obj([("name", Json::from("lockbind"))])),
        ])];
        let mut tids: Vec<u64> = spans.iter().map(tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for t in tids {
            let label = if t == 0 {
                "driver".to_string()
            } else {
                format!("cell {}", t - 1)
            };
            events.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(t)),
                ("args", Json::obj([("name", Json::from(label))])),
            ]));
        }
        for span in spans {
            let mut args: Vec<(String, Json)> = Vec::new();
            if let Some(worker) = span.worker {
                args.push(("worker".to_string(), Json::from(worker)));
            }
            for (key, value) in &span.args {
                args.push((key.to_string(), leaf(value)));
            }
            let mut event = vec![
                ("name".to_string(), Json::from(span.name)),
                ("cat".to_string(), Json::from("lockbind")),
                (
                    "ph".to_string(),
                    Json::from(if span.instant { "i" } else { "X" }),
                ),
                ("ts".to_string(), Json::from(span.start_ns as f64 / 1000.0)),
                ("pid".to_string(), Json::from(1u64)),
                ("tid".to_string(), Json::from(tid(span))),
            ];
            if span.instant {
                event.push(("s".to_string(), Json::from("t")));
            } else {
                event.push(("dur".to_string(), Json::from(span.dur_ns as f64 / 1000.0)));
            }
            if !args.is_empty() {
                event.push(("args".to_string(), Json::Object(args)));
            }
            events.push(Json::Object(event));
        }
        Json::obj([
            ("traceEvents", Json::Array(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
        .render()
    }

    fn span(name: &'static str, cell: Option<u64>, instant: bool) -> SpanRecord {
        SpanRecord {
            name,
            args: vec![("k", ArgValue::from(3u64))],
            cell,
            worker: cell.map(|_| 0),
            seq: 0,
            depth: 0,
            start_ns: 1_500,
            dur_ns: 2_000,
            instant,
        }
    }

    #[test]
    fn events_carry_cell_tracks_and_microsecond_times() {
        let text = chrome_trace(&[span("work", Some(4), false), span("mark", None, true)]);
        assert!(text.starts_with("{\"traceEvents\":["), "{text}");
        // Complete event on the cell's track, µs timestamps.
        assert!(text.contains("\"name\":\"work\""), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        assert!(text.contains("\"ts\":1.5"), "{text}");
        assert!(text.contains("\"dur\":2"), "{text}");
        assert!(text.contains("\"tid\":5"), "{text}");
        // Instant event on the driver track.
        assert!(text.contains("\"ph\":\"i\""), "{text}");
        assert!(text.contains("\"s\":\"t\""), "{text}");
        // Track metadata names the cell.
        assert!(text.contains("\"name\":\"cell 4\""), "{text}");
        assert!(text.contains("\"name\":\"driver\""), "{text}");
        // Span args and worker tag survive.
        assert!(text.contains("\"worker\":0"), "{text}");
        assert!(text.contains("\"k\":3"), "{text}");
        crate::json::parse(text.as_bytes()).expect("valid JSON");
    }

    /// The streamed document against the rendered tree, byte for byte:
    /// every argument kind (escapes, non-finite floats, negative ints),
    /// spans with and without worker or arguments, and no spans at all.
    #[test]
    fn streamed_trace_equals_the_rendered_tree() {
        let mut spans = vec![
            span("work", Some(4), false),
            span("mark", None, true),
            span("cell.inputs", Some(0), false),
        ];
        spans[2].args = vec![
            ("int", ArgValue::Int(-7)),
            ("float", ArgValue::Float(0.1)),
            ("nan", ArgValue::Float(f64::NAN)),
            ("text", ArgValue::Str("say \"hi\"\\\n\u{1}é".to_string())),
            ("yes", ArgValue::Bool(true)),
            ("no", ArgValue::Bool(false)),
            ("big", ArgValue::UInt(u64::MAX)),
        ];
        spans[2].start_ns = 123_456_789;
        spans[2].dur_ns = 1;
        let mut bare = span("bare", None, false);
        bare.args.clear();
        spans.push(bare);
        let mut no_worker = span("kernel \"q\"", Some(11), false);
        no_worker.worker = None;
        spans.push(no_worker);
        for set in [&spans[..], &spans[..1], &[]] {
            assert_eq!(chrome_trace(set), chrome_trace_tree(set));
        }
    }
}
