//! The benchmark's own host-time spans, recorded around each call into a
//! layer. Every host time the benchmark reports is a span's duration, so
//! the traced view and the metrics come from the same clock readings.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_s: f64,
    end_s: Option<f64>,
}

/// An in-memory span recorder for one single-threaded benchmark process.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Start a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_s: self.t0.elapsed().as_secs_f64(),
            end_s: None,
        });
        SpanId(self.spans.len() - 1)
    }

    /// End a span now and return its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.t0.elapsed().as_secs_f64();
        let span = &mut self.spans[id.0];
        assert!(span.end_s.is_none(), "span {} closed twice", span.name);
        span.end_s = Some(now);
        now - span.start_s
    }

    fn duration(&self, i: usize) -> f64 {
        let s = &self.spans[i];
        s.end_s.expect("every span is closed before it is reported") - s.start_s
    }

    /// Per-name totals in first-seen order. The process is single
    /// threaded, so children never overlap and a span's self time is its
    /// duration minus the sum of its children's.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_s = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_s[p.0] += self.duration(i);
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = self.duration(i);
            let row = match out.iter_mut().find(|r| r.name == s.name) {
                Some(r) => r,
                None => {
                    out.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_s += d;
            row.self_s += d - child_s[i];
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete event per span, with its id and parent id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_s * 1e6,
                self.duration(i) * 1e6,
                i,
                parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::default();
        let root = sp.open("workload", None);
        let a = sp.open("setup", Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let setup_s = sp.close(a);
        let root_s = sp.close(root);
        let rows = sp.self_times();
        assert_eq!(rows[0].name, "workload");
        assert_eq!(rows[1].name, "setup");
        assert!((rows[0].self_s - (root_s - setup_s)).abs() < 1e-12);
        assert!((rows[1].self_s - setup_s).abs() < 1e-12);
        let json = sp.chrome_json();
        assert!(json.contains("\"name\":\"setup\""));
        assert!(json.contains("\"parent\":0"));
    }
}
