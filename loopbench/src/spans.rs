//! In-memory spans of the traced run.
//!
//! A span is one timed interval: the generator's send of a message, the
//! message's end-to-end trip, or one call into a layer's public function.
//! All spans of one message share its id; a span names its parent span of
//! the same message. Spans are kept in memory while the run measures and
//! written out once at the end, so recording costs a `Vec` push.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The message this span belongs to (shared by all its spans).
    pub msg: u64,
    /// What was timed, e.g. `wire.publish_encode`.
    pub name: &'static str,
    /// The enclosing span of the same message, if any.
    pub parent: Option<&'static str>,
    /// Start, in clock nanoseconds.
    pub start_ns: u64,
    /// End, in clock nanoseconds.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its children (spans of the same message naming it as parent) cover.
/// Returned in input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u64, &'static str), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry((s.msg, parent))
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&(s.msg, s.name)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            // Length of the union of the children, clipped to the parent.
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Mean self time in nanoseconds per span name, over the given spans.
pub fn mean_self_ns(spans: &[Span]) -> HashMap<&'static str, f64> {
    let mut acc: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = acc.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(name, (sum, n))| (name, sum as f64 / n as f64))
        .collect()
}

/// Writes spans as CSV (`msg,name,parent,start_ns,end_ns,self_ns`).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "msg,name,parent,start_ns,end_ns,self_ns")?;
    for (s, own) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.msg,
            s.name,
            s.parent.unwrap_or(""),
            s.start_ns,
            s.end_ns,
            own
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(msg: u64, name: &'static str, parent: Option<&'static str>, a: u64, b: u64) -> Span {
        Span {
            msg,
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "e2e", None, 0, 100),
            span(1, "send", Some("e2e"), 10, 30),
            span(1, "encode", Some("send"), 12, 20),
            span(1, "decode", Some("e2e"), 25, 40), // overlaps send
            span(2, "e2e", None, 0, 50),            // other message: no children
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 8, 15, 50]);
        let means = mean_self_ns(&spans);
        assert_eq!(means["e2e"], 60.0);
        assert_eq!(means["encode"], 8.0);
    }
}
