//! In-memory span recording for traced runs.
//!
//! A span is a name, a start and end (ns from a shared base instant), the
//! span that caused it and the request it belongs to. Spans are appended
//! to a bounded buffer and written out when the run ends; per-layer
//! metrics are computed from the full per-call timings, so the buffer only
//! has to hold a sample.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Requests whose spans are kept: one in this many (by request id).
pub const SAMPLE_EVERY: u64 = 64;

/// The most spans one buffer keeps.
const CAP: usize = 1 << 17;

/// No parent.
pub const ROOT: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name, e.g. `client.send`.
    pub name: &'static str,
    /// Start, ns since the run's base instant.
    pub start_ns: u64,
    /// End, ns since the run's base instant.
    pub end_ns: u64,
    /// Id of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Request id (or step/decision index).
    pub req: u64,
}

/// A span buffer. Ids are 1-based positions, so [`ROOT`] never names one.
#[derive(Debug)]
pub struct Spans {
    base: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// An empty buffer timing from `base`.
    pub fn new(base: Instant) -> Spans {
        Spans {
            base,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Ns since the base instant.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    /// Whether spans of request `req` are kept.
    pub fn sampled(req: u64) -> bool {
        req.is_multiple_of(SAMPLE_EVERY)
    }

    /// Record a span; returns its id ([`ROOT`] once the buffer is full).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u64,
    ) -> u32 {
        if self.spans.len() >= CAP {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Record a span between two instants.
    pub fn push_at(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req: u64,
    ) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e, parent, req)
    }

    /// Set the end of span `id` (a span pushed before its end was known).
    pub fn set_end(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = (id as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            s.end_ns = end_ns;
        }
    }

    /// Append another buffer's spans, re-basing their times onto this
    /// buffer's base and re-numbering parents.
    pub fn absorb(&mut self, other: Spans) {
        let id_offset = self.spans.len() as u32;
        let shift = other.base.saturating_duration_since(self.base).as_nanos() as u64;
        self.dropped += other.dropped;
        for s in other.spans {
            let parent = if s.parent == ROOT {
                ROOT
            } else {
                s.parent + id_offset
            };
            self.push(s.name, s.start_ns + shift, s.end_ns + shift, parent, s.req);
        }
    }

    /// Write the buffer as tab-separated `id name start_ns end_ns parent req`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# spans={} dropped={}", self.spans.len(), self.dropped)?;
        writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.req
            )?;
        }
        w.flush()
    }
}
