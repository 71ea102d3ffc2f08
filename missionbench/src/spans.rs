//! In-memory span recorder for the traced run.
//!
//! Every system call the benchmark makes is a root span ("capture",
//! "pass", "ingest_batch", ...), and every public layer call made inside
//! it is a child span named `<layer>.<call>`. Spans of one capture (or
//! one ground round) share its id. The recorder only appends to a vector
//! while the run is timed; [`Spans::write_tsv`] writes them out after.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span for one system call; returns its handle.
    pub fn open(&mut self, id: u64, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent: None,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, handle: usize) {
        self.spans[handle].end_ns = self.now_ns();
    }

    /// Runs `f` as a layer span under `parent`.
    pub fn layer<R>(&mut self, parent: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let id = self.spans[parent].id;
        self.spans.push(Span {
            id,
            name,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
        r
    }

    /// Seconds spent in root spans.
    pub fn root_s(&self) -> f64 {
        self.sum(|s| s.parent.is_none())
    }

    /// Seconds spent in layer spans named `name`.
    pub fn layer_s(&self, name: &str) -> f64 {
        self.sum(|s| s.parent.is_some() && s.name == name)
    }

    /// Share of root-span time that no layer span covers. Layer spans
    /// never nest, so their durations add without overlap.
    pub fn unattributed_share(&self) -> f64 {
        let root = self.root_s();
        let covered = self.sum(|s| s.parent.is_some());
        crate::stats::ratio(root - covered, root)
    }

    /// Each layer span name's share of root-span time, largest first.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let root = self.root_s();
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            *by_name.entry(s.name).or_default() += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        let mut shares: Vec<_> = by_name
            .into_iter()
            .map(|(name, s)| (name, crate::stats::ratio(s, root)))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        shares
    }

    fn sum(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as tab-separated `id name parent start_ns end_ns`
    /// (parent is the root span's name, or `-` for a root).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-", |p| self.spans[p].name);
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
