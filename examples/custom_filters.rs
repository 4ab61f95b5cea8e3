//! Writing your own filters: the `datacutter` framework is not tied to
//! rendering. This example builds a three-stage text-analytics pipeline —
//! a document source, a tokenize/count filter running as transparent
//! copies on two hosts, and a combining sink — exactly the
//! "filter + combine" pattern the paper describes for stateful filters.
//!
//! ```text
//! cargo run --release -p examples --bin custom_filters
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use datacutter::{
    DataBuffer, Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run, SpillCodec,
    WritePolicy,
};
use hetsim::presets::rogue_cluster;
use hetsim::SimDuration;
use parking_lot_alias::Mutex;

mod parking_lot_alias {
    pub use std::sync::Mutex;
}

/// Emits synthetic "documents".
struct DocSource {
    docs: u32,
}

impl Filter for DocSource {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let corpus = [
            "the quick brown fox",
            "jumps over the lazy dog",
            "the dog barks",
        ];
        for i in 0..self.docs {
            let text = corpus[i as usize % corpus.len()].to_string();
            let bytes = text.len() as u64;
            // Reading a document costs a little I/O.
            ctx.disk_read(0, 4096 + bytes, i > 0);
            ctx.write(0, DataBuffer::new(text, bytes));
        }
        Ok(())
    }
}

/// One copy's partial word counts. Every payload is spill-encodable, so
/// the runtime can park it under a memory budget: each entry is a
/// little-endian `u32` word length, the word's bytes and its `u64` count.
#[derive(Clone, Default)]
struct Partial(Vec<(String, u64)>);

impl SpillCodec for Partial {
    fn spill_len(&self) -> usize {
        self.0.iter().map(|(w, _)| 12 + w.len()).sum()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        for (w, n) in &self.0 {
            out.extend_from_slice(&(w.len() as u32).to_le_bytes());
            out.extend_from_slice(w.as_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
    fn spill_decode(mut bytes: &[u8]) -> Option<Self> {
        let mut entries = Vec::new();
        while !bytes.is_empty() {
            let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
            let word = String::from_utf8(bytes.get(4..4 + len)?.to_vec()).ok()?;
            let n = u64::from_le_bytes(bytes.get(4 + len..12 + len)?.try_into().ok()?);
            entries.push((word, n));
            bytes = &bytes[12 + len..];
        }
        Some(Partial(entries))
    }
}

/// Tokenizes and counts words; a *stateful* filter — partial counts are
/// flushed downstream at end-of-work, and a combine filter folds them.
struct WordCount {
    counts: HashMap<String, u64>,
}

impl Filter for WordCount {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(buf) = ctx.read(0) {
            let text = buf.downcast::<String>();
            // Charge CPU proportional to document length.
            ctx.compute(SimDuration::from_micros(50 * text.len() as u64));
            for w in text.split_whitespace() {
                *self.counts.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        // End-of-work: ship this copy's partial accumulator.
        let partial = Partial(self.counts.drain().collect());
        let bytes = partial.0.iter().map(|(w, _)| w.len() as u64 + 8).sum();
        ctx.write(0, DataBuffer::new(partial, bytes));
        Ok(())
    }
}

/// Folds partial counts into the final tally (the "combine" filter the
/// paper appends when transparent copies hold internal state). Summing is
/// not idempotent: a crash plan redelivers a dead copy's inputs at least
/// once, which would count some words twice, so this pipeline runs none.
struct Combine {
    out: Arc<Mutex<HashMap<String, u64>>>,
}

impl Filter for Combine {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(buf) = ctx.read(0) {
            let partial = buf.downcast::<Partial>();
            ctx.compute(SimDuration::from_micros(partial.0.len() as u64));
            let mut out = self.out.lock().unwrap();
            for (w, n) in partial.0 {
                *out.entry(w).or_insert(0) += n;
            }
        }
        Ok(())
    }
}

fn main() {
    let (topo, hosts) = rogue_cluster(3);
    let totals: Arc<Mutex<HashMap<String, u64>>> = Arc::default();

    let mut g = GraphBuilder::new();
    let src = g.add_filter("docs", Placement::on_host(hosts[0], 1), |_| DocSource {
        docs: 30,
    });
    let wc = g.add_filter(
        "wordcount",
        Placement::one_per_host(&[hosts[1], hosts[2]]),
        |_| WordCount {
            counts: HashMap::new(),
        },
    );
    let totals2 = totals.clone();
    let comb = g.add_filter("combine", Placement::on_host(hosts[0], 1), move |_| {
        Combine {
            out: totals2.clone(),
        }
    });
    g.connect(src, wc, WritePolicy::demand_driven());
    g.connect(wc, comb, WritePolicy::RoundRobin);

    let report = Run::new(g.build()).go(&topo).expect("run");

    let mut counts: Vec<(String, u64)> = totals
        .lock()
        .unwrap()
        .iter()
        .map(|(w, &n)| (w.clone(), n))
        .collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!(
        "word counts after {:.4} virtual seconds:",
        report.elapsed.as_secs_f64()
    );
    for (w, n) in &counts {
        println!("  {n:>3}  {w}");
    }
    assert_eq!(counts[0], ("the".to_string(), 30)); // 10 of each doc, one "the" per doc
    println!("\ntwo transparent WordCount copies processed disjoint document subsets;");
    println!("the combine filter made the result independent of the copy count.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_spill_len_is_what_spill_encode_writes() {
        for p in [
            Partial(Vec::new()),
            Partial(vec![(String::new(), 0)]),
            Partial(vec![
                ("the".into(), 30),
                ("fox".into(), 1),
                ("über".into(), 2),
            ]),
        ] {
            let mut out = Vec::new();
            p.spill_encode(&mut out);
            assert_eq!(p.spill_len(), out.len());
        }
    }
}
