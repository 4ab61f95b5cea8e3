//! Application graphs: filters, their placement, and the streams that
//! connect them.
//!
//! The application developer decides (1) the decomposition into filters,
//! (2) the placement of filter copies on hosts, and (3) how many
//! transparent copies of each filter to run — the three degrees of freedom
//! the paper enumerates. A [`GraphBuilder`] captures all three plus the
//! writer policy per stream.

use hetsim::HostId;

use crate::filter::{CopyInfo, Filter, FilterFactory};
use crate::policy::WritePolicy;

/// Identifies a filter within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterId(pub u32);

/// Identifies a stream within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u32);

/// Placement of a filter: copies per host. A host may appear once only;
/// its copies form that host's *copy set*.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// `(host, copies)` pairs; order defines copy-set indices.
    pub per_host: Vec<(HostId, u32)>,
}

impl Placement {
    /// One copy on each of `hosts`.
    pub fn one_per_host(hosts: &[HostId]) -> Self {
        Placement {
            per_host: hosts.iter().map(|&h| (h, 1)).collect(),
        }
    }

    /// `copies` copies on a single host.
    pub fn on_host(host: HostId, copies: u32) -> Self {
        Placement {
            per_host: vec![(host, copies)],
        }
    }

    /// Total copies across hosts.
    pub fn total_copies(&self) -> u32 {
        self.per_host.iter().map(|&(_, c)| c).sum()
    }

    /// Validate: at least one copy, no duplicate hosts.
    fn validate(&self, name: &str) {
        assert!(self.total_copies() >= 1, "filter '{name}' has no copies");
        let mut hosts: Vec<HostId> = self.per_host.iter().map(|&(h, _)| h).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(
            hosts.len(),
            self.per_host.len(),
            "filter '{name}' lists a host twice in its placement"
        );
        assert!(
            self.per_host.iter().all(|&(_, c)| c >= 1),
            "filter '{name}' has a zero-copy host entry"
        );
    }
}

pub(crate) struct FilterSpec {
    pub name: String,
    pub placement: Placement,
    pub factory: FilterFactory,
}

pub(crate) struct StreamSpec {
    pub name: String,
    pub from: FilterId,
    pub to: FilterId,
    pub policy: WritePolicy,
}

/// A complete application graph ready to run.
pub struct AppGraph {
    pub(crate) filters: Vec<FilterSpec>,
    pub(crate) streams: Vec<StreamSpec>,
}

impl AppGraph {
    /// Name of filter `id`.
    pub fn filter_name(&self, id: FilterId) -> &str {
        &self.filters[id.0 as usize].name
    }

    /// Name of stream `id`.
    pub fn stream_name(&self, id: StreamId) -> &str {
        &self.streams[id.0 as usize].name
    }

    /// Input streams of `filter`, in declaration order (these are the
    /// filter's read ports 0, 1, ...).
    pub fn inputs_of(&self, filter: FilterId) -> Vec<StreamId> {
        (0..self.streams.len())
            .filter(|&i| self.streams[i].to == filter)
            .map(|i| StreamId(i as u32))
            .collect()
    }

    /// Output streams of `filter`, in declaration order (write ports).
    pub fn outputs_of(&self, filter: FilterId) -> Vec<StreamId> {
        (0..self.streams.len())
            .filter(|&i| self.streams[i].from == filter)
            .map(|i| StreamId(i as u32))
            .collect()
    }
}

/// Queue capacity of every stream, in buffers per consumer copy: a copy
/// set of `n` copies queues up to `n` times this many.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4;

/// Builder for [`AppGraph`].
#[derive(Default)]
pub struct GraphBuilder {
    filters: Vec<FilterSpec>,
    streams: Vec<StreamSpec>,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a filter with the given placement. `factory` is called once per
    /// transparent copy.
    pub fn add_filter<F, M>(
        &mut self,
        name: impl Into<String>,
        placement: Placement,
        factory: M,
    ) -> FilterId
    where
        F: Filter + 'static,
        M: Fn(CopyInfo) -> F + Send + Sync + 'static,
    {
        let name = name.into();
        placement.validate(&name);
        let id = FilterId(self.filters.len() as u32);
        self.filters.push(FilterSpec {
            name,
            placement,
            factory: Box::new(move |info| Box::new(factory(info))),
        });
        id
    }

    /// Connect `from` → `to` with the given writer policy. Each consumer
    /// copy queues up to [`DEFAULT_QUEUE_CAPACITY`] buffers.
    pub fn connect(&mut self, from: FilterId, to: FilterId, policy: WritePolicy) -> StreamId {
        assert!(
            (from.0 as usize) < self.filters.len(),
            "unknown producer filter"
        );
        assert!(
            (to.0 as usize) < self.filters.len(),
            "unknown consumer filter"
        );
        assert!(from != to, "a stream cannot connect a filter to itself");
        let id = StreamId(self.streams.len() as u32);
        let name = format!(
            "{}->{}",
            self.filters[from.0 as usize].name, self.filters[to.0 as usize].name
        );
        self.streams.push(StreamSpec {
            name,
            from,
            to,
            policy,
        });
        id
    }

    /// Finish the graph.
    pub fn build(self) -> AppGraph {
        AppGraph {
            filters: self.filters,
            streams: self.streams,
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::context::FilterCtx;
    use crate::filter::FilterError;

    struct Nop;
    impl Filter for Nop {
        fn process(&mut self, _ctx: &mut FilterCtx) -> Result<(), FilterError> {
            Ok(())
        }
    }

    #[test]
    fn build_linear_graph() {
        let mut g = GraphBuilder::new();
        let a = g.add_filter("a", Placement::on_host(HostId(0), 1), |_| Nop);
        let b = g.add_filter(
            "b",
            Placement::one_per_host(&[HostId(0), HostId(1)]),
            |_| Nop,
        );
        let s = g.connect(a, b, WritePolicy::RoundRobin);
        let graph = g.build();
        assert_eq!(graph.inputs_of(b), vec![s]);
        assert_eq!(graph.outputs_of(a), vec![s]);
        assert_eq!(graph.inputs_of(a), Vec::<StreamId>::new());
        assert_eq!(graph.stream_name(s), "a->b");
    }

    #[test]
    #[should_panic(expected = "lists a host twice")]
    fn duplicate_host_rejected() {
        let mut g = GraphBuilder::new();
        g.add_filter(
            "a",
            Placement {
                per_host: vec![(HostId(0), 1), (HostId(0), 2)],
            },
            |_| Nop,
        );
    }

    #[test]
    #[should_panic(expected = "cannot connect a filter to itself")]
    fn self_loop_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_filter("a", Placement::on_host(HostId(0), 1), |_| Nop);
        g.connect(a, a, WritePolicy::RoundRobin);
    }

    #[test]
    #[should_panic(expected = "has no copies")]
    fn empty_placement_rejected() {
        let mut g = GraphBuilder::new();
        g.add_filter("a", Placement::default(), |_| Nop);
    }

    #[test]
    fn placement_helpers() {
        let p = Placement::one_per_host(&[HostId(3), HostId(5)]);
        assert_eq!(p.total_copies(), 2);
        let p = Placement::on_host(HostId(1), 7);
        assert_eq!(p.total_copies(), 7);
    }
}
