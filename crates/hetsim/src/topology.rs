//! Cluster topology: hosts with CPUs and disks, NICs, and inter-cluster
//! backbone links.
//!
//! The network model is deliberately simple but captures what the paper's
//! experiments exercise: per-host NIC bandwidth (the switched-Ethernet
//! bottleneck), a shared backbone per ordered cluster pair, and cheap
//! loopback for co-located filters. A transfer holds every link on its
//! route for `bytes / min-bandwidth` (cut-through, bottleneck-limited) and
//! then pays the summed propagation latency.

use std::collections::HashMap;
use std::sync::Arc;

use crate::engine::{Env, Step};
use crate::resources::{Cpu, Disk, Link};
use crate::time::SimDuration;

/// Identifies a host within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

/// Identifies a cluster within one [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

/// Static description of a host to be added to a topology.
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Human-readable name, e.g. `"rogue3"`.
    pub name: String,
    /// Number of CPU cores.
    pub cores: u32,
    /// CPU speed relative to the reference core (Rogue's P3-650 = 1.0).
    pub speed: f64,
    /// Physical memory in MB (informational; not charged).
    pub mem_mb: u64,
    /// Number of local disks.
    pub disks: u32,
    /// Per-disk sequential bandwidth, bytes/second.
    pub disk_bandwidth_bps: f64,
    /// Per-request positioning overhead.
    pub disk_seek: SimDuration,
}

/// Static description of a cluster's interconnect.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Human-readable name, e.g. `"rogue"`.
    pub name: String,
    /// Per-host NIC bandwidth, bytes/second (switched: each host gets its
    /// own full-bandwidth port).
    pub nic_bandwidth_bps: f64,
    /// One-way propagation latency within the cluster.
    pub nic_latency: SimDuration,
}

/// A host instantiated in a topology.
pub struct Host {
    /// This host's id.
    pub id: HostId,
    /// Host name.
    pub name: String,
    /// Owning cluster.
    pub cluster: ClusterId,
    /// The host CPU (shared by all processes placed here).
    pub cpu: Cpu,
    /// Local disks.
    pub disks: Vec<Disk>,
    /// Physical memory in MB.
    pub mem_mb: u64,
    nic_tx: Link,
    nic_rx: Link,
}

impl Host {
    /// Outbound NIC link (fault injection adjusts its degradation factor).
    pub fn nic_tx(&self) -> &Link {
        &self.nic_tx
    }

    /// Inbound NIC link.
    pub fn nic_rx(&self) -> &Link {
        &self.nic_rx
    }
}

struct ClusterInfo {
    name: String,
}

/// The instantiated cluster collection. Cheap to clone (shared internals).
#[derive(Clone)]
pub struct Topology {
    inner: Arc<TopologyInner>,
}

struct TopologyInner {
    hosts: Vec<Host>,
    clusters: Vec<ClusterInfo>,
    /// Backbone link per ordered cluster pair (full duplex).
    backbones: HashMap<(ClusterId, ClusterId), Link>,
}

/// Same-host "transfer" bandwidth (memcpy through shared memory).
const LOOPBACK_BPS: f64 = 1.0e9;

/// Builder for [`Topology`].
pub struct TopologyBuilder {
    clusters: Vec<ClusterSpec>,
    hosts: Vec<(ClusterId, HostSpec)>,
    backbones: Vec<(ClusterId, ClusterId, f64, SimDuration)>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        TopologyBuilder {
            clusters: Vec::new(),
            hosts: Vec::new(),
            backbones: Vec::new(),
        }
    }

    /// Register a cluster; hosts are added to it with
    /// [`add_host`](Self::add_host).
    pub fn add_cluster(&mut self, spec: ClusterSpec) -> ClusterId {
        let id = ClusterId(self.clusters.len() as u32);
        self.clusters.push(spec);
        id
    }

    /// Register a host in `cluster`.
    pub fn add_host(&mut self, cluster: ClusterId, spec: HostSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push((cluster, spec));
        id
    }

    /// Connect two clusters with a full-duplex backbone of the given
    /// bandwidth and latency.
    pub fn connect_clusters(
        &mut self,
        a: ClusterId,
        b: ClusterId,
        bandwidth_bps: f64,
        latency: SimDuration,
    ) {
        self.backbones.push((a, b, bandwidth_bps, latency));
    }

    /// Instantiate the topology.
    pub fn build(self) -> Topology {
        let clusters: Vec<ClusterInfo> = self
            .clusters
            .iter()
            .map(|c| ClusterInfo {
                name: c.name.clone(),
            })
            .collect();
        let mut hosts = Vec::with_capacity(self.hosts.len());
        for (idx, (cluster, spec)) in self.hosts.into_iter().enumerate() {
            let cspec = &self.clusters[cluster.0 as usize];
            let id = HostId(idx as u32);
            let disks = (0..spec.disks)
                .map(|_| Disk::new(spec.disk_bandwidth_bps, spec.disk_seek))
                .collect();
            hosts.push(Host {
                id,
                name: spec.name.clone(),
                cluster,
                cpu: Cpu::new(spec.cores, spec.speed),
                disks,
                mem_mb: spec.mem_mb,
                nic_tx: Link::new(
                    format!("{}:tx", spec.name),
                    cspec.nic_bandwidth_bps,
                    cspec.nic_latency,
                ),
                nic_rx: Link::new(
                    format!("{}:rx", spec.name),
                    cspec.nic_bandwidth_bps,
                    cspec.nic_latency,
                ),
            });
        }
        let mut backbones = HashMap::new();
        for (a, b, bw, lat) in self.backbones {
            backbones.insert((a, b), Link::new(format!("bb:{}->{}", a.0, b.0), bw, lat));
            backbones.insert((b, a), Link::new(format!("bb:{}->{}", b.0, a.0), bw, lat));
        }
        Topology {
            inner: Arc::new(TopologyInner {
                hosts,
                clusters,
                backbones,
            }),
        }
    }
}

impl Topology {
    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.inner.hosts
    }

    /// Look up one host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.inner.hosts[id.0 as usize]
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.inner.hosts.len()
    }

    /// True when the topology has no hosts.
    pub fn is_empty(&self) -> bool {
        self.inner.hosts.is_empty()
    }

    /// Cluster name for diagnostics.
    pub fn cluster_name(&self, id: ClusterId) -> &str {
        &self.inner.clusters[id.0 as usize].name
    }

    /// Hosts belonging to `cluster`, in id order.
    pub fn hosts_in(&self, cluster: ClusterId) -> Vec<HostId> {
        self.inner
            .hosts
            .iter()
            .filter(|h| h.cluster == cluster)
            .map(|h| h.id)
            .collect()
    }

    /// Move `bytes` from `from` to `to`, charging the NICs and (for
    /// cross-cluster routes) the backbone. Same-host transfers pay only a
    /// cheap memcpy cost. Blocks the calling process for the full transfer.
    pub fn transfer(&self, env: &Env, from: HostId, to: HostId, bytes: u64) {
        let mut t = Transfer::new(from, to, bytes);
        env.drive(|env| self.poll_transfer(env, &mut t));
    }

    /// Advance `t` as far as it goes without blocking: [`transfer`]'s
    /// steps, for a process that must not block (a handler). `Wait` means a
    /// link on the route is held and the caller is registered to be woken
    /// when it is released; `Delay` is the serialization or the latency to
    /// sleep; `Done` means the bytes have arrived.
    ///
    /// The route holds every link, in route order, then pays the
    /// bottleneck serialization once, releases the links and pays the
    /// summed propagation latency. Routes always order links
    /// tx < backbone < rx, so waits point forward and cannot cycle.
    ///
    /// [`transfer`]: Self::transfer
    pub fn poll_transfer(&self, env: &Env, t: &mut Transfer) -> Step {
        loop {
            match t.stage {
                Stage::Start if t.from == t.to => {
                    t.stage = Stage::Arriving;
                    let d = SimDuration::from_secs_f64(t.bytes as f64 / LOOPBACK_BPS);
                    return Step::Delay(d);
                }
                Stage::Start => t.stage = Stage::Occupy(0),
                Stage::Occupy(held) => {
                    let route = self.route(t.from, t.to);
                    let Some(link) = route.clone().nth(held) else {
                        let min_bw = route
                            .map(|l| l.bandwidth_bps())
                            .fold(f64::INFINITY, f64::min);
                        let serialize = SimDuration::from_secs_f64(t.bytes as f64 / min_bw);
                        t.stage = Stage::Serializing(serialize);
                        return Step::Delay(serialize);
                    };
                    if link.poll_occupy(env).is_pending() {
                        return Step::Wait;
                    }
                    t.stage = Stage::Occupy(held + 1);
                }
                Stage::Serializing(serialize) => {
                    let mut latency = SimDuration::ZERO;
                    for link in self.route(t.from, t.to).rev() {
                        link.occupy_end(env, t.bytes, serialize);
                        latency += link.latency();
                    }
                    t.stage = Stage::Arriving;
                    return Step::Delay(latency);
                }
                Stage::Arriving => return Step::Done,
            }
        }
    }

    /// The links a transfer between two distinct hosts holds, in
    /// acquisition order.
    fn route(&self, from: HostId, to: HostId) -> impl DoubleEndedIterator<Item = &Link> + Clone {
        let src = &self.inner.hosts[from.0 as usize];
        let dst = &self.inner.hosts[to.0 as usize];
        let backbone = (src.cluster != dst.cluster).then(|| {
            self.inner
                .backbones
                .get(&(src.cluster, dst.cluster))
                .unwrap_or_else(|| {
                    panic!(
                        "no backbone between clusters {} and {}",
                        self.cluster_name(src.cluster),
                        self.cluster_name(dst.cluster)
                    )
                })
        });
        [Some(&src.nic_tx), backbone, Some(&dst.nic_rx)]
            .into_iter()
            .flatten()
    }

    /// Lower bound on per-byte transfer cost between two hosts, in seconds
    /// per byte (used by schedulers that reason about placement).
    pub fn path_cost_per_byte(&self, from: HostId, to: HostId) -> f64 {
        if from == to {
            return 1.0 / LOOPBACK_BPS;
        }
        let src = &self.inner.hosts[from.0 as usize];
        let dst = &self.inner.hosts[to.0 as usize];
        let mut min_bw = src.nic_tx.bandwidth_bps().min(dst.nic_rx.bandwidth_bps());
        if src.cluster != dst.cluster {
            if let Some(bb) = self.inner.backbones.get(&(src.cluster, dst.cluster)) {
                min_bw = min_bw.min(bb.bandwidth_bps());
            }
        }
        1.0 / min_bw
    }

    /// NIC byte counters for `host`: `(tx_bytes, rx_bytes)`.
    pub fn nic_bytes(&self, host: HostId) -> (u64, u64) {
        let h = &self.inner.hosts[host.0 as usize];
        (h.nic_tx.bytes(), h.nic_rx.bytes())
    }

    /// Per-host resource utilization over a run of length `elapsed`.
    pub fn utilization(&self, elapsed: crate::SimDuration) -> Vec<HostUtilization> {
        let total = elapsed.as_secs_f64().max(1e-12);
        self.inner
            .hosts
            .iter()
            .map(|h| {
                let cores = h.cpu.cores() as f64;
                HostUtilization {
                    host: h.id,
                    name: h.name.clone(),
                    cpu_busy: (h.cpu.busy_time().as_secs_f64() / (total * cores)).min(1.0),
                    disk_busy: h
                        .disks
                        .iter()
                        .map(|d| d.busy_time().as_secs_f64() / total)
                        .fold(0.0, f64::max)
                        .min(1.0),
                    nic_tx_busy: (h.nic_tx.busy_time().as_secs_f64() / total).min(1.0),
                    nic_rx_busy: (h.nic_rx.busy_time().as_secs_f64() / total).min(1.0),
                    tx_bytes: h.nic_tx.bytes(),
                    rx_bytes: h.nic_rx.bytes(),
                }
            })
            .collect()
    }
}

/// One host's resource utilization over a run (fractions in `[0, 1]`).
#[derive(Debug, Clone)]
pub struct HostUtilization {
    /// Which host.
    pub host: HostId,
    /// Host name.
    pub name: String,
    /// Fraction of total core-time spent computing.
    pub cpu_busy: f64,
    /// Busiest local disk's busy fraction.
    pub disk_busy: f64,
    /// Outbound NIC occupancy.
    pub nic_tx_busy: f64,
    /// Inbound NIC occupancy.
    pub nic_rx_busy: f64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
}

impl std::fmt::Display for HostUtilization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>10}: cpu {:>5.1}%  disk {:>5.1}%  net tx {:>5.1}% ({:.1} MB)  rx {:>5.1}% ({:.1} MB)",
            self.name,
            self.cpu_busy * 100.0,
            self.disk_busy * 100.0,
            self.nic_tx_busy * 100.0,
            self.tx_bytes as f64 / 1e6,
            self.nic_rx_busy * 100.0,
            self.rx_bytes as f64 / 1e6,
        )
    }
}

/// One [`Topology::transfer`] in progress, advanced by
/// [`Topology::poll_transfer`] on the topology it was started for.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    from: HostId,
    to: HostId,
    bytes: u64,
    stage: Stage,
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    Start,
    /// This many links of the route are held.
    Occupy(usize),
    /// Every link is held for this long.
    Serializing(SimDuration),
    /// Released: the latency (or a same-host copy) is being slept, and
    /// the transfer is done once it is over.
    Arriving,
}

impl Transfer {
    /// A transfer of `bytes` from `from` to `to` that has not started.
    pub fn new(from: HostId, to: HostId, bytes: u64) -> Self {
        Transfer {
            from,
            to,
            bytes,
            stage: Stage::Start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;

    fn two_cluster_topo() -> (Topology, HostId, HostId, HostId) {
        let mut b = TopologyBuilder::new();
        let fast = b.add_cluster(ClusterSpec {
            name: "fast".into(),
            nic_bandwidth_bps: 100.0e6,
            nic_latency: SimDuration::from_micros(50),
        });
        let slow = b.add_cluster(ClusterSpec {
            name: "slow".into(),
            nic_bandwidth_bps: 10.0e6,
            nic_latency: SimDuration::from_micros(100),
        });
        let h0 = b.add_host(fast, spec("f0"));
        let h1 = b.add_host(fast, spec("f1"));
        let h2 = b.add_host(slow, spec("s0"));
        b.connect_clusters(fast, slow, 100.0e6, SimDuration::from_micros(200));
        (b.build(), h0, h1, h2)
    }

    fn spec(name: &str) -> HostSpec {
        HostSpec {
            name: name.into(),
            cores: 1,
            speed: 1.0,
            mem_mb: 512,
            disks: 1,
            disk_bandwidth_bps: 30.0e6,
            disk_seek: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn same_host_transfer_is_cheap() {
        let (topo, h0, h1, _) = two_cluster_topo();
        let mut sim = Simulation::new();
        let t = topo.clone();
        sim.spawn("x", move |env| {
            t.transfer(&env, h0, h0, 1_000_000);
            let local = env.now();
            t.transfer(&env, h0, h1, 1_000_000);
            let remote = env.now() - local;
            assert!(remote.as_nanos() > local.as_nanos() * 5);
        });
        sim.run().unwrap();
    }

    #[test]
    fn intra_cluster_uses_nic_bandwidth() {
        let (topo, h0, h1, _) = two_cluster_topo();
        let mut sim = Simulation::new();
        let t = topo.clone();
        sim.spawn("x", move |env| {
            t.transfer(&env, h0, h1, 10_000_000); // 10 MB at 100 MB/s = 0.1s
            let secs = env.now().as_secs_f64();
            assert!((0.1..0.11).contains(&secs), "{secs}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn cross_cluster_bottleneck_is_slow_nic() {
        let (topo, h0, _, h2) = two_cluster_topo();
        let mut sim = Simulation::new();
        let t = topo.clone();
        sim.spawn("x", move |env| {
            t.transfer(&env, h0, h2, 10_000_000); // bottleneck 10 MB/s = 1s
            let secs = env.now().as_secs_f64();
            assert!((1.0..1.01).contains(&secs), "{secs}");
        });
        sim.run().unwrap();
    }

    #[test]
    fn nic_contention_serializes() {
        let (topo, h0, h1, _) = two_cluster_topo();
        let mut sim = Simulation::new();
        let ends: Arc<parking_lot::Mutex<Vec<f64>>> = Arc::new(parking_lot::Mutex::new(vec![]));
        for i in 0..2 {
            let t = topo.clone();
            let ends = ends.clone();
            sim.spawn(format!("x{i}"), move |env| {
                t.transfer(&env, h0, h1, 10_000_000);
                ends.lock().push(env.now().as_secs_f64());
            });
        }
        sim.run().unwrap();
        let v = ends.lock().clone();
        // Sharing h0's tx NIC: second finishes ~2x later.
        assert!(v[1] > 0.19, "{v:?}");
    }

    #[test]
    fn path_cost_reflects_bottleneck() {
        let (topo, h0, h1, h2) = two_cluster_topo();
        assert!(topo.path_cost_per_byte(h0, h0) < topo.path_cost_per_byte(h0, h1));
        assert!(topo.path_cost_per_byte(h0, h1) < topo.path_cost_per_byte(h0, h2));
    }

    #[test]
    fn utilization_reflects_activity() {
        use crate::engine::Simulation;
        let (topo, h0, h1, _) = two_cluster_topo();
        let mut sim = Simulation::new();
        let t = topo.clone();
        sim.spawn("worker", move |env| {
            t.host(h0).cpu.compute(&env, SimDuration::from_secs(1));
            t.host(h0).disks[0].read(&env, 30_000_000);
            t.transfer(&env, h0, h1, 10_000_000);
        });
        let stats = sim.run().unwrap();
        let u = topo.utilization(stats.end_time - crate::SimTime::ZERO);
        assert!(u[0].cpu_busy > 0.3, "h0 computed: {}", u[0].cpu_busy);
        assert!(u[0].disk_busy > 0.3, "h0 read disk: {}", u[0].disk_busy);
        assert!(u[0].nic_tx_busy > 0.0 && u[1].nic_rx_busy > 0.0);
        assert_eq!(u[0].tx_bytes, 10_000_000);
        assert_eq!(u[1].rx_bytes, 10_000_000);
        assert_eq!(u[2].cpu_busy, 0.0, "idle host stays idle");
        // Display formatting is total and non-empty.
        assert!(format!("{}", u[0]).contains("cpu"));
    }

    #[test]
    fn hosts_in_filters_by_cluster() {
        let (topo, h0, h1, h2) = two_cluster_topo();
        assert_eq!(topo.hosts_in(ClusterId(0)), vec![h0, h1]);
        assert_eq!(topo.hosts_in(ClusterId(1)), vec![h2]);
    }
}
