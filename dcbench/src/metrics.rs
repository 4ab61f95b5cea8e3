//! The metric registry: every name the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` at
//! the repository root lists the same metrics; a unit test holds the two
//! together. Later changes claim or are refused gains under these names.

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: &[Def] = &[
    e2e("frame_s_p50", "s", Better::Lower, 0.25),
    e2e("mcells_per_s", "Mcell/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single-layer metrics from the `--trace 1` pass. A metric that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // Ungated diagnostics of the frame distribution.
    lo("frame_s_p90", "s"),
    lo("frame_s_min", "s"),
    lo("first_uow_s_p50", "s"),
    lo("proc.cpu_s_per_frame", "s"),
    lo("trace.overhead_ratio", "ratio"),
    hi("speedup_vs_serial", "ratio"),
    // Family A: counters from the measured runs' `RunReport`s.
    lo("datacutter.stream.buffers_per_frame", "count"),
    lo("datacutter.stream.mb_per_frame", "MB"),
    lo("datacutter.read_wait_share.R", "ratio"),
    lo("datacutter.read_wait_share.E", "ratio"),
    lo("datacutter.read_wait_share.RE", "ratio"),
    lo("datacutter.read_wait_share.Ra", "ratio"),
    lo("datacutter.read_wait_share.M", "ratio"),
    lo("datacutter.write_wait_share.R", "ratio"),
    lo("datacutter.write_wait_share.E", "ratio"),
    lo("datacutter.write_wait_share.RE", "ratio"),
    lo("datacutter.write_wait_share.Ra", "ratio"),
    lo("datacutter.write_wait_share.M", "ratio"),
    lo("datacutter.ooc.spills_per_frame", "count"),
    lo("datacutter.ooc.spill_mb_per_frame", "MB"),
    lo("datacutter.deferred_wakes_per_frame", "count"),
    lo("hetsim.events_per_frame", "count"),
    lo("hetsim.host_us_per_event", "us"),
    lo("hetsim.virtual_s", "s"),
    lo("dcapp.build_pipeline_us", "us"),
    lo("dcapp.reference_image_s", "s"),
    // Family B: replay of a frame's work, one layer at a time.
    lo("layers.volume_s", "s"),
    lo("layers.extract_s", "s"),
    lo("layers.raster_s", "s"),
    lo("layers.merge_s", "s"),
    lo("layers.delivery_s", "s"),
    lo("layers.engine_s", "s"),
    lo("layers.spill_s", "s"),
    lo("layers.sum_s", "s"),
    hi("layers.accounted_ratio", "ratio"),
    // Family B: kernel rates taken from the replay's phases.
    hi("volume.read_chunk.mb_per_s", "MB/s"),
    lo("isosurf.extract.ns_per_cell", "ns"),
    hi("isosurf.extract.mtris_per_s", "Mtri/s"),
    lo("isosurf.raster.active_pixel.ns_per_tri", "ns"),
    lo("isosurf.raster.zbuffer.ns_per_tri", "ns"),
    lo("isosurf.merge.wpa.ns_per_entry", "ns"),
    lo("isosurf.merge.zbuffer.ns_per_px", "ns"),
    lo("isosurf.to_image.ns_per_px", "ns"),
    hi("dcapp.spill_codec.chunk.encode_mb_per_s", "MB/s"),
    hi("dcapp.spill_codec.chunk.decode_mb_per_s", "MB/s"),
    hi("datacutter.seal_frame.mb_per_s", "MB/s"),
    hi("datacutter.open_frame.mb_per_s", "MB/s"),
    hi("datacutter.spill_ring.spill_mb_per_s", "MB/s"),
    hi("datacutter.spill_ring.fault_mb_per_s", "MB/s"),
    // Family B: isolated probes, attached to the workload they explain.
    hi("hetsim.engine.delay_events_per_s", "1/s"),
    hi("hetsim.engine.pingpong_msgs_per_s", "1/s"),
    lo("hetsim.engine.spawn_us_per_process", "us"),
    hi("datacutter.delivery.rr.sim.buffers_per_s", "1/s"),
    hi("datacutter.delivery.wrr.sim.buffers_per_s", "1/s"),
    hi("datacutter.delivery.dd.sim.buffers_per_s", "1/s"),
    hi("datacutter.delivery.tilehash.sim.buffers_per_s", "1/s"),
    hi("datacutter.delivery.rr.native.buffers_per_s", "1/s"),
    hi("datacutter.delivery.wrr.native.buffers_per_s", "1/s"),
    hi("datacutter.delivery.dd.native.buffers_per_s", "1/s"),
    hi("datacutter.delivery.tilehash.native.buffers_per_s", "1/s"),
    hi("datacutter.delivery.rr.tasked.buffers_per_s", "1/s"),
    hi("datacutter.delivery.wrr.tasked.buffers_per_s", "1/s"),
    hi("datacutter.delivery.dd.tasked.buffers_per_s", "1/s"),
    hi("datacutter.delivery.tilehash.tasked.buffers_per_s", "1/s"),
    lo("datacutter.uow_idle.native.us_per_copy", "us"),
    lo("datacutter.uow_idle.tasked.us_per_copy", "us"),
    lo("datacutter.spawn.native.us_per_copy", "us"),
    lo("datacutter.spawn.tasked.us_per_copy", "us"),
    lo("adr.virtual_s", "s"),
    lo("adr.host_s", "s"),
    lo("virtual_vs_adr", "ratio"),
    hi("volume.parssim.mpoints_per_s", "Mpoint/s"),
    hi("volume.codec.encode_mb_per_s", "MB/s"),
    hi("volume.codec.decode_mb_per_s", "MB/s"),
    hi("isosurf.par.extract_speedup", "ratio"),
    hi("isosurf.par.merge_speedup", "ratio"),
    hi("volume.diskstore.write_mb_per_s", "MB/s"),
    hi("volume.diskstore.read_mb_per_s", "MB/s"),
    hi("volume.cursor.stream_mb_per_s", "MB/s"),
    lo("volume.cache.hit_ns", "ns"),
    // Sizes the bandwidth probes ran at, so a cache-resident number is
    // recognisable as one.
    lo("probe.llc_mb", "MB"),
    hi("probe.working_set_mb", "MB"),
];

pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;

/// `true` for a name the benchmark contract accepts: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `true` for a unit the contract accepts: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check a metric set against the contract's limits: name and unit
/// syntax, list sizes, no name used twice, a bound of at most 25 % on
/// every end-to-end metric and none on a per-layer one.
pub fn validate(end_to_end: &[Def], per_layer: &[Def]) -> Result<(), String> {
    if end_to_end.is_empty() || end_to_end.len() > MAX_END_TO_END {
        return Err(format!("{} end-to-end metrics", end_to_end.len()));
    }
    if per_layer.is_empty() || per_layer.len() > MAX_PER_LAYER {
        return Err(format!("{} per-layer metrics", per_layer.len()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for d in end_to_end.iter().chain(per_layer) {
        if !valid_name(d.name) {
            return Err(format!("bad metric name `{}`", d.name));
        }
        if !valid_unit(d.unit) {
            return Err(format!("bad unit `{}` on `{}`", d.unit, d.name));
        }
        if !seen.insert(d.name) {
            return Err(format!("metric `{}` defined twice", d.name));
        }
    }
    if let Some(d) = end_to_end
        .iter()
        .find(|d| !d.bound.is_some_and(|b| (0.0..=0.25).contains(&b)))
    {
        return Err(format!("`{}` needs a bound within 0..=0.25", d.name));
    }
    if let Some(d) = per_layer.iter().find(|d| d.bound.is_some()) {
        return Err(format!("per-layer `{}` carries a bound", d.name));
    }
    Ok(())
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`.
    ///
    /// # Panics
    ///
    /// On a name missing from the registry, so a typo cannot silently
    /// report nothing.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of a result line: every metric of `defs`, in
    /// registry order, as `{"value": v, "unit": u}`. End-to-end metrics
    /// must all have been measured; an unmeasured per-layer metric (one
    /// that does not apply to this workload) reads 0.
    pub fn to_json(&self, defs: &[Def]) -> Json {
        Json::obj(defs.iter().map(|d| {
            let v = match (self.get(d.name), d.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric `{}` was not measured", d.name),
            };
            (
                d.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(d.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_registry_is_valid() {
        validate(END_TO_END, PER_LAYER).unwrap();
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for ok in ["frame_s_p50", "layers.sum_s", "9lives", "a-b_c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "slash/ed", "µs", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "Mcell/s", "1/s", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn validator_rejects_duplicates_oversize_and_bad_bounds() {
        let a = e2e("a", "s", Better::Lower, 0.1);
        let b = lo("b", "s");
        assert!(validate(&[a], &[b]).is_ok());
        assert!(validate(&[a, a], &[b]).unwrap_err().contains("twice"));
        assert!(validate(&[a], &[lo("a", "s")])
            .unwrap_err()
            .contains("twice"));
        assert!(validate(&[], &[b]).is_err());
        assert!(validate(&[a; MAX_END_TO_END + 1], &[b]).is_err());
        assert!(validate(&[a], &vec![b; MAX_PER_LAYER + 1]).is_err());
        assert!(validate(&[e2e("a", "s", Better::Lower, 0.3)], &[b]).is_err());
        assert!(validate(&[lo("a", "s")], &[b]).is_err());
        assert!(validate(&[a], &[e2e("b", "s", Better::Lower, 0.1)]).is_err());
        assert!(validate(&[e2e("a b", "s", Better::Lower, 0.1)], &[b]).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(
                    j.get("unit").and_then(Json::as_str),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(d.better.label()),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let shapes: Vec<&str> = crate::workloads::SHAPES.iter().map(|s| s.name).collect();
        assert_eq!(listed, shapes);
    }

    #[test]
    fn values_fill_unmeasured_layer_metrics_with_zero() {
        let mut v = Values::default();
        v.set("layers.sum_s", 0.25);
        let j = v.to_json(PER_LAYER);
        let at = |name: &str| j.get(name).unwrap().get("value").and_then(Json::as_f64);
        assert_eq!(at("layers.sum_s"), Some(0.25));
        assert_eq!(at("adr.host_s"), Some(0.0));
        assert_eq!(
            j.get("adr.host_s")
                .unwrap()
                .get("unit")
                .and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn values_refuse_unknown_names() {
        Values::default().set("layers.typo_s", 1.0);
    }
}
