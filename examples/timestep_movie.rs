//! Render every stored timestep of the simulation to a PPM frame —
//! the "browsing a stored simulation run" use case that motivates the
//! paper's application class.
//!
//! ```text
//! cargo run --release -p examples --bin timestep_movie
//! ```

use std::sync::Arc;

use datacutter::{Placement, WritePolicy};
use dcapp::{Algorithm, AppConfig, Grouping, PipelineSpec, Render};
use hetsim::presets::rogue_cluster;
use volume::{Dataset, Dims, TIMESTEPS};

fn main() {
    let (topo, hosts) = rogue_cluster(4);
    let dataset = Dataset::generate(Dims::new(49, 49, 49), (4, 4, 4), 64, 123);
    let mut cfg = AppConfig::new(dataset, hosts.clone(), 2, 384, 384);
    cfg.iso = 0.5;
    cfg.species = 1;
    let cfg = Arc::new(cfg);

    let spec = PipelineSpec {
        grouping: Grouping::RERaSplit {
            raster: Placement::one_per_host(&hosts),
        },
        algorithm: Algorithm::ActivePixel,
        policy: WritePolicy::demand_driven(),
        merge_host: hosts[0],
    };

    // All ten timesteps as consecutive units of work in ONE run: filter
    // copies stay resident, re-running their init/process/finalize cycle
    // per timestep.
    let multi = Render::new(&cfg, &spec)
        .uows(TIMESTEPS)
        .go(&topo)
        .expect("run");
    let uow_elapsed = multi.report.uow_elapsed();
    let dir = examples::out_dir();
    for (t, (img, dt)) in multi.images.iter().zip(&uow_elapsed).enumerate() {
        let path = dir.join(format!("movie_{t:02}.ppm"));
        img.save_ppm(&path).expect("write frame");
        println!(
            "timestep {t}: {:.3} virtual s, {} active pixels -> {}",
            dt.as_secs_f64(),
            img.coverage(isosurf::BACKGROUND),
            path.display()
        );
    }
    let avg = uow_elapsed.iter().map(|d| d.as_secs_f64()).sum::<f64>() / uow_elapsed.len() as f64;
    println!(
        "\naverage per-timestep render time: {avg:.3}s ({} engine events total)",
        multi.report.events
    );
}
