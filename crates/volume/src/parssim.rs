//! Synthetic reactive-transport fields standing in for ParSSim output.
//!
//! The paper's datasets come from ParSSim, a parallel subsurface simulator:
//! fluid flow plus transport of four chemical species over ten timesteps on
//! a rectilinear grid. We cannot run ParSSim, so this module generates a
//! deterministic analogue: each species is a sum of Gaussian plumes that
//! advect along a gently swirling velocity field and diffuse (widen) over
//! time, over a background of smooth low-amplitude noise. What matters for
//! the reproduction is preserved: smooth spatially-coherent scalar fields
//! whose isosurfaces have non-trivial, time-varying shape and whose
//! triangle density varies across sub-volumes (the source of load
//! imbalance the paper exploits).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::grid::{Dims, RectGrid};

/// Number of chemical species the paper's dataset carries.
pub const SPECIES_COUNT: u32 = 4;

/// Number of stored timesteps in the paper's datasets.
pub const TIMESTEPS: u32 = 10;

/// Parameters of the synthetic simulation.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Grid point dimensions.
    pub dims: Dims,
    /// RNG seed; the same seed always produces the same dataset.
    pub seed: u64,
    /// Plumes per species.
    pub plumes_per_species: u32,
    /// Background noise amplitude (fraction of plume amplitude).
    pub noise: f32,
}

impl SimParams {
    /// Sensible defaults for a `dims` grid.
    pub fn new(dims: Dims, seed: u64) -> Self {
        SimParams {
            dims,
            seed,
            plumes_per_species: 5,
            noise: 0.04,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Plume {
    center: [f32; 3],
    sigma: f32,
    amplitude: f32,
    drift: [f32; 3],
    growth: f32,
}

/// Generates species concentration fields for any (species, timestep)
/// pair, deterministically from the seed.
pub struct ParSSim {
    params: SimParams,
    plumes: Vec<Vec<Plume>>, // per species
    phase: [f32; 4],
}

impl ParSSim {
    /// Set up the generator (cheap; fields are produced on demand).
    pub fn new(params: SimParams) -> Self {
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let plumes = (0..SPECIES_COUNT)
            .map(|_| {
                (0..params.plumes_per_species)
                    .map(|_| Plume {
                        center: [
                            rng.gen_range(0.15..0.85),
                            rng.gen_range(0.15..0.85),
                            rng.gen_range(0.15..0.85),
                        ],
                        sigma: rng.gen_range(0.06..0.16),
                        amplitude: rng.gen_range(0.5..1.0),
                        drift: [
                            rng.gen_range(-0.03..0.03),
                            rng.gen_range(-0.03..0.03),
                            rng.gen_range(0.01..0.05), // buoyant rise
                        ],
                        growth: rng.gen_range(1.00..1.06),
                    })
                    .collect()
            })
            .collect();
        let phase = [
            rng.gen_range(0.0..std::f32::consts::TAU),
            rng.gen_range(0.0..std::f32::consts::TAU),
            rng.gen_range(0.0..std::f32::consts::TAU),
            rng.gen_range(0.0..std::f32::consts::TAU),
        ];
        ParSSim {
            params,
            plumes,
            phase,
        }
    }

    /// Grid dimensions fields are produced at.
    pub fn dims(&self) -> Dims {
        self.params.dims
    }

    /// The species' plumes advected to `timestep`.
    fn snapshot(&self, species: u32, timestep: u32) -> Vec<Plume> {
        assert!(species < SPECIES_COUNT, "species out of range");
        let t = timestep as f32;
        self.plumes[species as usize]
            .iter()
            .map(|p| {
                // Swirl: drift rotates slowly around z as time advances.
                let ang = 0.18 * t + self.phase[0];
                let (s, c) = ang.sin_cos();
                let dx = p.drift[0] * c - p.drift[1] * s;
                let dy = p.drift[0] * s + p.drift[1] * c;
                Plume {
                    center: [
                        wrap01(p.center[0] + dx * t),
                        wrap01(p.center[1] + dy * t),
                        wrap01(p.center[2] + p.drift[2] * t),
                    ],
                    sigma: p.sigma * p.growth.powf(t),
                    amplitude: p.amplitude / p.growth.powf(t), // mass spreads
                    drift: p.drift,
                    growth: p.growth,
                }
            })
            .collect()
    }

    /// Concentration field of `species` at `timestep`.
    ///
    /// Values are roughly in `[0, ~1.5]`; isovalues around `0.35..0.6`
    /// produce rich surfaces.
    ///
    /// Every term of a sample — a plume's squared periodic distance along
    /// one axis, one factor of the background texture — depends on a
    /// single coordinate, so each is tabulated once per axis and a sample
    /// only combines table entries (in exactly the order
    /// `field_reference` evaluates them: the result is bit-identical).
    pub fn field(&self, species: u32, timestep: u32) -> RectGrid {
        self.field_rows(species, timestep, |_, _, _| {})
    }

    /// [`field`](Self::field), handing each point row to `each_row(y, z,
    /// samples)` as soon as it is final, while it is still in cache.
    pub(crate) fn field_rows(
        &self,
        species: u32,
        timestep: u32,
        mut each_row: impl FnMut(u32, u32, &[f32]),
    ) -> RectGrid {
        let d = self.params.dims;
        let snap = self.snapshot(species, timestep);
        let t = timestep as f32;
        let ph = self.phase;

        let axis = |n: u32| {
            let inv = 1.0 / (n.max(2) - 1) as f32;
            (0..n).map(move |i| i as f32 * inv)
        };
        // Squared periodic distance to plume `pl`'s centre along `a`
        // (plumes wrap at the domain edge).
        let dist2 = |n: u32, a: usize, pl: &Plume| -> Vec<f32> {
            axis(n)
                .map(|p| {
                    let mut dd = (p - pl.center[a]).abs();
                    if dd > 0.5 {
                        dd = 1.0 - dd;
                    }
                    dd * dd
                })
                .collect()
        };
        let texture = |n: u32, freq: f32, phase: f32| -> Vec<f32> {
            axis(n).map(|p| (p * freq + phase).sin()).collect()
        };
        let tex = [
            texture(d.nx, 9.2, ph[1]),
            texture(d.ny, 7.7, ph[2]),
            // Not `texture(.., ph[3] + 0.11 * t)`: that would reassociate
            // the sum and move the last bit.
            axis(d.nz)
                .map(|p| (p * 8.4 + ph[3] + 0.11 * t).sin())
                .collect(),
        ];
        let tables: Vec<_> = snap
            .iter()
            .map(|pl| {
                let s2 = pl.sigma * pl.sigma;
                let d2 = [dist2(d.nx, 0, pl), dist2(d.ny, 1, pl), dist2(d.nz, 2, pl)];
                (d2, 9.0 * s2, 2.0 * s2, pl.amplitude)
            })
            .collect();

        let mut data = vec![0.0f32; d.points() as usize];
        for (r, row) in data.chunks_exact_mut(d.nx.max(1) as usize).enumerate() {
            let (y, z) = (r % d.ny as usize, r / d.ny as usize);
            for ([dx, dy, dz], cutoff, two_s2, amplitude) in &tables {
                let (ay, az) = (dy[y], dz[z]);
                // The whole row is out of reach: `ax >= 0` and rounding is
                // monotone, so `(ax + ay) + az >= ay + az` for every x.
                if ay + az >= *cutoff {
                    continue;
                }
                for (v, ax) in row.iter_mut().zip(dx) {
                    let r2 = ax + ay + az;
                    if r2 < *cutoff {
                        *v += amplitude * (-r2 / two_s2).exp();
                    }
                }
            }
            // Smooth deterministic background texture.
            let (sy, sz) = (tex[1][y], tex[2][z]);
            for (v, sx) in row.iter_mut().zip(&tex[0]) {
                *v += self.params.noise * (sx * sy * sz).abs();
            }
            each_row(y as u32, z as u32, row);
        }
        RectGrid { dims: d, data }
    }

    /// `field` as first written, one closure call per point: the oracle
    /// the tabulated version must match bit for bit.
    #[cfg(test)]
    fn field_reference(&self, species: u32, timestep: u32) -> RectGrid {
        let d = self.params.dims;
        let t = timestep as f32;
        let noise_amp = self.params.noise;
        let ph = self.phase;
        let snap = self.snapshot(species, timestep);

        let inv = [
            1.0 / (d.nx.max(2) - 1) as f32,
            1.0 / (d.ny.max(2) - 1) as f32,
            1.0 / (d.nz.max(2) - 1) as f32,
        ];
        RectGrid::from_fn(d, |x, y, z| {
            let p = [x as f32 * inv[0], y as f32 * inv[1], z as f32 * inv[2]];
            let mut v = 0.0f32;
            for pl in &snap {
                let mut r2 = 0.0f32;
                for (pi, ci) in p.iter().zip(&pl.center) {
                    // Periodic distance, plumes wrap at the domain edge.
                    let mut dd = (pi - ci).abs();
                    if dd > 0.5 {
                        dd = 1.0 - dd;
                    }
                    r2 += dd * dd;
                }
                let s2 = pl.sigma * pl.sigma;
                if r2 < 9.0 * s2 {
                    v += pl.amplitude * (-r2 / (2.0 * s2)).exp();
                }
            }
            // Smooth deterministic background texture.
            v + noise_amp
                * ((p[0] * 9.2 + ph[1]).sin()
                    * (p[1] * 7.7 + ph[2]).sin()
                    * (p[2] * 8.4 + ph[3] + 0.11 * t).sin())
                .abs()
        })
    }
}

#[inline]
fn wrap01(v: f32) -> f32 {
    v - v.floor()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn small() -> ParSSim {
        ParSSim::new(SimParams::new(Dims::new(17, 17, 17), 42))
    }

    /// Regenerating a field gives it back bit for bit.
    #[test]
    fn deterministic_for_same_seed() {
        let bits = |g: RectGrid| g.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let a = small().field(0, 3);
        let b = small().field(0, 3);
        assert_eq!(a.dims, b.dims);
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn seeds_differ() {
        let a = ParSSim::new(SimParams::new(Dims::new(9, 9, 9), 1)).field(0, 0);
        let b = ParSSim::new(SimParams::new(Dims::new(9, 9, 9), 2)).field(0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn species_differ() {
        let sim = small();
        assert_ne!(sim.field(0, 0), sim.field(1, 0));
    }

    #[test]
    fn time_evolves() {
        let sim = small();
        assert_ne!(sim.field(0, 0), sim.field(0, 5));
    }

    #[test]
    fn values_are_positive_and_bounded() {
        let sim = small();
        for t in [0, 5, 9] {
            let (lo, hi) = sim.field(2, t).value_range();
            assert!(lo >= 0.0, "negative concentration {lo}");
            assert!(hi <= 6.0, "implausible concentration {hi}");
            assert!(hi > 0.2, "field is essentially empty ({hi})");
        }
    }

    #[test]
    fn isovalue_crosses_surface() {
        // A mid-range isovalue must separate the grid into both sides,
        // otherwise the extraction stage has nothing to do.
        let f = small().field(0, 2);
        let iso = 0.5;
        let above = f.data.iter().filter(|&&v| v > iso).count();
        assert!(above > 0 && above < f.data.len());
    }

    /// The tabulated `field` against the per-point original, whole fields
    /// by `to_bits()`: cubes and a lopsided box, a one-point axis, every
    /// species, early / middle / late timesteps.
    #[test]
    fn tabulated_field_is_bit_identical_to_the_per_point_original() {
        for (nx, ny, nz) in [
            (2, 2, 2),
            (17, 17, 17),
            (33, 9, 21),
            (5, 1, 3),
            (65, 65, 65),
        ] {
            let sim = ParSSim::new(SimParams::new(Dims::new(nx, ny, nz), 2002 + nx as u64));
            for species in 0..SPECIES_COUNT {
                for timestep in [0, 3, 9] {
                    let bits = |g: RectGrid| g.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(sim.field(species, timestep)),
                        bits(sim.field_reference(species, timestep)),
                        "{nx}x{ny}x{nz} species {species} timestep {timestep}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "species out of range")]
    fn species_bound_checked() {
        let _ = small().field(SPECIES_COUNT, 0);
    }
}
