//! Small workload sizes that keep debug-build tests quick.

use kvcsd_perfbench::dump::DumpParams;
use kvcsd_perfbench::mixed::MixedParams;
use kvcsd_perfbench::query::QueryParams;
use kvcsd_perfbench::run::Params;

pub fn tiny() -> Params {
    Params {
        dump: DumpParams {
            timesteps: 2,
            mean_particles: 3_000,
        },
        query: QueryParams {
            timesteps: 2,
            particles_per_timestep: 2_000,
            gets: 80,
            ranges: 15,
            sidx: 5,
        },
        mixed: MixedParams {
            epochs: 3,
            puts_per_epoch: 40,
            gets_per_epoch: 30,
            ranges_per_epoch: 6,
        },
    }
}
