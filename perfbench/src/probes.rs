//! Probes timed from outside the program through public APIs: host memory
//! bandwidth and FLOP rate (the roofline and the memsim host spec), an
//! empty `WorkerPool` region, a replay of `ScratchpadManager::plan`, and
//! the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

use embeddings::SparseBatch;
use memsim::{ComputeSpec, DeviceSpec, LinkSpec, SystemSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scratchpipe::{ScratchError, ScratchpadManager, WorkerPool};

use crate::stats::median;
use crate::workload::Workload;

/// Rows of the gather-probe table: 2 Mi rows × 32 f32 = 256 MiB, larger
/// than the last-level cache of current server parts.
pub const PROBE_ROWS: usize = 1 << 21;
/// Row width of the probe table, the workloads' embedding dimension.
pub const PROBE_DIM: usize = 32;
/// Random rows gathered per gather-probe repetition.
const GATHER_ROWS: usize = 1 << 20;
/// Destination ring of the probes, in rows (512 KiB: stays cache-resident
/// so the probe measures reads of the large table).
const RING_ROWS: usize = 4096;
/// Repetitions per probe; the median is reported.
const PROBE_REPS: usize = 5;

/// Host memory bandwidth and FLOP rate.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Random-row gather bandwidth over a table larger than the LLC, GB/s.
    pub gather_gbps: f64,
    /// Streaming copy bandwidth from the same table, GB/s.
    pub stream_gbps: f64,
    /// Single-thread f32 multiply-add rate over a cache-resident vector,
    /// GFLOP/s.
    pub gflops: f64,
}

impl HostProbe {
    /// Runs all three probes (~1 s, 256 MiB, freed on return).
    pub fn measure(seed: u64) -> Self {
        let table: Vec<f32> = (0..PROBE_ROWS * PROBE_DIM).map(|i| i as f32).collect();
        let mut ring = vec![0.0f32; RING_ROWS * PROBE_DIM];
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<usize> = (0..GATHER_ROWS)
            .map(|_| rng.gen_range(0..PROBE_ROWS))
            .collect();
        let row_bytes = (PROBE_DIM * 4) as f64;

        let gather_gbps = median_of(PROBE_REPS, || {
            let t0 = Instant::now();
            for (k, &r) in rows.iter().enumerate() {
                let dst = (k % RING_ROWS) * PROBE_DIM;
                ring[dst..dst + PROBE_DIM]
                    .copy_from_slice(&table[r * PROBE_DIM..(r + 1) * PROBE_DIM]);
            }
            black_box(&ring);
            GATHER_ROWS as f64 * row_bytes / t0.elapsed().as_nanos() as f64
        });
        let stream_gbps = median_of(PROBE_REPS, || {
            let t0 = Instant::now();
            for chunk in table.chunks(ring.len()) {
                ring[..chunk.len()].copy_from_slice(chunk);
                black_box(&ring);
            }
            (table.len() * 4) as f64 / t0.elapsed().as_nanos() as f64
        });
        drop(table);

        let x = vec![1e-3f32; 4096];
        let mut y = vec![0.0f32; 4096];
        let reps = 20_000;
        let gflops = median_of(PROBE_REPS, || {
            let t0 = Instant::now();
            for _ in 0..reps {
                for (y, &x) in y.iter_mut().zip(black_box(&x)) {
                    *y += 0.5 * x;
                }
                black_box(&y);
            }
            (2 * x.len() * reps) as f64 / t0.elapsed().as_nanos() as f64
        });
        HostProbe {
            gather_gbps,
            stream_gbps,
            gflops,
        }
    }

    /// A memsim host: CPU and "GPU" memory are both this host's DRAM
    /// (random efficiency = gather / stream bandwidth), the "PCIe" link is
    /// a memcpy, and compute is the probed FLOP rate. Launch and op
    /// latencies are zero: stages run as plain function calls.
    pub fn system_spec(&self) -> SystemSpec {
        let bw = self.stream_gbps * 1e9;
        let eff = (self.gather_gbps / self.stream_gbps).clamp(1e-3, 1.0);
        let mem = DeviceSpec {
            peak_bw: bw,
            random_read_eff: eff,
            random_write_eff: eff,
            stream_eff: 1.0,
            op_latency: 0.0,
        };
        let compute = ComputeSpec {
            peak_flops: self.gflops * 1e9,
            gemm_eff: 1.0,
            kernel_overhead: 0.0,
        };
        SystemSpec {
            cpu_mem: mem,
            gpu_mem: mem,
            pcie: LinkSpec {
                peak_bw: bw,
                efficiency: 1.0,
                latency: 0.0,
            },
            gpu_compute: compute,
            cpu_compute: compute,
            num_gpus: 1,
            nvlink_bw: 0.0,
        }
    }
}

/// Median wall time, in µs, of an empty-task `WorkerPool::run_tasks`
/// region with one task per worker.
pub fn worker_region_us(width: usize) -> f64 {
    let pool = WorkerPool::new(width);
    median_of(200, || {
        let tasks: Vec<_> = (0..width).map(|_| || ()).collect();
        let t0 = Instant::now();
        let _ = black_box(pool.run_tasks(tasks));
        t0.elapsed().as_nanos() as f64 / 1e3
    })
}

/// Replays the trace's per-table unique IDs through fresh
/// `ScratchpadManager`s exactly as the \[Plan\] stage calls them (current
/// batch plus the lookahead window) and returns the median ns per unique
/// ID over three replays.
pub fn plan_replay_ns_per_unique(
    workload: &Workload,
    batches: &[SparseBatch],
) -> Result<f64, ScratchError> {
    let config = workload.config();
    let future = config.window.future as usize;
    let uniq: Vec<Vec<Vec<u64>>> = batches
        .iter()
        .map(SparseBatch::unique_ids_per_table)
        .collect();
    let unique_total: usize = uniq.iter().flatten().map(Vec::len).sum();
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut managers = (0..workload.tables)
            .map(|_| ScratchpadManager::new(config.slots_per_table, config.window, config.policy))
            .collect::<Result<Vec<_>, _>>()?;
        let t0 = Instant::now();
        for i in 0..uniq.len() {
            for (t, manager) in managers.iter_mut().enumerate() {
                let futures: Vec<&[u64]> = (1..=future)
                    .filter_map(|k| uniq.get(i + k).map(|per_table| per_table[t].as_slice()))
                    .collect();
                black_box(manager.plan(&uniq[i][t], &futures)?);
            }
        }
        samples.push(t0.elapsed().as_nanos() as f64 / unique_total.max(1) as f64);
    }
    Ok(median(&samples))
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> Option<f64> {
    use std::os::raw::{c_int, c_long};
    // `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage` of the platform layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Peak resident set size is only read on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().is_some_and(|m| m > 1.0));
    }

    #[test]
    fn region_probe_times_something() {
        assert!(worker_region_us(2) > 0.0);
    }

    #[test]
    fn plan_replay_runs_the_window() {
        let w = Workload {
            iterations: 8,
            rows: 5_000,
            ..WORKLOADS[1]
        };
        assert!(plan_replay_ns_per_unique(&w, &w.trace(1)).unwrap() > 0.0);
    }

    #[test]
    fn host_spec_is_valid() {
        let probe = HostProbe {
            gather_gbps: 2.0,
            stream_gbps: 10.0,
            gflops: 8.0,
        };
        let spec = probe.system_spec();
        spec.validate().unwrap();
        assert!((spec.cpu_mem.random_read_bw() - 2e9).abs() < 1.0);
    }
}
