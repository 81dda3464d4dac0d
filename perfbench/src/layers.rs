//! The per-layer ledger of a traced run.
//!
//! Serve figures come from the traced phase itself (the submit span and
//! the pool's own statistics). Graph and RRAM costs are measured by
//! calling each layer directly on the workload's own model and inputs at
//! the workload's observed batch size, since the benchmark cannot put
//! spans inside the pool's workers. A layer a workload's path does not
//! use (RRAM off `rram-paper`, the stream layer off `stream-fleet`) is
//! still measured, on this workload's model or on a small control fleet,
//! so every workload reports every metric; such a control figure is left
//! out of the workload's residual.

use std::time::{Duration, Instant};

use crate::adapter::{self, BinaryNetwork, Plan, StatsSnapshot};
use crate::report::{self, Measured, PER_LAYER};
use crate::stats::median;
use crate::{fleet, trace, Args};

/// Timed repetitions per probe; a probe reports their median.
const REPS: usize = 5;
/// Wall time one probe may spend.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Mean duration of the spans recorded under `name`, in nanoseconds.
pub fn span_mean_ns(name: &str) -> f64 {
    let a = trace::aggregate(name);
    a.total_ns as f64 / a.count.max(1) as f64
}

/// Median over [`REPS`] repetitions of the cost of `f` per unit of work
/// (`units` per call), in nanoseconds; each repetition runs as many calls
/// as fit in its share of [`PROBE_BUDGET`].
fn unit_cost_ns(units: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let share = PROBE_BUDGET.as_secs_f64() / REPS as f64;
    let calls = ((share / once) as usize).max(1);
    let costs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / (calls * units) as f64
        })
        .collect();
    median(&costs)
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The per-layer metrics of one traced run, filled layer by layer.
pub struct LayerReport<'a> {
    net: &'a BinaryNetwork,
    rows: &'a [&'a [f32]],
    batch: usize,
    /// Self time per layer over the traced phase.
    self_times: Vec<(String, u64)>,
    values: Vec<(&'static str, f64)>,
}

impl<'a> LayerReport<'a> {
    /// A ledger for `net` probed on `rows` in batches of `batch`, with
    /// the traced phase's [`trace::self_time_by_layer`].
    pub fn new(
        net: &'a BinaryNetwork,
        rows: &'a [&'a [f32]],
        batch: usize,
        self_times: Vec<(String, u64)>,
    ) -> Self {
        assert!(!rows.is_empty(), "the ledger needs workload inputs");
        Self {
            net,
            rows,
            batch: batch.min(rows.len()).max(1),
            self_times,
            values: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// A value recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if `name` has not been recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} not recorded yet"))
    }

    /// Batches of the workload's rows, cycling through all of them.
    fn batches(&self) -> Vec<&'a [&'a [f32]]> {
        self.rows.chunks_exact(self.batch).collect()
    }

    /// Serve layer: submit cost from the traced phase plus the pool's
    /// queue-wait, service and batching statistics.
    pub fn serve(&mut self, stats: &StatsSnapshot, submit_us: f64) {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        self.set("serve.submit_us", submit_us);
        self.set("serve.queue_wait_p50_us", us(stats.queue_p50));
        self.set("serve.queue_wait_p99_us", us(stats.queue_p99));
        self.set("serve.service_p50_us", us(stats.service_p50));
        self.set("serve.service_p99_us", us(stats.service_p99));
        self.set("serve.mean_batch", stats.mean_batch);
        self.set("serve.rejected", stats.rejected as f64);
    }

    /// Graph layer: plan compile, input packing and full software replay.
    pub fn graph(&mut self) {
        let (net, batch) = (self.net, self.batch);
        self.set(
            "graph.compile_ms",
            median_ms(REPS, || Plan::compile(net, batch)),
        );
        let batches = self.batches();
        let mut plan = Plan::compile(net, batch);
        let mut k = 0;
        let pack = unit_cost_ns(batch, || {
            plan.pack(batches[k % batches.len()]);
            k += 1;
        });
        self.set("graph.pack_ns_per_sample", pack);
        let replay = unit_cost_ns(batch, || {
            std::hint::black_box(plan.replay(batches[k % batches.len()]));
            k += 1;
        });
        self.set("graph.replay_ns_per_sample", replay);
    }

    /// RRAM layer: programming, each layer's sense sweep, the fabric plan
    /// replay, and the fabric's sense and health counters. With `pool`
    /// (the workload served on RRAM), senses and energy come from the
    /// pool's own counters.
    pub fn rram(&mut self, engine_seed: u64, pool: Option<&StatsSnapshot>) {
        let (net, batch) = (self.net, self.batch);
        self.set(
            "rram.program_ms",
            median_ms(3, || adapter::program_fabric(net, engine_seed)),
        );
        let batches = self.batches();
        let mut layers = adapter::program_layers(net, engine_seed);
        let inputs = adapter::layer_inputs(&mut layers, batches[0]);
        const SENSE: [&str; 2] = ["rram.sense_ns_per_sample.l0", "rram.sense_ns_per_sample.l1"];
        for (i, name) in SENSE.into_iter().enumerate() {
            let cost = match layers.get_mut(i) {
                Some(layer) => unit_cost_ns(batch, || adapter::sense_layer(layer, i, &inputs[i])),
                None => 0.0,
            };
            self.set(name, cost);
        }
        let mut fabric = adapter::program_fabric(net, engine_seed);
        let mut plan = Plan::compile(net, batch);
        let senses_before = adapter::fabric_senses(&fabric);
        let mut k = 0;
        let replay = unit_cost_ns(batch, || {
            std::hint::black_box(plan.replay_on(&mut fabric, batches[k % batches.len()]));
            k += 1;
        });
        self.set("rram.replay_ns_per_sample", replay);
        let senses_per_sample = match pool {
            Some(stats) => {
                let samples: u64 = stats.engines.iter().map(|e| e.samples).sum();
                adapter::pool_senses(stats) as f64 / samples.max(1) as f64
            }
            None => {
                let senses = adapter::fabric_senses(&fabric) - senses_before;
                senses as f64 / (k * batch) as f64
            }
        };
        self.set("rram.senses_per_sample", senses_per_sample);
        self.set(
            "rram.marginal_cells",
            adapter::marginal_cells(&fabric) as f64,
        );
        // `+ 0.0` turns the -0.0 a sum of zero flip terms can produce into 0.
        self.set(
            "rram.expected_flips_per_sample",
            adapter::expected_flips_per_sample(&fabric) + 0.0,
        );
        self.set(
            "rram.uj_per_sample",
            adapter::sense_energy_uj(1) * senses_per_sample,
        );
    }

    /// Stream layer figures measured on the workload's own fleet.
    pub fn stream(&mut self, featurize_us_per_window: f64, pull_gap_us: f64) {
        self.set("stream.featurize_us_per_window", featurize_us_per_window);
        self.set("stream.pull_gap_us", pull_gap_us);
    }

    /// Stream layer figures from the control fleet, for workloads whose
    /// path does not stream.
    pub fn stream_control(&mut self, seed: u64) {
        let (featurize, gap) = fleet::control_probe(seed);
        self.stream(featurize, gap);
    }

    /// Residual and tracing overhead. `path_ns` is the summed per-sample
    /// cost of the layers on the workload's path; `threads` the load and
    /// worker threads, of which at most the host's cores run at once.
    ///
    /// The residual is the core time per sample the host had
    /// (cores in use × wall time per sample, in the traced phase) minus
    /// `path_ns`: time spent outside the named layers, or idle.
    pub fn close(&mut self, untraced: &Measured, traced: &Measured, path_ns: f64, threads: usize) {
        let cores = threads.min(report::host_cores()) as f64;
        let budget_ns = cores * 1e9 / traced.samples_per_s();
        let residual = budget_ns - path_ns;
        println!(
            "residual: {cores} cores x {:.1} ns wall per sample = {budget_ns:.1} ns; \
             named layers {path_ns:.1} ns; residual {residual:.1} ns ({:.1}%)",
            1e9 / traced.samples_per_s(),
            100.0 * residual / budget_ns
        );
        self.set("residual_ns_per_sample", residual);
        self.set("residual_share", residual / budget_ns);
        let (u, t) = (untraced.samples_per_s(), traced.samples_per_s());
        println!(
            "tracing overhead: samples_per_s {u:.1} untraced vs {t:.1} traced; \
             latency p50 {:.2} vs {:.2} us, p99 {:.2} vs {:.2} us",
            untraced.latency_us(0.5),
            traced.latency_us(0.5),
            untraced.latency_us(0.99),
            traced.latency_us(0.99)
        );
        self.set("trace.overhead_share", (u - t) / u);
    }

    /// Prints the ledger and per-layer self times, writes the trace file,
    /// and returns the metrics in declaration order.
    pub fn finish(self, args: &Args, synth_s: f64) -> Vec<(&'static str, f64)> {
        for (layer, ns) in &self.self_times {
            println!("traced phase self time {layer}: {:.6} s", *ns as f64 / 1e9);
        }
        for (name, unit) in PER_LAYER {
            if let Some((_, v)) = self.values.iter().find(|(n, _)| *n == name) {
                println!("layer {name} = {v} {unit}");
            }
        }
        write_trace(args, synth_s);
        self.values
    }
}

/// Writes the run's spans next to the benchmark's sources; a failure to
/// write is reported and not fatal (the printed ledger is the result).
fn write_trace(args: &Args, synth_s: f64) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let json = trace::to_json(&report::stamp(args, synth_s));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
