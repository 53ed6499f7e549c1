//! The four workloads: what each serves, how its traffic looks, and the
//! rates and latency limit fixed for it. Every workload reports every
//! end-to-end metric, so each serves and trains; they differ in what
//! dominates.

use inbox_serve::IndexMode;

use crate::traffic::Writes;

pub struct Workload {
    pub name: &'static str,
    /// Catalog multiplier over the `small` twin's 400 items.
    pub items_scale: usize,
    pub index: IndexMode,
    pub writes: Writes,
    /// Every this-many-th request is a `POST /ingest`.
    pub ingest_every: usize,
    /// Arrival rates, requests per second.
    pub light: f64,
    pub nominal: f64,
    /// The capacity ladder's top rung: about half the lowest overload rate
    /// the stack sustained on a 2-vCPU x86 VM (1500, 340, 930 and 2080
    /// req/s in workload order), so host speed drifts of ±25% never flip
    /// it and a healthy run passes it.
    pub rung: f64,
    /// An offered rate well past the knee; the rate the stack actually
    /// answers at is reported as `loadgen.overload.ok_rps`.
    pub overload: f64,
    /// `/recommend` p99 limit for a ladder rung to pass, milliseconds.
    pub p99_limit_ms: f64,
    /// Share of `--seconds` given to the serving phases; the rest goes to
    /// the training section.
    pub serve_share: f64,
    /// Whether `setup_s` times the training set-up rather than the serving
    /// stack's.
    pub training_setup: bool,
}

pub const WORKLOADS: &[Workload] = &[
    // 400 items, a write beside every two reads: each churn ingest bumps a
    // user's version, so the next read of that user rebuilds the box on the
    // autodiff tape, and every ingest takes `engine.live`'s write lock.
    Workload {
        name: "churn-small",
        items_scale: 1,
        index: IndexMode::FullSort,
        writes: Writes::Churn,
        ingest_every: 3,
        light: 100.0,
        nominal: 250.0,
        rung: 800.0,
        overload: 3000.0,
        p99_limit_ms: 100.0,
        serve_share: 0.8,
        training_setup: false,
    },
    // 40k items, full sort: the scoring kernel and top-k dominate. Writes
    // re-record known items, so every box stays cached.
    Workload {
        name: "catalog-full",
        items_scale: 100,
        index: IndexMode::FullSort,
        writes: Writes::Rerecord,
        ingest_every: 4,
        light: 20.0,
        nominal: 60.0,
        rung: 180.0,
        overload: 900.0,
        p99_limit_ms: 200.0,
        serve_share: 0.8,
        training_setup: false,
    },
    // The same catalog and traffic through the auto-tuned IVF index.
    Workload {
        name: "catalog-ivf",
        items_scale: 100,
        index: IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
        writes: Writes::Rerecord,
        ingest_every: 4,
        light: 50.0,
        nominal: 150.0,
        rung: 500.0,
        overload: 2500.0,
        p99_limit_ms: 100.0,
        serve_share: 0.8,
        training_setup: false,
    },
    // Training-dominant: most of the run is epochs of stages 1–3; the
    // serving phases read the small twin with every box cached.
    Workload {
        name: "train-epoch",
        items_scale: 1,
        index: IndexMode::FullSort,
        writes: Writes::Rerecord,
        ingest_every: 4,
        light: 100.0,
        nominal: 300.0,
        rung: 1100.0,
        overload: 4000.0,
        p99_limit_ms: 100.0,
        serve_share: 0.4,
        training_setup: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
