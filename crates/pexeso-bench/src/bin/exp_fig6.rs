//! Fig. 6 — (a) distance-computation counts and (b) index sizes for
//! CTREE, EPT, PEXESO-H, PEXESO on the OPEN-like and SWDC-like datasets.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_fig6`

use pexeso::prelude::*;
use pexeso_baselines::covertree::CoverTreeIndex;
use pexeso_baselines::ept::EptIndex;
use pexeso_baselines::pexeso_h::PexesoHIndex;
use pexeso_baselines::VectorJoinSearch;
use pexeso_bench::fmt::TablePrinter;
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;

/// Per-method (distance-computation count, index size) measurements.
type Fig6Numbers = (Vec<(String, u64)>, Vec<(String, usize)>);

fn run(w: &Workload, n_queries: usize) -> Fig6Numbers {
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    let tau = Tau::Ratio(0.06);
    let t = JoinThreshold::Ratio(0.6);

    let ctree = CoverTreeIndex::build(&w.embedded.columns, Euclidean).expect("ctree");
    let ept = EptIndex::build(&w.embedded.columns, Euclidean, 5, 42).expect("ept");
    let h = PexesoHIndex::build(&w.embedded.columns, Euclidean, w.index_options()).expect("h");
    let pex = PexesoIndex::build(w.embedded.columns.clone(), Euclidean, w.index_options())
        .expect("pexeso");

    let mut dists = Vec::new();
    let mut count = |name: &str, f: &dyn Fn(&pexeso::pipeline::EmbeddedQuery) -> u64| {
        let total: u64 = queries.iter().map(f).sum();
        dists.push((name.to_string(), total / n_queries as u64));
    };
    count("CTREE", &|q| {
        ctree
            .search(q.store(), tau, t)
            .unwrap()
            .1
            .distance_computations
    });
    count("EPT", &|q| {
        ept.search(q.store(), tau, t)
            .unwrap()
            .1
            .distance_computations
    });
    count("PEXESO-H", &|q| {
        h.search(q.store(), tau, t).unwrap().1.distance_computations
    });
    count("PEXESO", &|q| {
        pex.execute(&sequential_query(tau, t), q.store())
            .unwrap()
            .stats
            .distance_computations
    });

    let sizes = vec![
        ("CTREE".to_string(), ctree.index_bytes()),
        ("EPT".to_string(), ept.index_bytes()),
        ("PEXESO-H".to_string(), h.index_bytes()),
        ("PEXESO".to_string(), pex.index_bytes()),
    ];
    (dists, sizes)
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency();
    println!("Fig. 6: distance computations and index sizes (scale={scale}, {n_queries} queries, tau=6%, T=60%)\n");

    let open = Workload::open(scale * 0.5, 11);
    let swdc = Workload::swdc(scale, 13);
    let (open_d, open_s) = run(&open, n_queries);
    let (swdc_d, swdc_s) = run(&swdc, n_queries);

    println!("(a) average distance computations per query");
    let mut t = TablePrinter::new(&["Method", "OPEN", "SWDC"]);
    for ((name, od), (_, sd)) in open_d.iter().zip(swdc_d.iter()) {
        t.row(vec![name.clone(), od.to_string(), sd.to_string()]);
    }
    t.print();

    println!("\n(b) index size (MB)");
    let mut t = TablePrinter::new(&["Method", "OPEN", "SWDC"]);
    for ((name, ob), (_, sb)) in open_s.iter().zip(swdc_s.iter()) {
        t.row(vec![
            name.clone(),
            format!("{:.2}", *ob as f64 / 1e6),
            format!("{:.2}", *sb as f64 / 1e6),
        ]);
    }
    t.print();
}
