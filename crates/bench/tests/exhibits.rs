//! Every simulated exhibit, run through the registry in memory, renders
//! its tables byte for byte as committed under `results/`. Simulated
//! numbers depend on nothing but the code (not the host, thread count or
//! build profile), so a change that moves one must regenerate the file
//! with `repro <exhibit>` and commit it. `*_perf.json` files carry host
//! wall time and are not committed.

use mxp_bench::{Args, EXHIBITS};
use std::path::Path;

#[test]
fn simulated_exhibits_match_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files = 0;
    let mut stale = Vec::new();
    for ex in EXHIBITS.iter().filter(|e| e.bench.is_none()) {
        let out = (ex.run)(&Args::default());
        assert!(!out.tables.is_empty(), "{} produced no table", ex.name);
        for (stem, table) in &out.tables {
            for (ext, rendered) in [("csv", table.csv()), ("json", table.json())] {
                let name = format!("{stem}.{ext}");
                let committed = std::fs::read_to_string(results.join(&name))
                    .unwrap_or_else(|e| panic!("results/{name}: {e}"));
                if committed != rendered {
                    stale.push(format!("results/{name} (repro {})", ex.name));
                }
                files += 1;
            }
        }
    }
    assert!(stale.is_empty(), "stale exhibit output: {stale:#?}");
    // 19 simulated exhibits; model_vs_sim writes two tables.
    assert_eq!(files, 2 * 20);
}
