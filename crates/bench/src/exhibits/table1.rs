//! Table I: key architectural specifications for Summit and Frontier.

use crate::{Args, Output, Table};

pub fn run(_: &Args) -> Output {
    let mut t = Table::new(
        "Key architectural specifications",
        "Table I",
        &["", "Summit", "Frontier"],
    );
    for (label, s, f) in hplai_core::systems::table1_rows() {
        t.row(&[&label, &s, &f]);
    }
    Output::new("table1", t)
}
