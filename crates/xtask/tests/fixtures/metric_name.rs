//! Negative fixture for the `metric-name` rule: lookups with literals
//! that are not in the METRIC_NAMES registry must fire; registered
//! names, non-literal arguments and suppressed probes must not.

pub fn lookups(t: &rn_obs::QueryTrace) {
    let _ = rn_obs::Metric::from_name("sp.heap_pops"); // registered: clean
    let _ = rn_obs::Metric::from_name("sp.heap_popz"); // typo: fires
    let _ = t.get_name("query.skyline.sizes"); // typo: fires
    let _ = t.get_name("sp.astar.pack.targets"); // registered (pack): clean
    let _ = t.get_name("sp.astar.pack.sweeps"); // retired: fires
    let _ = t.get_name("sp.lb.oracle_hits"); // registered (oracle): clean
    let _ = t.get_name("lbc.plb.oracle_discards"); // registered (oracle): clean
    let _ = rn_obs::Metric::from_name("oracle.build.bytez"); // typo: fires
    let _ = t.get_name("dyn.updates.applied"); // registered (dynamic): clean
    let _ = t.get_name("dyn.oracle.rebuilds"); // registered (dynamic): clean
    let _ = rn_obs::Metric::from_name("dyn.recompute.fullz"); // typo: fires
    let name = std::env::var("METRIC").unwrap_or_default();
    let _ = rn_obs::Metric::from_name(&name); // non-literal: clean
    // lint: allow(metric-name) — deliberate negative probe
    let _ = t.get_name("no.such.counter"); // suppressed: clean
}
