//! The report generator: sink output → EXPERIMENTS.md.
//!
//! [`render_markdown`] turns a stream of [`Record`]s back into the
//! figure-style summary the paper presents: one section per
//! (topology, traffic) group with a **mean latency** and an **accepted
//! throughput** table, routings as rows and offered loads as columns —
//! the textual equivalent of a latency-vs-load curve. `sf-bench run
//! <file> --report EXPERIMENTS.md` wires it to the sweep runner; the
//! output is deterministic for a deterministic record stream, so
//! generated reports diff cleanly across PRs.

use crate::experiment::{fmt_float, Record};
use crate::plan::{intern, Backend, ExperimentPlan};

/// Renders records grouped per (topology, traffic) into markdown
/// tables (see the [module docs](self)). `heading` becomes the
/// top-level title; groups, routings and loads all appear in
/// first-record order, so the layout follows the plan that produced
/// the stream.
pub fn render_markdown(heading: &str, records: &[Record]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {heading}\n"));
    if records.is_empty() {
        out.push_str("\n_No records._\n");
        return out;
    }
    render_groups(&mut out, records, "");
    render_backend_comparison(&mut out, records);
    out.push_str("\n† operated past saturation (sample packets not drained).\n");
    out
}

/// Renders the (topology, traffic) groups of one record slice, with
/// `suffix` appended to each group heading (used to disambiguate
/// sweeps that share topology and traffic).
fn render_groups(out: &mut String, records: &[Record], suffix: &str) {
    // Group keys in first-appearance order. Packet size is part of the
    // key so a multi-size sweep (fig_packets) renders one table pair
    // per size instead of colliding rows; single-flit groups keep the
    // historical heading (no size annotation). The backend is part of
    // the key too, so a flow-vs-cycle comparison stream renders one
    // table pair per tier; cycle groups keep the historical heading.
    let mut groups: Vec<(String, String, usize, String)> = Vec::new();
    for r in records {
        let key = (
            r.topology.clone(),
            r.traffic.clone(),
            r.packet_size,
            r.backend.clone(),
        );
        intern(&mut groups, key);
    }
    for (topology, traffic, packet_size, backend) in &groups {
        let rows: Vec<&Record> = records
            .iter()
            .filter(|r| {
                &r.topology == topology
                    && &r.traffic == traffic
                    && r.packet_size == *packet_size
                    && &r.backend == backend
            })
            .collect();
        let mut loads: Vec<f64> = Vec::new();
        let mut routings: Vec<String> = Vec::new();
        for r in &rows {
            intern(&mut loads, r.offered);
            intern(&mut routings, r.routing.clone());
        }
        let size_note = if *packet_size == 1 {
            String::new()
        } else {
            format!(", {packet_size}-flit packets")
        };
        let backend_note = if backend == "cycle" {
            String::new()
        } else {
            format!(", {backend} backend")
        };
        out.push_str(&format!(
            "\n## {topology} — {traffic} traffic{size_note}{backend_note}{suffix}\n"
        ));
        render_table(
            out,
            "Mean latency (cycles)",
            &loads,
            &routings,
            &rows,
            |r| fmt_float(r.latency),
        );
        render_table(
            out,
            "Accepted throughput (flits/endpoint/cycle)",
            &loads,
            &routings,
            &rows,
            |r| fmt_float(r.accepted),
        );
    }
}

/// When the stream carries more than one backend, appends a
/// flow-vs-cycle saturation summary: for each (topology, traffic,
/// routing) present in both tiers, the highest accepted throughput
/// either backend reached across its load sweep — the measured knee
/// for the cycle engine, the max-min fair-share bound for the flow
/// solver — plus their ratio. This is the cross-validation table
/// EXPERIMENTS.md pins: ratios near 1 mean the fluid model tracks the
/// flit engine's knee.
fn render_backend_comparison(out: &mut String, records: &[Record]) {
    let has = |b: &str| records.iter().any(|r| r.backend == b);
    if !(has("cycle") && has("flow")) {
        return;
    }
    let sat_of = |topology: &str, traffic: &str, routing: &str, backend: &str| -> Option<f64> {
        records
            .iter()
            .filter(|r| {
                r.topology == topology
                    && r.traffic == traffic
                    && r.routing == routing
                    && r.backend == backend
            })
            .map(|r| r.accepted)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    };
    let mut combos: Vec<(String, String, String)> = Vec::new();
    for r in records {
        intern(
            &mut combos,
            (r.topology.clone(), r.traffic.clone(), r.routing.clone()),
        );
    }
    out.push_str("\n## Flow vs cycle saturation\n");
    out.push_str("\n| topology | traffic | routing | cycle knee | flow bound | flow/cycle |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for (topology, traffic, routing) in &combos {
        let (Some(cycle), Some(flow)) = (
            sat_of(topology, traffic, routing, "cycle"),
            sat_of(topology, traffic, routing, "flow"),
        ) else {
            continue;
        };
        let ratio = if cycle > 0.0 { flow / cycle } else { f64::NAN };
        out.push_str(&format!(
            "| {topology} | {traffic} | {routing} | {} | {} | {} |\n",
            fmt_float(cycle),
            fmt_float(flow),
            fmt_float(ratio),
        ));
    }
}

/// One routing × load table for a single metric; saturated cells are
/// marked `†`, (routing, load) pairs the stream never produced `—`.
fn render_table(
    out: &mut String,
    title: &str,
    loads: &[f64],
    routings: &[String],
    rows: &[&Record],
    cell: impl Fn(&Record) -> String,
) {
    out.push_str(&format!("\n**{title}**\n\n"));
    out.push_str("| routing |");
    for l in loads {
        out.push_str(&format!(" {} |", fmt_float(*l)));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in loads {
        out.push_str("---|");
    }
    out.push('\n');
    for routing in routings {
        out.push_str(&format!("| {routing} |"));
        for &l in loads {
            let found = rows
                .iter()
                .find(|r| &r.routing == routing && r.offered == l);
            match found {
                Some(r) if r.saturated => out.push_str(&format!(" {} † |", cell(r))),
                Some(r) => out.push_str(&format!(" {} |", cell(r))),
                None => out.push_str(" — |"),
            }
        }
        out.push('\n');
    }
}

/// Renders a plan's record stream with the plan's own title (falling
/// back to its name), sectioned **per sweep** so sweeps that share a
/// (topology, traffic) pair but differ in simulator configuration —
/// e.g. fig8a's buffer-size series — stay separate tables instead of
/// the first sweep shadowing the rest. Sweeps whose heading would
/// collide with an earlier one get the differing `sim` keys appended
/// (`buf_per_port = 16`). Falls back to the plain grouped rendering
/// when the stream does not match the plan's expansion.
pub fn render_plan_report(plan: &ExperimentPlan, records: &[Record]) -> String {
    let heading = match &plan.title {
        Some(t) => format!("{} — {t}", plan.name),
        None => plan.name.clone(),
    };
    let Ok(set) = plan.expand() else {
        return render_markdown(&heading, records);
    };
    if set.num_records() != records.len() {
        return render_markdown(&heading, records);
    }
    // Jobs are contiguous per sweep in expansion order; chunk the
    // record stream accordingly.
    let mut per_sweep: Vec<usize> = vec![0; plan.sweeps.len()];
    for job in set.jobs() {
        per_sweep[job.sweep] += job.loads.len();
    }
    let mut out = String::new();
    out.push_str(&format!("# {heading}\n"));
    if records.is_empty() {
        out.push_str("\n_No records._\n");
        return out;
    }
    let mut offset = 0;
    for (si, (sweep, count)) in plan.sweeps.iter().zip(&per_sweep).enumerate() {
        let slice = &records[offset..offset + count];
        offset += count;
        // Disambiguate against earlier sweeps that render the same
        // (topology, traffic, backend) headings: list the sim keys
        // that differ. Other backends' headings already differ, and so
        // do other fault plans (the topology label carries the fault
        // suffix).
        let suffix = plan.sweeps[..si]
            .iter()
            .find(|prev| {
                prev.topos == sweep.topos
                    && prev.faults == sweep.faults
                    && prev.traffic == sweep.traffic
                    && prev.backend == sweep.backend
            })
            .map(|prev| {
                let diff = sim_diff(sweep.backend, &prev.sim, &sweep.sim);
                if diff.is_empty() {
                    format!(" (sweep {})", si + 1)
                } else {
                    format!(" ({diff})")
                }
            })
            .unwrap_or_default();
        render_groups(&mut out, slice, &suffix);
    }
    render_backend_comparison(&mut out, records);
    out.push_str("\n† operated past saturation (sample packets not drained).\n");
    out
}

/// The `key = value` pairs in which `b` differs from `a`, in
/// [`SimConfig::fields`](sf_sim::SimConfig::fields) order (the heading
/// discriminator for same-topology sweeps). Only the fields `backend`
/// reads count: the flow tier uses just the per-hop latency terms,
/// never the cycle engine's windows or buffers. Packet size has its
/// own record column, and `threads` never changes records.
fn sim_diff(backend: Backend, a: &sf_sim::SimConfig, b: &sf_sim::SimConfig) -> String {
    let reads = |key: &str| match backend {
        Backend::Flow => matches!(key, "channel_latency" | "router_delay"),
        Backend::Cycle => !matches!(key, "packet_size" | "threads"),
    };
    let parts: Vec<String> = a
        .fields()
        .iter()
        .zip(b.fields())
        .filter(|(fa, fb)| reads(fb.key) && fa.value != fb.value)
        .map(|(_, fb)| format!("{} = {}", fb.key, fb.value))
        .collect();
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(topology: &str, routing: &str, offered: f64, latency: f64, saturated: bool) -> Record {
        Record {
            topology: topology.into(),
            spec: "sf:q=5".into(),
            routing: routing.into(),
            traffic: "uniform".into(),
            backend: "cycle".into(),
            packet_size: 1,
            offered,
            latency,
            p99: latency * 2.0,
            accepted: offered,
            avg_hops: 1.6,
            saturated,
            max_link_util: 0.4,
        }
    }

    #[test]
    fn sweeps_differing_only_in_faults_get_no_suffix() {
        let plan = ExperimentPlan::from_toml_str(
            "[figure]\nname = \"faults\"\n\
             [defaults]\nrouting = [\"min\"]\nloads = [0.1]\n\
             [[sweep]]\ntopo = \"sf:q=5\"\nfault_fractions = [0.01, 0.02]\n",
        )
        .unwrap();
        let records = vec![
            rec("SF(q=5,p=4) [faults l=0.01]", "MIN", 0.1, 11.0, false),
            rec("SF(q=5,p=4) [faults l=0.02]", "MIN", 0.1, 12.0, false),
        ];
        let md = render_plan_report(&plan, &records);
        assert_eq!(md.matches("## ").count(), 2, "{md}");
        assert!(!md.contains("(sweep"), "{md}");
    }

    #[test]
    fn renders_one_table_per_group_and_metric() {
        let records = vec![
            rec("SF(q=5,p=4)", "MIN", 0.1, 11.0, false),
            rec("SF(q=5,p=4)", "MIN", 0.5, 14.0, false),
            rec("SF(q=5,p=4)", "VAL", 0.1, 15.0, false),
            rec("SF(q=5,p=4)", "VAL", 0.5, 99.0, true),
            rec("DF(p=3)", "MIN", 0.1, 12.0, false),
        ];
        let md = render_markdown("fig X", &records);
        assert!(md.starts_with("# fig X\n"));
        assert_eq!(md.matches("## ").count(), 2, "{md}");
        assert_eq!(md.matches("**Mean latency").count(), 2);
        assert_eq!(md.matches("**Accepted throughput").count(), 2);
        assert!(md.contains("| MIN | 11.000 | 14.000 |"), "{md}");
        assert!(md.contains("| VAL | 15.000 | 99.000 † |"), "{md}");
        // The DF group never saw load 0.5 → no column for it.
        let df_section = md.split("## DF(p=3)").nth(1).unwrap();
        assert!(df_section.contains("| routing | 0.100 |"), "{df_section}");
        assert!(md.contains("† operated past saturation"));
    }

    #[test]
    fn packet_sizes_get_their_own_groups() {
        // A fig_packets-style stream: same topology/traffic/routing at
        // two packet sizes must render two table pairs, with the
        // multi-flit heading annotated and the single-flit heading
        // unchanged (golden-report compatibility).
        let mut r1 = rec("SF(q=5,p=4)", "MIN", 0.1, 11.0, false);
        let mut r4 = rec("SF(q=5,p=4)", "MIN", 0.1, 14.5, false);
        r1.packet_size = 1;
        r4.packet_size = 4;
        let md = render_markdown("fig_packets", &[r1, r4]);
        assert_eq!(md.matches("## ").count(), 2, "{md}");
        assert!(md.contains("## SF(q=5,p=4) — uniform traffic\n"), "{md}");
        assert!(
            md.contains("## SF(q=5,p=4) — uniform traffic, 4-flit packets\n"),
            "{md}"
        );
    }

    #[test]
    fn empty_stream_renders_placeholder() {
        let md = render_markdown("empty", &[]);
        assert!(md.contains("_No records._"));
    }

    #[test]
    fn plan_report_keeps_same_topology_sweeps_separate() {
        // fig8a shape: sweeps identical except for sim.buf_per_port.
        // Each must render its own section (disambiguated by the
        // differing sim key) instead of the first shadowing the rest.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "bufsweep"
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.1]
            [sweep.sim]
            buf_per_port = 8
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.1]
            [sweep.sim]
            buf_per_port = 16
            "#,
        )
        .unwrap();
        let records = vec![
            rec("SF(q=5,p=4)", "MIN", 0.1, 11.0, false),
            rec("SF(q=5,p=4)", "MIN", 0.1, 14.0, false),
        ];
        let md = render_plan_report(&plan, &records);
        assert_eq!(md.matches("## SF(q=5,p=4)").count(), 2, "{md}");
        assert!(md.contains("(buf_per_port = 16)"), "{md}");
        assert!(md.contains("| MIN | 11.000 |"), "{md}");
        assert!(md.contains("| MIN | 14.000 |"), "{md}");

        // A stream that does not match the expansion falls back to the
        // plain grouped rendering (no panic, no drops beyond grouping).
        let md = render_plan_report(&plan, &records[..1]);
        assert_eq!(md.matches("## SF(q=5,p=4)").count(), 1);
    }

    #[test]
    fn flow_headings_list_only_the_fields_flow_reads() {
        // A flow sweep after a cycle sweep on the same topology: the
        // backend note already tells them apart, and the cycle windows
        // (warmup, measure, drain) mean nothing to the flow tier.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "mixed"
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.1]
            [sweep.sim]
            warmup = 150
            [[sweep]]
            topo = "sf:q=5"
            backend = "flow"
            loads = [0.1]
            [[sweep]]
            topo = "sf:q=5"
            backend = "flow"
            loads = [0.1]
            [sweep.sim]
            warmup = 500
            router_delay = 5
            "#,
        )
        .unwrap();
        let flow = |latency| Record {
            backend: "flow".into(),
            ..rec("SF(q=5,p=4)", "MIN", 0.1, latency, false)
        };
        let records = vec![
            rec("SF(q=5,p=4)", "MIN", 0.1, 11.0, false),
            flow(9.0),
            flow(10.0),
        ];
        let md = render_plan_report(&plan, &records);
        assert!(
            md.contains("## SF(q=5,p=4) — uniform traffic, flow backend\n"),
            "{md}"
        );
        assert!(
            md.contains("## SF(q=5,p=4) — uniform traffic, flow backend (router_delay = 5)\n"),
            "{md}"
        );
        assert!(!md.contains("warmup"), "{md}");
    }
}
