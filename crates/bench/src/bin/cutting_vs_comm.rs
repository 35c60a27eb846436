//! **Cutting vs real-time communication** (extension): quantifies the §2
//! claim that circuit cutting "introduces additional computational overhead
//! and may be impractical", and charts where the crossover sits.
//!
//! ```text
//! cargo run -p qcs-bench --release --bin cutting_vs_comm [-- --seed 42]
//! ```
//!
//! Part 1 sweeps two-qubit-gate density for the paper's job template under
//! both locality assumptions, pricing wall-clock time and fidelity of the
//! two execution modes analytically (Eqs. 3-9 vs the γ²-per-cut model).
//! Part 2 prices *measured* cut counts on concrete generated circuits from
//! each workload family. Output: `results/cutting_vs_comm.csv` +
//! `results/cutting_families.csv`.

use qcs_bench::cli::{arg, reject_unread};
use qcs_bench::runner::results_dir;
use qcs_bench::table::AsciiTable;
use qcs_circuit::{cut_circuit, CutCostModel};
use qcs_qcloud::model::comm::CommModel;
use qcs_qcloud::model::exec_time::ExecTimeModel;
use qcs_qcloud::model::fidelity::{DeviceErrorRates, FidelityModel};
use qcs_qcloud::{
    realtime_comm_outcome, CircuitLocality, CuttingExecModel, FragmentSite, JobId, QJob,
};
use qcs_workload::circuits::{circuit_workload, CircuitWorkloadConfig};

/// Two premium-device fragment sites (the ibm_strasbourg/brussels pair).
fn sites(q: u64) -> Vec<FragmentSite> {
    let rates = DeviceErrorRates {
        single_qubit: 3e-4,
        two_qubit: 8e-3,
        readout: 1.5e-2,
    };
    vec![
        FragmentSite {
            qubits: q / 2,
            clops: 220_000.0,
            qv_layers: 7.0,
            rates,
        },
        FragmentSite {
            qubits: q - q / 2,
            clops: 220_000.0,
            qv_layers: 7.0,
            rates,
        },
    ]
}

fn template_job(q: u64, t2: u64) -> QJob {
    QJob {
        id: JobId(0),
        num_qubits: q,
        depth: 12,
        num_shots: 50_000,
        two_qubit_gates: t2,
        arrival_time: 0.0,
    }
}

fn main() {
    let seed: u64 = arg("--seed", 42);
    reject_unread();
    let exec = ExecTimeModel::default();
    let fid = FidelityModel::default();
    let comm = CommModel::default();

    // ---------- Part 1: density sweep under both localities ----------
    println!("\nPart 1 — density sweep (q=190, d=12, s=50k, 2 premium devices)\n");
    let mut table = AsciiTable::new(&[
        "locality",
        "t2",
        "cuts",
        "overhead",
        "cut wall (s)",
        "comm wall (s)",
        "winner",
        "F_cut",
        "F_comm",
    ]);
    let mut csv = String::from("locality,t2,cuts,overhead,cut_wall,comm_wall,fid_cut,fid_comm\n");
    let q = 190u64;
    for locality in [CircuitLocality::Chain, CircuitLocality::Random] {
        let model = CuttingExecModel {
            cost: CutCostModel::default(),
            locality,
            exec,
            fidelity: fid,
        };
        for density in [0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25] {
            let t2 = (density * q as f64 * 12.0).round().max(1.0) as u64;
            let job = template_job(q, t2);
            let s = sites(q);
            let cut = model.evaluate(&job, &s);
            let rt = realtime_comm_outcome(&job, &s, &exec, &fid, &comm);
            let winner = if cut.wall_seconds < rt.wall_seconds {
                "cutting"
            } else {
                "comm"
            };
            let loc = match locality {
                CircuitLocality::Chain => "chain",
                CircuitLocality::Random => "random",
                CircuitLocality::Fixed(_) => "fixed",
            };
            table.row(vec![
                loc.into(),
                t2.to_string(),
                cut.cuts.to_string(),
                format!("{:.3e}", cut.sampling_overhead),
                format!("{:.3e}", cut.wall_seconds),
                format!("{:.1}", rt.wall_seconds),
                winner.into(),
                format!("{:.4}", cut.fidelity),
                format!("{:.4}", rt.fidelity),
            ]);
            csv.push_str(&format!(
                "{loc},{t2},{},{:.6e},{:.6e},{:.3},{:.5},{:.5}\n",
                cut.cuts,
                cut.sampling_overhead,
                cut.wall_seconds,
                rt.wall_seconds,
                cut.fidelity,
                rt.fidelity
            ));
        }
    }
    println!("{}", table.render());
    std::fs::write(results_dir().join("cutting_vs_comm.csv"), csv).expect("write csv");

    // ---------- Part 2: measured cuts on concrete circuits ----------
    println!("\nPart 2 — measured cut counts per circuit family (fragments ≤ 127 qubits)\n");
    let mut fam_table = AsciiTable::new(&[
        "family",
        "q",
        "t2",
        "cuts",
        "overhead",
        "cut wall (s)",
        "comm wall (s)",
        "winner",
    ]);
    let mut fam_csv = String::from("family,q,t2,cuts,overhead,cut_wall,comm_wall,winner\n");
    let cfg = CircuitWorkloadConfig::default();
    let jobs = circuit_workload(40, &cfg, seed);
    // One representative per family: the first generated instance.
    let mut seen = std::collections::BTreeSet::new();
    for cj in &jobs {
        if !seen.insert(cj.family.label()) {
            continue;
        }
        let plan = cut_circuit(&cj.circuit, 127, CutCostModel::default());
        let model = CuttingExecModel {
            cost: CutCostModel::default(),
            locality: CircuitLocality::Fixed(plan.cut_gates),
            exec,
            fidelity: fid,
        };
        let s = sites(cj.job.num_qubits);
        let cut = model.evaluate(&cj.job, &s);
        let rt = realtime_comm_outcome(&cj.job, &s, &exec, &fid, &comm);
        let winner = if cut.wall_seconds < rt.wall_seconds {
            "cutting"
        } else {
            "comm"
        };
        fam_table.row(vec![
            cj.family.label().into(),
            cj.job.num_qubits.to_string(),
            cj.job.two_qubit_gates.to_string(),
            plan.cut_gates.to_string(),
            format!("{:.3e}", cut.sampling_overhead),
            format!("{:.3e}", cut.wall_seconds),
            format!("{:.1}", rt.wall_seconds),
            winner.into(),
        ]);
        fam_csv.push_str(&format!(
            "{},{},{},{},{:.6e},{:.6e},{:.3},{winner}\n",
            cj.family.label(),
            cj.job.num_qubits,
            cj.job.two_qubit_gates,
            plan.cut_gates,
            cut.sampling_overhead,
            cut.wall_seconds,
            rt.wall_seconds,
        ));
    }
    println!("{}", fam_table.render());
    std::fs::write(results_dir().join("cutting_families.csv"), fam_csv).expect("write csv");
    println!(
        "\nwrote {} and {}",
        results_dir().join("cutting_vs_comm.csv").display(),
        results_dir().join("cutting_families.csv").display()
    );
}
