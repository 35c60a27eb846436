//! CSV job traces.
//!
//! Format (header required):
//! `job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time`
//!
//! The `arrival_time` column is optional (paper §3: "if no arrival time is
//! specified, the current timestamp is assigned by default" — we default to
//! 0.0 for deterministic replay).

use qcs_qcloud::{JobId, QJob};

/// Serialises jobs to CSV.
pub fn to_csv(jobs: &[QJob]) -> String {
    let mut out = String::from("job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time\n");
    for j in jobs {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            j.id.0, j.num_qubits, j.depth, j.num_shots, j.two_qubit_gates, j.arrival_time
        ));
    }
    out
}

/// Parses jobs from CSV. Returns an error naming the offending line on any
/// malformed input, and one naming the id when two rows share a `job_id`.
pub fn from_csv(text: &str) -> Result<Vec<QJob>, String> {
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err("empty CSV".into());
    };
    let cols: Vec<&str> = header.split(',').map(str::trim).collect();
    let expect = [
        "job_id",
        "num_qubits",
        "depth",
        "num_shots",
        "two_qubit_gates",
        "arrival_time",
    ];
    let has_arrival = cols.len() == 6;
    if cols != expect && cols != expect[..5] {
        return Err(format!("unexpected header: {header:?}"));
    }

    let mut jobs = Vec::new();
    for (ln, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let need = if has_arrival { 6 } else { 5 };
        if fields.len() != need {
            return Err(format!("line {}: expected {need} fields", ln + 1));
        }
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|e| format!("line {}: bad {what} {s:?}: {e}", ln + 1))
        };
        let job = QJob {
            id: JobId(parse_u64(fields[0], "job_id")?),
            num_qubits: parse_u64(fields[1], "num_qubits")?,
            depth: parse_u64(fields[2], "depth")? as u32,
            num_shots: parse_u64(fields[3], "num_shots")?,
            two_qubit_gates: parse_u64(fields[4], "two_qubit_gates")?,
            arrival_time: if has_arrival {
                fields[5]
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad arrival_time: {e}", ln + 1))?
            } else {
                0.0
            },
        };
        job.validate()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        jobs.push(job);
    }
    qcs_qcloud::jobgen::check_unique_ids(&jobs)?;
    Ok(jobs)
}

/// Writes a CSV trace to disk.
pub fn write_file(path: &std::path::Path, jobs: &[QJob]) -> std::io::Result<()> {
    std::fs::write(path, to_csv(jobs))
}

/// Reads a CSV trace from disk.
pub fn read_file(path: &std::path::Path) -> Result<Vec<QJob>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_csv(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_desim::Xoshiro256StarStar;
    use qcs_qcloud::JobDistribution;

    fn jobs(n: usize) -> Vec<QJob> {
        let dist = JobDistribution::default();
        let mut rng = Xoshiro256StarStar::new(5);
        (0..n)
            .map(|i| dist.sample(JobId(i as u64), i as f64 * 1.5, &mut rng))
            .collect()
    }

    #[test]
    fn roundtrip() {
        let js = jobs(25);
        let csv = to_csv(&js);
        let back = from_csv(&csv).unwrap();
        assert_eq!(js, back);
    }

    #[test]
    fn missing_arrival_column_defaults_to_zero() {
        let csv = "job_id,num_qubits,depth,num_shots,two_qubit_gates\n1,150,10,50000,500\n";
        let js = from_csv(csv).unwrap();
        assert_eq!(js.len(), 1);
        assert_eq!(js[0].arrival_time, 0.0);
        assert_eq!(js[0].num_qubits, 150);
    }

    #[test]
    fn blank_lines_skipped() {
        let csv =
            "job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time\n\n1,150,10,50000,500,2.5\n\n";
        assert_eq!(from_csv(csv).unwrap().len(), 1);
    }

    #[test]
    fn malformed_rows_reported_with_line_numbers() {
        let csv = "job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time\n1,xxx,10,50000,500,0\n";
        let err = from_csv(csv).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("num_qubits"), "{err}");
    }

    #[test]
    fn wrong_header_rejected() {
        assert!(from_csv("a,b,c\n").is_err());
        assert!(from_csv("").is_err());
    }

    #[test]
    fn invalid_job_rejected() {
        let csv =
            "job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time\n1,0,10,50000,500,0\n";
        let err = from_csv(csv).unwrap_err();
        assert!(err.contains("zero qubits"), "{err}");
    }

    #[test]
    fn repeated_job_id_rejected() {
        let csv = "job_id,num_qubits,depth,num_shots,two_qubit_gates,arrival_time\n\
                   1,150,10,50000,500,0\n2,150,10,50000,500,1\n1,160,10,50000,500,2\n";
        let err = from_csv(csv).unwrap_err();
        assert!(err.contains("duplicate job id JobId(1)"), "{err}");
    }

    #[test]
    fn file_roundtrip() {
        let js = jobs(5);
        let dir = std::env::temp_dir().join("qcs_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        write_file(&path, &js).unwrap();
        assert_eq!(read_file(&path).unwrap(), js);
        std::fs::remove_file(&path).ok();
    }
}
