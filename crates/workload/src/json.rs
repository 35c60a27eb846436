//! JSON job traces (via `serde_json`).

use qcs_qcloud::QJob;

/// Serialises jobs to pretty JSON.
pub fn to_json(jobs: &[QJob]) -> String {
    serde_json::to_string_pretty(jobs).expect("QJob serialisation cannot fail")
}

/// Parses a JSON job array, validating every job and rejecting a repeated
/// id.
pub fn from_json(text: &str) -> Result<Vec<QJob>, String> {
    let jobs: Vec<QJob> = serde_json::from_str(text).map_err(|e| e.to_string())?;
    for j in &jobs {
        j.validate()?;
    }
    qcs_qcloud::jobgen::check_unique_ids(&jobs)?;
    Ok(jobs)
}

/// Writes a JSON trace to disk.
pub fn write_file(path: &std::path::Path, jobs: &[QJob]) -> std::io::Result<()> {
    std::fs::write(path, to_json(jobs))
}

/// Reads a JSON trace from disk.
pub fn read_file(path: &std::path::Path) -> Result<Vec<QJob>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcs_desim::Xoshiro256StarStar;
    use qcs_qcloud::{JobDistribution, JobId};

    #[test]
    fn roundtrip() {
        let dist = JobDistribution::default();
        let mut rng = Xoshiro256StarStar::new(3);
        let jobs: Vec<QJob> = (0..10)
            .map(|i| dist.sample(JobId(i), 0.5 * i as f64, &mut rng))
            .collect();
        let text = to_json(&jobs);
        assert_eq!(from_json(&text).unwrap(), jobs);
    }

    #[test]
    fn bad_json_rejected() {
        assert!(from_json("not json").is_err());
        assert!(from_json("[{\"id\": 1}]").is_err());
    }

    #[test]
    fn repeated_job_id_rejected() {
        let dist = JobDistribution::default();
        let mut rng = Xoshiro256StarStar::new(3);
        let mut jobs: Vec<QJob> = (0..4)
            .map(|i| dist.sample(JobId(i), i as f64, &mut rng))
            .collect();
        jobs[3].id = JobId(0);
        let err = from_json(&to_json(&jobs)).unwrap_err();
        assert!(err.contains("duplicate job id JobId(0)"), "{err}");
    }

    #[test]
    fn invalid_jobs_rejected() {
        let text = r#"[{"id":1,"num_qubits":0,"depth":5,"num_shots":100,"two_qubit_gates":10,"arrival_time":0.0}]"#;
        let err = from_json(text).unwrap_err();
        assert!(err.contains("zero qubits"), "{err}");
    }
}
